(* Tests for the optimization-remark and pass-statistic subsystem: the
   u&u heuristic must explain every accept/reject with the computed
   (p, s, u) payload, and the counters must register the §V effects
   (load elimination after unmerging) on the paper's motivating app. *)

open Uu_support
open Uu_core

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* Same shape as the paper's Fig. 1 example: a loop whose body branches
   on a value unknown at compile time, so unmerging has paths to split. *)
let loop_src =
  {|
kernel k(int* restrict out, int n) {
  int tid = threadIdx.x;
  int acc = 0;
  int i = 0;
  while (i < n) {
    if ((i + tid) & 1) { acc = acc + i; } else { acc = acc - tid; }
    i = i + 1;
  }
  out[tid] = acc;
}
|}

(* Run only the heuristic pass (after canonicalization) and return its
   remark stream plus the statistic deltas of the run. *)
let heuristic_run params =
  let fn = Ir_helpers.compile_one loop_src in
  ignore (Uu_opt.Pass.exec ~options:Uu_opt.Pass.unverified Pipelines.early_passes fn);
  let sink = Remark.create () in
  let report =
    Uu_opt.Pass.exec
      ~options:(Uu_opt.Pass.options ~remarks:sink ())
      [ Uu.heuristic_pass params ] fn
  in
  (Remark.remarks sink, report.Uu_opt.Pass.stats)

let heuristic_decisions remarks =
  List.filter (fun (r : Remark.t) -> r.Remark.pass = "uu-heuristic") remarks

let has_psu r =
  Remark.int_arg r "p" <> None && Remark.int_arg r "s" <> None
  && Remark.int_arg r "u" <> None && Remark.int_arg r "c" <> None

let test_heuristic_applied_remark () =
  let remarks, stats = heuristic_run Uu.default_params in
  match heuristic_decisions remarks with
  | [ r ] ->
    check bool "accepted under the paper's defaults" true (r.Remark.kind = Remark.Applied);
    check bool "payload has p/s/u/c" true (has_psu r);
    check bool "located at the loop header" true (r.Remark.block <> None);
    check bool "chosen factor is at least 2" true
      (match Remark.int_arg r "u" with Some u -> u >= 2 | None -> false);
    check int "counted as accepted" 1
      (Option.value ~default:0 (List.assoc_opt "uu.heuristic_accepted" stats))
  | ds -> Alcotest.failf "expected exactly one heuristic decision, got %d" (List.length ds)

let test_heuristic_missed_remark () =
  (* A bound of 1 makes f(p,s,u) >= c for every factor: the loop must be
     rejected, and the remark must carry the numbers behind the decision. *)
  let remarks, stats = heuristic_run { Uu.default_params with Uu.c = 1 } in
  match heuristic_decisions remarks with
  | [ r ] ->
    check bool "rejected under c=1" true (r.Remark.kind = Remark.Missed);
    check bool "payload has p/s/u/c" true (has_psu r);
    check bool "p is the real path count" true
      (match Remark.int_arg r "p" with Some p -> p >= 2 | None -> false);
    check bool "s is the real loop size" true
      (match Remark.int_arg r "s" with Some s -> s > 0 | None -> false);
    check int "rejection counted" 1
      (Option.value ~default:0 (List.assoc_opt "uu.heuristic_rejected" stats));
    check bool "nothing transformed" true
      (List.assoc_opt "uu.loops_transformed" stats = None)
  | ds -> Alcotest.failf "expected exactly one heuristic decision, got %d" (List.length ds)

let test_rainflow_load_elimination () =
  (* §V: on rainflow, u&u turns merge-crossing memory reuse into
     straight-line reuse that GVN's load elimination can exploit. *)
  let app =
    match Uu_benchmarks.Registry.find "rainflow" with
    | Some a -> a
    | None -> Alcotest.fail "rainflow not registered"
  in
  let request =
    Uu_serve.Request.make ~mode:Uu_serve.Request.Compile
      (Uu_serve.Request.App app.Uu_benchmarks.App.name) Pipelines.Uu_heuristic
  in
  match Uu_harness.Runner.run_request request with
  | Error msg -> Alcotest.fail msg
  | Ok { Uu_serve.Response.remarks; stats; _ } ->
    check bool "gvn.loads_eliminated > 0" true
      (match List.assoc_opt "gvn.loads_eliminated" stats with
      | Some n -> n > 0
      | None -> false);
    check bool "compilation explains a u&u decision" true
      (heuristic_decisions remarks <> [])

let test_emit_without_sink () =
  (* Instrumentation must be free when nobody listens. *)
  check bool "disabled by default" false (Remark.enabled ());
  Remark.applied ~pass:"t" ~func:"f" "dropped";
  let sink = Remark.create () in
  Remark.with_sink sink (fun () ->
      check bool "enabled inside with_sink" true (Remark.enabled ());
      Remark.applied ~pass:"t" ~func:"f" "kept");
  check bool "disabled again after" false (Remark.enabled ());
  check int "only the scoped remark recorded" 1 (List.length (Remark.remarks sink))

let test_json_escaping () =
  let r : Remark.t =
    {
      Remark.kind = Remark.Missed;
      pass = "p";
      func = "f\"g\\h";
      block = Some 3;
      message = "line\nbreak";
      args = [ ("why", Remark.Str "a\tb") ];
    }
  in
  let json = Remark.to_json r in
  check bool "quotes escaped" true (Astring.String.is_infix ~affix:{|f\"g\\h|} json);
  check bool "newline escaped" true (Astring.String.is_infix ~affix:{|line\nbreak|} json)

let suite =
  [
    ("heuristic applied remark has p/s/u", `Quick, test_heuristic_applied_remark);
    ("heuristic missed remark has p/s/u", `Quick, test_heuristic_missed_remark);
    ("rainflow: gvn.loads_eliminated > 0", `Quick, test_rainflow_load_elimination);
    ("emit without a sink is a no-op", `Quick, test_emit_without_sink);
    ("remark JSON escapes specials", `Quick, test_json_escaping);
  ]
