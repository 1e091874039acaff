(* Tests for the experiment harness: the runner, the per-loop sweep, the
   Table I / figure generators, and the report renderers. Kept to two
   small apps so the whole suite stays fast. *)

open Uu_core
open Uu_harness

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let bezier =
  match Uu_benchmarks.Registry.find "bezier-surface" with
  | Some a -> a
  | None -> assert false

let complex =
  match Uu_benchmarks.Registry.find "complex" with
  | Some a -> a
  | None -> assert false

let test_registry () =
  (* The paper's 16 Table I applications plus the shared-memory wave
     (dbuf, stencil1d, stencil2d, treduce), the multi-warp variants
     of stencil1d and treduce at block_dim 64/128/256, and the atomic
     wave (histogram). *)
  check int "27 applications" 27 (List.length Uu_benchmarks.Registry.all);
  check bool "find works" true (Uu_benchmarks.Registry.find "XSBench" <> None);
  check bool "unknown app" true (Uu_benchmarks.Registry.find "nope" = None);
  check (Alcotest.list Alcotest.string) "names"
    [
      "bezier-surface"; "bn"; "bspline-vgh"; "ccs"; "clink"; "complex"; "contract";
      "coordinates"; "dbuf"; "haccmk"; "histogram"; "lavaMD"; "libor"; "mandelbrot";
      "qtclustering"; "quicksort"; "rainflow"; "stencil1d"; "stencil1d-64";
      "stencil1d-128"; "stencil1d-256"; "stencil2d"; "treduce"; "treduce-64";
      "treduce-128"; "treduce-256"; "XSBench";
    ]
    Uu_benchmarks.Registry.names

let test_loop_inventory () =
  let loops = Runner.loop_inventory bezier in
  check bool "bezier has a loop" true (loops <> []);
  List.iter
    (fun (l : Runner.loop_ref) ->
      check Alcotest.string "kernel name" "bezier_blend" l.Runner.kernel)
    loops;
  (* Deterministic across calls. *)
  check bool "stable ids" true (Runner.loop_inventory bezier = loops)

(* [run_exn] returns only when the host oracle passed: a mismatch is an
   [Error] response, which it raises. *)
let test_runner_baseline () =
  let m = Runner.run_exn bezier Pipelines.Baseline in
  check bool "kernel time positive" true (m.Runner.kernel_ms > 0.0);
  check bool "transfer modeled" true (m.Runner.transfer_ms > 0.0);
  check bool "code size includes rest bytes" true
    (m.Runner.code_bytes > bezier.Uu_benchmarks.App.rest_bytes)

let test_runner_determinism () =
  let a = Runner.run_exn bezier Pipelines.Baseline in
  let b = Runner.run_exn bezier Pipelines.Baseline in
  check (Alcotest.float 1e-12) "deterministic without noise" a.Runner.kernel_ms
    b.Runner.kernel_ms

let test_runner_per_loop_targeting () =
  let loop = List.hd (Runner.loop_inventory bezier) in
  let targeted = Runner.run_exn ~target:loop bezier (Pipelines.Uu 2) in
  (* Targeting a loop under u&u changes the code relative to baseline. *)
  let base = Runner.run_exn bezier Pipelines.Baseline in
  check bool "transform changed code size" true
    (targeted.Runner.code_bytes <> base.Runner.code_bytes)


(* --- loop ids are per kernel ----------------------------------------- *)

let quicksort =
  match Uu_benchmarks.Registry.find "quicksort" with
  | Some a -> a
  | None -> assert false

(* The (kernel, block) of every [pass] remark applied by compiling
   [source] under [config], restricted to loop [loop]. *)
let applied ~pass source config loop =
  let request =
    Uu_serve.Request.make ~mode:Uu_serve.Request.Compile ~loop source config
  in
  match Runner.run_request request with
  | Error e -> Alcotest.fail e
  | Ok { Uu_serve.Response.remarks; _ } ->
    List.filter_map
      (fun (r : Uu_support.Remark.t) ->
        if r.kind = Uu_support.Remark.Applied && r.pass = pass then
          Some (r.func, Option.value r.block ~default:(-1))
        else None)
      remarks

let sites = Alcotest.(list (pair string int))

(* [-l N] is loop N of each kernel that has one, transformed once:
   quicksort's two kernels each get exactly one u&u-2 and one unroll-4. *)
let test_loop_per_kernel () =
  List.iter
    (fun (config, pass) ->
      check sites
        (Pipelines.config_to_string config ^ ": one transform per kernel")
        [ ("qs_partition", 3); ("qs_rank", 3) ]
        (applied ~pass (Uu_serve.Request.App "quicksort") config 0))
    [ (Pipelines.Uu 2, "unroll-and-unmerge"); (Pipelines.Unroll 4, "unroll") ]

(* Two kernels whose loops share a header label: ka has loops at bb1 and
   bb7, kb one loop at bb7 after three ifs. Each id names only its own
   kernel's loop. *)
let collision =
  {|kernel ka(float* restrict out, int n) {
  int tid = blockIdx.x * blockDim.x + threadIdx.x;
  float acc = 0.0;
  for (int i = 0; i < n; i++) {
    if (i < tid) { acc = acc + 1.0; }
  }
  for (int j = 0; j < n; j++) {
    if (j < tid) { acc = acc + 2.0; } else { acc = acc - 1.0; }
  }
  out[tid] = acc;
}
kernel kb(float* restrict out, int n) {
  int tid = blockIdx.x * blockDim.x + threadIdx.x;
  float acc = 0.0;
  if (tid < 1) { acc = 1.0; }
  if (tid < 2) { acc = acc + 1.0; }
  if (tid < 3) { acc = acc + 2.0; }
  for (int i = 0; i < n; i++) {
    if (i < tid) { acc = acc + 1.0; } else { acc = acc * 0.5; }
  }
  out[tid] = acc;
}
|}

let test_loop_ids_do_not_collide () =
  let source = Uu_serve.Request.Inline { name = "collide.cu"; text = collision } in
  let uu loop = applied ~pass:"unroll-and-unmerge" source (Pipelines.Uu 2) loop in
  check sites "loop 0: each kernel's first loop" [ ("ka", 1); ("kb", 7) ] (uu 0);
  check sites "loop 1: only ka has one" [ ("ka", 7) ] (uu 1)

(* The sweep's job for quicksort's qs_partition loop 0 is a schedule
   request scoped to that kernel; it measures what the sweep measured
   before jobs became requests. *)
let test_kernel_scoped_schedule () =
  let target =
    List.find
      (fun (l : Runner.loop_ref) -> l.kernel = "qs_partition" && l.loop_id = 0)
      (Runner.loop_inventory quicksort)
  in
  let request = Runner.schedule_request ~target quicksort (Pipelines.Uu 2) in
  check (Alcotest.option Alcotest.string) "scoped to the kernel" (Some "qs_partition")
    request.Uu_serve.Request.kernel;
  check Alcotest.string "the sweep's job is this request"
    (Uu_serve.Request.key request)
    (Jobs.key (Jobs.job ~target quicksort (Pipelines.Uu 2)));
  let m = Runner.run_exn ~target quicksort (Pipelines.Uu 2) in
  check (Alcotest.float 1e-12) "kernel_ms" 1.63645 m.Runner.kernel_ms;
  check int "code_bytes" 17104 m.Runner.code_bytes;
  check (Alcotest.float 1e-12) "compile_seconds" 0.006415 m.Runner.compile_seconds

let test_uu_beats_baseline_on_bezier () =
  let base = Runner.run_exn bezier Pipelines.Baseline in
  let uu = Runner.run_exn bezier (Pipelines.Uu 4) in
  check bool "u&u-4 speeds up bezier (paper Fig 7)" true
    (base.Runner.kernel_ms /. uu.Runner.kernel_ms > 1.2)

let test_uu_slows_complex () =
  let base = Runner.run_exn complex Pipelines.Baseline in
  let uu = Runner.run_exn complex (Pipelines.Uu 8) in
  check bool "u&u-8 slows complex (paper SV)" true
    (base.Runner.kernel_ms /. uu.Runner.kernel_ms < 0.5)

let test_divergence_heuristic_protects_complex () =
  let plain = Runner.run_exn complex Pipelines.Uu_heuristic in
  let aware = Runner.run_exn complex Pipelines.Uu_heuristic_divergence in
  check bool "divergence-aware heuristic avoids the slowdown" true
    (aware.Runner.kernel_ms < plain.Runner.kernel_ms)

let test_table1 () =
  let rows = Table1.compute ~runs:3 ~apps:[ bezier; complex ] () in
  check int "two rows" 2 (List.length rows);
  let r = List.hd rows in
  check Alcotest.string "name" "bezier-surface" r.Table1.name;
  check bool "compute fraction in (0,1]" true
    (r.Table1.compute_fraction > 0.0 && r.Table1.compute_fraction <= 1.0);
  check bool "rsd small but nonzero" true
    (r.Table1.baseline_rsd > 0.0 && r.Table1.baseline_rsd < 0.2);
  let rendered = Table1.render rows in
  check bool "render mentions app" true
    (Astring.String.is_infix ~affix:"bezier-surface" rendered);
  check int "csv rows" 2 (List.length (Table1.to_csv rows))

let test_sweep_and_figures () =
  let sweep = Sweep.run ~apps:[ bezier ] () in
  check bool "has points" true (sweep.Sweep.points <> []);
  (* Every loop-config combination is present. *)
  let loops = Runner.loop_inventory bezier in
  check int "points = loops x configs + heuristic"
    ((List.length loops * List.length Sweep.loop_configs) + 1)
    (List.length sweep.Sweep.points);
  List.iter
    (fun (p : Sweep.point) ->
      check bool "speedup positive" true (p.Sweep.speedup > 0.0);
      check bool "code ratio positive" true (p.Sweep.code_ratio > 0.0))
    sweep.Sweep.points;
  (* u&u code grows with the factor on this loop. *)
  let code_of factor =
    match
      List.find_opt
        (fun (p : Sweep.point) ->
          p.Sweep.config = Pipelines.Uu factor && p.Sweep.loop <> None)
        sweep.Sweep.points
    with
    | Some p -> p.Sweep.code_ratio
    | None -> 0.0
  in
  check bool "code ratio grows with factor" true (code_of 4 > code_of 2);
  List.iter
    (fun render ->
      check bool "figure renders" true (String.length (render sweep) > 0))
    [ Figures.fig6a; Figures.fig6b; Figures.fig6c; Figures.fig7; Figures.fig8a;
      Figures.fig8b ];
  check bool "geomean summary" true
    (Astring.String.is_infix ~affix:"geomean" (Figures.geomean_summary sweep));
  check bool "fig7 best >= 1 for bezier" true
    (match Figures.best_per_app sweep (Pipelines.Uu 4) with
    | [ (_, s) ] -> s > 1.0
    | _ -> false)

let test_report_renderers () =
  let table = Report.render_table ~header:[ "a"; "b" ] [ [ "1"; "22" ]; [ "333" ] ] in
  check bool "aligned" true (Astring.String.is_infix ~affix:"a    b" table);
  let path = Filename.temp_file "uu_test" ".csv" in
  Report.write_csv ~path ~header:[ "x"; "y" ] [ [ "1"; "he,llo" ] ];
  let ic = open_in path in
  let l1 = input_line ic in
  let l2 = input_line ic in
  close_in ic;
  Sys.remove path;
  check Alcotest.string "csv header" "x,y" l1;
  check Alcotest.string "csv escaping" "1,\"he,llo\"" l2;
  check Alcotest.string "pct" "12.34%" (Report.pct 0.1234);
  check Alcotest.string "ratio" "1.36x" (Report.ratio 1.3649)

let test_counters_analysis () =
  let cs = Counters.analyze () in
  check int "three SV cases" 3 (List.length cs);
  let xs = List.find (fun c -> c.Counters.app = "XSBench") cs in
  check bool "xsbench misc drops" true (xs.Counters.misc_change < 0.8);
  check bool "xsbench speeds up" true (xs.Counters.speedup > 1.0);
  let cx = List.find (fun c -> c.Counters.app = "complex") cs in
  check bool "complex slows down" true (cx.Counters.speedup < 1.0);
  check bool "complex efficiency collapses" true
    (cx.Counters.uu_eff < 0.5 *. cx.Counters.base_eff);
  check bool "complex fetch stalls grow" true
    (cx.Counters.uu_stall_fetch > cx.Counters.base_stall_fetch);
  check bool "render" true (String.length (Counters.render cs) > 0)

let suite =
  [
    ("registry", `Quick, test_registry);
    ("loop inventory", `Quick, test_loop_inventory);
    ("runner baseline", `Quick, test_runner_baseline);
    ("runner determinism", `Quick, test_runner_determinism);
    ("per-loop targeting", `Quick, test_runner_per_loop_targeting);
    ("loop N of each kernel, once", `Quick, test_loop_per_kernel);
    ("loop ids do not collide across kernels", `Quick, test_loop_ids_do_not_collide);
    ("kernel-scoped schedule = sweep job", `Quick, test_kernel_scoped_schedule);
    ("u&u speeds up bezier", `Quick, test_uu_beats_baseline_on_bezier);
    ("u&u slows down complex", `Slow, test_uu_slows_complex);
    ("divergence-aware heuristic", `Slow, test_divergence_heuristic_protects_complex);
    ("table1", `Slow, test_table1);
    ("sweep and figures", `Slow, test_sweep_and_figures);
    ("report renderers", `Quick, test_report_renderers);
    ("SV counters", `Slow, test_counters_analysis);
  ]
