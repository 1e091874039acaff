(* Tests for the paper's transforms: loop unrolling, control-flow
   unmerging, combined u&u, the heuristic, and the five pipelines; golden
   digests pin the exact output of the transform and of whole pipelines
   on the bundled apps. *)

open Uu_ir
open Uu_core

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let first_loop fn =
  ignore (Uu_opt.Pass.exec ~options:Uu_opt.Pass.unverified Pipelines.early_passes fn);
  let forest = Uu_analysis.Loops.analyze fn in
  (List.hd (Uu_analysis.Loops.loops forest)).Uu_analysis.Loops.header

let counted_loop_src =
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

let run_both ~transform src scalars =
  let reference = Ir_helpers.run_kernel (Ir_helpers.compile_one src) scalars in
  let fn = Ir_helpers.compile_one src in
  let header = first_loop fn in
  transform fn header;
  Verifier.check_exn fn;
  Uu_analysis.Ssa_check.check_exn fn;
  let got = Ir_helpers.run_kernel fn scalars in
  check bool "semantics preserved" true (got = reference);
  fn

let test_unroll_semantics () =
  List.iter
    (fun factor ->
      ignore
        (run_both counted_loop_src [ 13L ] ~transform:(fun fn header ->
             check bool "unroll applied" true
               (Uu_opt.Unroll.unroll_loop fn ~header ~factor).unrolled)))
    [ 2; 3; 4; 8 ]

let test_unroll_structure () =
  let fn = Ir_helpers.compile_one counted_loop_src in
  let header = first_loop fn in
  let blocks_before = List.length (Func.labels fn) in
  ignore (Uu_opt.Unroll.unroll_loop fn ~header ~factor:2 );
  (* The loop body (5 blocks) is duplicated once. *)
  check bool "blocks grew by the body size" true
    (List.length (Func.labels fn) >= blocks_before + 5);
  (* Still exactly one natural loop rooted at the original header. *)
  let forest = Uu_analysis.Loops.analyze fn in
  let loops = Uu_analysis.Loops.loops forest in
  check int "one loop" 1 (List.length loops);
  check int "same header" header (List.hd loops).Uu_analysis.Loops.header

let test_unroll_rejects () =
  let fn = Ir_helpers.compile_one counted_loop_src in
  let header = first_loop fn in
  let untouched = { Uu_opt.Unroll.unrolled = false; edited = false } in
  check bool "factor 1 refused" true (Uu_opt.Unroll.unroll_loop fn ~header ~factor:1 = untouched);
  check bool "bogus header refused" true
    (Uu_opt.Unroll.unroll_loop fn ~header:9999 ~factor:2 = untouched)

let test_unmerge_semantics () =
  ignore
    (run_both counted_loop_src [ 13L ] ~transform:(fun fn header ->
         let o = Unmerge.unmerge_loop fn ~header ~budget:4096 in
         check bool "unmerge changed" true o.Unmerge.changed))

let test_unmerge_removes_merges () =
  let fn = Ir_helpers.compile_one counted_loop_src in
  let header = first_loop fn in
  ignore (Unmerge.unmerge_loop fn ~header ~budget:4096);
  (* No block inside the loop other than the header has 2+ predecessors. *)
  let forest = Uu_analysis.Loops.analyze fn in
  let loop = List.hd (Uu_analysis.Loops.loops forest) in
  let preds = Cfg.predecessors fn in
  Value.Label_set.iter
    (fun l ->
      if l <> loop.Uu_analysis.Loops.header then
        match Hashtbl.find_opt preds l with
        | Some (_ :: _ :: _) ->
          Alcotest.fail (Printf.sprintf "merge block bb%d survives inside loop" l)
        | Some _ | None -> ())
    loop.Uu_analysis.Loops.blocks

let test_uu_semantics_all_factors () =
  List.iter
    (fun factor ->
      ignore
        (run_both counted_loop_src [ 13L ] ~transform:(fun fn header ->
             let o = Uu.uu_loop fn ~header ~factor in
             check bool "applied" true o.Uu.applied)))
    [ 1; 2; 4; 8 ]

let test_uu_paths_match_formula () =
  (* After u&u with factor u on a 2-path body, the header has p^u latch
     predecessors (paper SIII-A: the p^(u-1) ... path tree). *)
  let fn = Ir_helpers.compile_one counted_loop_src in
  let header = first_loop fn in
  ignore (Uu.uu_loop fn ~header ~factor:2);
  let preds = Cfg.preds_of fn header in
  let forest = Uu_analysis.Loops.analyze fn in
  let loop = List.hd (Uu_analysis.Loops.loops forest) in
  let in_loop =
    List.filter (fun p -> Value.Label_set.mem p loop.Uu_analysis.Loops.blocks) preds
  in
  check int "4 unmerged paths for p=2,u=2" 4 (List.length in_loop)

let test_uu_budget_rolls_back () =
  let fn = Ir_helpers.compile_one counted_loop_src in
  let header = first_loop fn in
  let before = Printer.func_to_string fn in
  let o = Uu.uu_loop ~budget:3 fn ~header ~factor:8 in
  check bool "budget exhausted" true o.Uu.budget_exhausted;
  check bool "not applied" false o.Uu.applied;
  check Alcotest.string "function rolled back" before (Printer.func_to_string fn)

let test_uu_skips_convergent () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int n) {
  int tid = threadIdx.x;
  int i = 0;
  while (i < n) {
    __syncthreads();
    i = i + 1;
  }
  out[tid] = i;
}
|}
  in
  let header = first_loop fn in
  let o = Uu.uu_loop fn ~header ~factor:2 in
  check bool "convergent loop untouched" false o.Uu.applied

let test_uu_sets_pragma () =
  let fn = Ir_helpers.compile_one counted_loop_src in
  let header = first_loop fn in
  ignore (Uu.uu_loop fn ~header ~factor:2);
  check bool "tagged no-unroll" true (Hashtbl.mem fn.Func.pragmas header)

let test_heuristic_plan () =
  let fn = Ir_helpers.compile_one counted_loop_src in
  ignore (Uu_opt.Pass.exec ~options:Uu_opt.Pass.unverified Pipelines.early_passes fn);
  let plan = Uu.plan_heuristic fn Uu.default_params in
  check int "one loop chosen" 1 (List.length plan);
  let _, factor = List.hd plan in
  check bool "factor within bounds" true (factor >= 2 && factor <= 8);
  (* The chosen factor satisfies f(p,s,u) < c. *)
  let forest = Uu_analysis.Loops.analyze fn in
  let l = List.hd (Uu_analysis.Loops.loops forest) in
  let s = Uu_analysis.Cost_model.loop_size fn l in
  let p = Uu_analysis.Cost_model.path_count fn l in
  check bool "f(p,s,u) < c" true
    (Uu_analysis.Cost_model.duplicated_size ~p ~s ~u:factor < Uu.default_params.Uu.c)

let test_heuristic_skips_pragma () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int n) {
  int acc = 0;
  int i = 0;
  #pragma unroll 4
  while (i < n) {
    if (i & 1) { acc = acc + i; }
    i = i + 1;
  }
  out[0] = acc;
}
|}
  in
  ignore (Uu_opt.Pass.exec ~options:Uu_opt.Pass.unverified Pipelines.early_passes fn);
  check int "annotated loop skipped" 0 (List.length (Uu.plan_heuristic fn Uu.default_params))

let test_heuristic_innermost_first () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int n) {
  int acc = 0;
  int i = 0;
  while (i < n) {
    int j = 0;
    while (j < n) {
      if (j & 1) { acc = acc + j; } else { acc = acc + 1; }
      j = j + 1;
    }
    i = i + 1;
  }
  out[0] = acc;
}
|}
  in
  ignore (Uu_opt.Pass.exec ~options:Uu_opt.Pass.unverified Pipelines.early_passes fn);
  let plan = Uu.plan_heuristic fn Uu.default_params in
  (* Only the inner loop is transformed; the outer is skipped because a
     descendant was chosen (SIII-C). *)
  check int "only innermost chosen" 1 (List.length plan);
  let forest = Uu_analysis.Loops.analyze fn in
  let chosen, _ = List.hd plan in
  let l =
    List.find
      (fun (l : Uu_analysis.Loops.loop) -> l.header = chosen)
      (Uu_analysis.Loops.loops forest)
  in
  check int "chosen loop is depth 2" 2 l.Uu_analysis.Loops.depth

let test_heuristic_divergence_extension () =
  let complex = Uu_benchmarks.Complex_app.app in
  let m = Uu_frontend.Lower.compile ~name:"c" complex.Uu_benchmarks.App.source in
  let fn = List.hd m.Func.funcs in
  ignore (Uu_opt.Pass.exec ~options:Uu_opt.Pass.unverified Pipelines.early_passes fn);
  let base_plan = Uu.plan_heuristic fn Uu.default_params in
  let div_plan =
    Uu.plan_heuristic fn { Uu.default_params with Uu.avoid_divergent = true }
  in
  check bool "paper heuristic picks the loop" true (base_plan <> []);
  check int "divergence-aware heuristic refuses" 0 (List.length div_plan)

let test_dbds_ablation () =
  let fn = Ir_helpers.compile_one counted_loop_src in
  let header = first_loop fn in
  let o = Unmerge.dbds_unmerge_loop fn ~header ~budget:4096 in
  check bool "dbds applied" true o.Unmerge.changed;
  Verifier.check_exn fn;
  Uu_analysis.Ssa_check.check_exn fn;
  let got = Ir_helpers.run_kernel fn [ 13L ] in
  let reference = Ir_helpers.run_kernel (Ir_helpers.compile_one counted_loop_src) [ 13L ] in
  check bool "dbds preserves semantics" true (got = reference)

let test_selective_unmerge () =
  (* Selective u&u duplicates less code than full u&u on the same loop but
     still applies and preserves semantics (paper SVI future work). *)
  let reference =
    Ir_helpers.run_kernel (Ir_helpers.compile_one counted_loop_src) [ 13L ]
  in
  let full = Ir_helpers.compile_one counted_loop_src in
  let header = first_loop full in
  let o_full = Uu.uu_loop full ~header ~factor:2 in
  let sel = Ir_helpers.compile_one counted_loop_src in
  let header_s = first_loop sel in
  let o_sel = Uu.uu_loop ~selective:true sel ~header:header_s ~factor:2 in
  check bool "selective applied" true o_sel.Uu.applied;
  check bool "selective duplicates no more than full" true
    (o_sel.Uu.duplicated_blocks <= o_full.Uu.duplicated_blocks);
  Verifier.check_exn sel;
  Uu_analysis.Ssa_check.check_exn sel;
  check bool "selective preserves semantics" true
    (Ir_helpers.run_kernel sel [ 13L ] = reference)

let nested_src =
  {|
kernel k(int* restrict out, int n) {
  int tid = threadIdx.x;
  int acc = 0;
  int i = 0;
  while (i < n) {
    int j = 0;
    while (j < 3) {
      if ((j + tid) & 1) { acc = acc + j; } else { acc = acc - 1; }
      j = j + 1;
    }
    i = i + 1;
  }
  out[tid] = acc;
}
|}

let outer_loop fn =
  ignore (Uu_opt.Pass.exec ~options:Uu_opt.Pass.unverified Pipelines.early_passes fn);
  let forest = Uu_analysis.Loops.analyze fn in
  (List.find (fun (l : Uu_analysis.Loops.loop) -> l.depth = 1)
     (Uu_analysis.Loops.loops forest))
    .Uu_analysis.Loops.header

let test_unroll_nested_option () =
  let reference = Ir_helpers.run_kernel (Ir_helpers.compile_one nested_src) [ 4L ] in
  let plain = Ir_helpers.compile_one nested_src in
  let header = outer_loop plain in
  ignore (Uu.uu_loop plain ~header ~factor:2);
  let nested = Ir_helpers.compile_one nested_src in
  let header_n = outer_loop nested in
  let o = Uu.uu_loop ~unroll_nested:true nested ~header:header_n ~factor:2 in
  check bool "applied" true o.Uu.applied;
  Verifier.check_exn nested;
  Uu_analysis.Ssa_check.check_exn nested;
  check bool "nest unrolling duplicates more" true
    (List.length (Func.labels nested) > List.length (Func.labels plain));
  check bool "semantics preserved (plain)" true
    (Ir_helpers.run_kernel plain [ 4L ] = reference);
  check bool "semantics preserved (nested)" true
    (Ir_helpers.run_kernel nested [ 4L ] = reference)

let test_provenance_labels () =
  (* After u&u the duplicated paths carry known condition outcomes — the
     paper's Figure 5 T/F/X labels. *)
  let fn = Ir_helpers.compile_one counted_loop_src in
  let header = first_loop fn in
  ignore (Uu.uu_loop fn ~header ~factor:2);
  let report = Provenance.analyze fn in
  check bool "at least one condition column" true (report.Provenance.conditions <> []);
  let strings =
    List.map (fun (_, l) -> Provenance.label_string l) report.Provenance.per_block
  in
  check bool "some block knows an outcome (T)" true
    (List.exists (fun s -> String.contains s 'T') strings);
  check bool "some block knows an outcome (F)" true
    (List.exists (fun s -> String.contains s 'F') strings);
  (* The entry knows nothing. *)
  let entry_labels = List.assoc fn.Func.entry report.Provenance.per_block in
  check bool "entry is all X" true
    (Array.for_all (fun l -> l = Provenance.Unknown) entry_labels)

(* Golden digests of exact compiler output on the bundled apps: the
   printed IR after a pass list, the pass work, the statistic deltas, and
   the remark stream. Most cases stop after the early passes and the
   transform; the full-pipeline cases add the late cleanup, whose
   batching rounds fix phi-entry and select order. Any change to label or
   register numbering, phi entry order, remarks, or stats shows up here. *)
let transform_only ~targets config =
  Pipelines.early_passes @ Pipelines.transform ~targets config

let full_pipeline ~targets config = Pipelines.pipeline ~targets config

let transform_digest ~passes ~app ?loop config =
  let app = Option.get (Uu_benchmarks.Registry.find app) in
  let target =
    Option.map
      (fun id ->
        List.find
          (fun (l : Uu_harness.Runner.loop_ref) -> l.loop_id = id)
          (Uu_harness.Runner.loop_inventory app))
      loop
  in
  let m = Uu_frontend.Lower.compile ~name:app.name app.source in
  let sink = Uu_support.Remark.create () in
  let buf = Buffer.create 65536 in
  let stats = ref [] in
  List.iter
    (fun f ->
      let targets =
        match target with
        | None -> Pipelines.All_loops
        | Some t when t.kernel = f.Func.name -> Pipelines.Only [ t.header ]
        | Some _ -> Pipelines.Only []
      in
      let options = { Uu_opt.Pass.unverified with remarks = Some sink } in
      let report = Uu_opt.Pass.exec ~options (passes ~targets config) f in
      Buffer.add_string buf (Printer.func_to_string f);
      Buffer.add_string buf (Printf.sprintf "work %d\n" report.Uu_opt.Pass.work);
      Buffer.add_string buf (Uu_support.Statistic.render report.Uu_opt.Pass.stats);
      stats := Uu_support.Statistic.merge !stats report.Uu_opt.Pass.stats)
    m.Func.funcs;
  let remarks = Uu_support.Remark.remarks sink in
  List.iter
    (fun r -> Buffer.add_string buf (Uu_support.Remark.to_text r ^ "\n"))
    remarks;
  (Digest.to_hex (Digest.string (Buffer.contents buf)), remarks, !stats)

let unmerge_duplicated remarks =
  List.filter_map
    (fun (r : Uu_support.Remark.t) ->
      if r.pass = "unmerge" then Uu_support.Remark.int_arg r "duplicated" else None)
    remarks

let golden_case ?(passes = transform_only) ~app ?loop ?(loop_copies = 0) config
    ~duplicated ~digest () =
  let got, remarks, stats = transform_digest ~passes ~app ?loop config in
  check (Alcotest.list int) "unmerge duplicated counts" duplicated
    (unmerge_duplicated remarks);
  check int "nested-loop copies" loop_copies
    (Option.value ~default:0 (List.assoc_opt "unmerge.loops_duplicated" stats));
  check Alcotest.string "output digest" digest got

let test_pipeline_configs_distinct () =
  check Alcotest.string "name" "u&u-4" (Pipelines.config_name (Pipelines.Uu 4));
  check int "standard configs" 9 (List.length Pipelines.all_standard)

let test_pipeline_only_none () =
  (* Only [] behaves exactly like the baseline. *)
  let fn1 = Ir_helpers.compile_one counted_loop_src in
  ignore (Pipelines.optimize Pipelines.Baseline fn1);
  let fn2 = Ir_helpers.compile_one counted_loop_src in
  ignore (Pipelines.optimize ~targets:(Pipelines.Only []) (Pipelines.Uu 4) fn2);
  check Alcotest.string "same code" (Printer.func_to_string fn1) (Printer.func_to_string fn2)

let suite =
  [
    ("unroll preserves semantics (factors 2,3,4,8)", `Quick, test_unroll_semantics);
    ("unroll structure", `Quick, test_unroll_structure);
    ("unroll rejects bad inputs", `Quick, test_unroll_rejects);
    ("unmerge preserves semantics", `Quick, test_unmerge_semantics);
    ("unmerge leaves no merges in loop", `Quick, test_unmerge_removes_merges);
    ("u&u preserves semantics (factors 1,2,4,8)", `Quick, test_uu_semantics_all_factors);
    ("u&u path count matches p^u", `Quick, test_uu_paths_match_formula);
    ("u&u budget rolls back transactionally", `Quick, test_uu_budget_rolls_back);
    ("u&u skips convergent loops", `Quick, test_uu_skips_convergent);
    ("u&u tags loops no-unroll", `Quick, test_uu_sets_pragma);
    ("heuristic plan respects f(p,s,u) < c", `Quick, test_heuristic_plan);
    ("heuristic skips pragma loops", `Quick, test_heuristic_skips_pragma);
    ("heuristic visits innermost first", `Quick, test_heuristic_innermost_first);
    ("divergence-aware heuristic (SV extension)", `Quick, test_heuristic_divergence_extension);
    ("DBDS one-level ablation", `Quick, test_dbds_ablation);
    ("selective unmerge (SVI extension)", `Quick, test_selective_unmerge);
    ("condition provenance (Figure 5)", `Quick, test_provenance_labels);
    ("nested-loop unrolling option", `Quick, test_unroll_nested_option);
    ("pipeline config naming", `Quick, test_pipeline_configs_distinct);
    ("Only [] equals baseline", `Quick, test_pipeline_only_none);
    (* The largest unmerge that succeeds. *)
    ( "golden: rainflow loop u&u-4",
      `Quick,
      golden_case ~app:"rainflow" ~loop:0 (Pipelines.Uu 4) ~duplicated:[ 6466 ]
        ~digest:"47c3145e7bce0a475a6d2207d2e99bbb" );
    (* Runs out of budget and rolls back. *)
    ( "golden: bezier-surface loop u&u-8 rollback",
      `Quick,
      golden_case ~app:"bezier-surface" ~loop:0 (Pipelines.Uu 8)
        ~duplicated:[ 15012 ] ~digest:"54362fea25dbbe61479dd9fc2137a10d" );
    (* The one successful nested-loop duplication. *)
    ( "golden: ccs whole-app u&u-2",
      `Quick,
      golden_case ~app:"ccs" (Pipelines.Uu 2) ~duplicated:[ 14; 72 ]
        ~loop_copies:3 ~digest:"988028846fcffe4c1e38e7b2caed4b96" );
    ( "golden: rainflow whole-app selective u&u-2",
      `Quick,
      golden_case ~app:"rainflow" (Pipelines.Uu_selective 2) ~duplicated:[ 166 ]
        ~digest:"98f9ca31eeec85d496bea4c5768885ae" );
    (* The whole pipeline on the largest function the late passes see. *)
    ( "golden: rainflow loop u&u-4, full pipeline",
      `Quick,
      golden_case ~passes:full_pipeline ~app:"rainflow" ~loop:0 (Pipelines.Uu 4)
        ~duplicated:[ 6466 ] ~digest:"514106faca2edebbc682495c3fc48c24" );
    ( "golden: XSBench whole-app u&u-8, full pipeline",
      `Quick,
      golden_case ~passes:full_pipeline ~app:"XSBench" (Pipelines.Uu 8)
        ~duplicated:[ 1272 ] ~digest:"f9703da4f0681f9a5246d556aa167a41" );
    ( "golden: complex loop u&u-8, full pipeline",
      `Quick,
      golden_case ~passes:full_pipeline ~app:"complex" ~loop:0 (Pipelines.Uu 8)
        ~duplicated:[ 1272 ] ~digest:"52b21be7f8a69b84babfdc427adf8af0" );
    ( "golden: ccs whole-app u&u-2, full pipeline",
      `Quick,
      golden_case ~passes:full_pipeline ~app:"ccs" (Pipelines.Uu 2)
        ~duplicated:[ 14; 72 ] ~loop_copies:3
        ~digest:"2e296fca7aaef48b29f7e69d180d85d8" );
  ]
