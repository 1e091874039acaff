open Uu_ir
open Uu_core

type row = {
  app : string;
  variant : string;
  speedup : float;
  code_ratio : float;
  duplicated_blocks : int;
}

(* Apply a hand-rolled transform (instead of a stock pipeline config) to
   the app's first loop, then run the standard late pipeline and simulate. *)
let variants : (string * (Func.t -> Value.label -> int)) list =
  [
    ( "u&u-2 (unroll then unmerge)",
      fun f header ->
        let o = Uu.uu_loop f ~header ~factor:2 in
        o.Uu.duplicated_blocks );
    ( "unmerge then unroll-2",
      fun f header ->
        let o = Unmerge.unmerge_loop f ~header ~budget:Uu.default_block_budget in
        ignore (Uu_opt.Unroll.unroll_loop f ~header ~factor:2);
        Hashtbl.replace f.Func.pragmas header Func.Pragma_nounroll;
        o.Unmerge.duplicated_blocks );
    ( "DBDS one level",
      fun f header ->
        let o = Unmerge.dbds_unmerge_loop f ~header ~budget:Uu.default_block_budget in
        Hashtbl.replace f.Func.pragmas header Func.Pragma_nounroll;
        o.Unmerge.duplicated_blocks );
    ( "u&u-2 selective",
      fun f header ->
        let o = Uu.uu_loop ~selective:true f ~header ~factor:2 in
        o.Uu.duplicated_blocks );
  ]

let late_pipeline =
  (* Everything of the standard pipeline after the structural transform. *)
  Pipelines.pipeline ~targets:(Pipelines.Only []) Pipelines.Baseline

let dup_stat = "ablation.duplicated_blocks"

(* Build the transformed module and wrap it as a [Runner.compiled], so the
   job layer simulates, validates, and caches it exactly like a stock
   configuration. The duplicated-block count rides along in the
   response's stats. *)
let compile_variant (app : Uu_benchmarks.App.t) transform () =
  let m =
    Uu_frontend.Lower.compile ~name:app.Uu_benchmarks.App.name
      app.Uu_benchmarks.App.source
  in
  (* Transform only the first kernel's first loop, by hand. *)
  let dup = ref 0 in
  List.iteri
    (fun i f ->
      if i = 0 then begin
        ignore (Uu_opt.Pass.exec ~options:Uu_opt.Pass.unverified Pipelines.early_passes f);
        (match Uu_analysis.Loops.loops (Uu_analysis.Loops.analyze f) with
        | l :: _ -> dup := transform f l.Uu_analysis.Loops.header
        | [] -> ());
        ignore (Uu_opt.Pass.exec late_pipeline f)
      end
      else ignore (Pipelines.optimize Pipelines.Baseline f))
    m.Func.funcs;
  Runner.make_compiled ~stats:[ (dup_stat, !dup) ] m

let run ?(apps = [ "bezier-surface"; "rainflow"; "XSBench" ]) ?jobs ?sim_jobs ?cache () =
  let apps =
    List.filter_map (fun name -> Uu_benchmarks.Registry.find name) apps
  in
  let per_app =
    List.map
      (fun (app : Uu_benchmarks.App.t) ->
        Jobs.job app Pipelines.Baseline
        :: List.map
             (fun (variant, transform) ->
               Jobs.custom ~name:("ablation:" ^ variant)
                 ~compile:(compile_variant app transform) app Pipelines.Baseline)
             variants)
      apps
  in
  let results = Jobs.run_all ?jobs ?sim_jobs ?cache (List.concat per_app) in
  let rec rows apps results =
    match (apps, results) with
    | [], [] -> []
    | (app : Uu_benchmarks.App.t) :: apps', baseline_r :: rest ->
      let variant_rs, results' =
        let rec split n rs =
          if n = 0 then ([], rs)
          else
            match rs with
            | r :: rs' ->
              let taken, left = split (n - 1) rs' in
              (r :: taken, left)
            | [] -> assert false
        in
        split (List.length variants) rest
      in
      let baseline = List.hd (Jobs.measurements_exn baseline_r) in
      List.map2
        (fun (variant, _) variant_r ->
          let m = List.hd (Jobs.measurements_exn variant_r) in
          {
            app = app.Uu_benchmarks.App.name;
            variant;
            speedup = baseline.Runner.kernel_ms /. m.Runner.kernel_ms;
            code_ratio =
              float_of_int m.Runner.code_bytes
              /. float_of_int baseline.Runner.code_bytes;
            duplicated_blocks =
              (match List.assoc_opt dup_stat m.Runner.stats with
              | Some n -> n
              | None -> 0);
          })
        variants variant_rs
      @ rows apps' results'
    | _ -> assert false
  in
  rows apps results

let render rows =
  Report.render_table
    ~header:[ "App"; "Variant"; "Speedup"; "Code"; "Dup blocks" ]
    (List.map
       (fun r ->
         [
           r.app; r.variant; Report.ratio r.speedup; Report.ratio r.code_ratio;
           string_of_int r.duplicated_blocks;
         ])
       rows)
