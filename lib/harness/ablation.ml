open Uu_core

type row = {
  app : string;
  variant : string;
  speedup : float;
  code_ratio : float;
  duplicated_blocks : int;
}

let variants =
  [
    ("u&u-2 (unroll then unmerge)", Pipelines.Uu 2);
    ("unmerge then unroll-2", Pipelines.Unmerge_then_unroll 2);
    ("DBDS one level", Pipelines.Dbds);
    ("u&u-2 selective", Pipelines.Uu_selective 2);
  ]

(* Per app: the whole-app baseline, then each variant on loop 0 of the
   first kernel. A variant's job is the sweep's job for that loop and
   configuration whenever the sweep runs it (u&u-2), so the two share
   cache entries. *)
let app_jobs (app : Uu_benchmarks.App.t) =
  let target = List.hd (Runner.loop_inventory app) in
  Jobs.job app Pipelines.Baseline
  :: List.map (fun (_, config) -> Jobs.job ~target app config) variants

let run ?(apps = [ "bezier-surface"; "rainflow"; "XSBench" ]) ?jobs ?sim_jobs ?cache () =
  let apps = List.filter_map Uu_benchmarks.Registry.find apps in
  let results =
    ref (Jobs.run_all ?jobs ?sim_jobs ?cache (List.concat_map app_jobs apps))
  in
  let take () =
    match !results with
    | r :: rest ->
      results := rest;
      List.hd (Jobs.measurements_exn r)
    | [] -> assert false
  in
  List.concat_map
    (fun (app : Uu_benchmarks.App.t) ->
      let baseline = take () in
      List.map
        (fun (variant, _) ->
          let m = take () in
          {
            app = app.Uu_benchmarks.App.name;
            variant;
            speedup = baseline.Runner.kernel_ms /. m.Runner.kernel_ms;
            code_ratio =
              float_of_int m.Runner.code_bytes
              /. float_of_int baseline.Runner.code_bytes;
            duplicated_blocks =
              Option.value ~default:0
                (List.assoc_opt "unmerge.paths_duplicated" m.Runner.stats);
          })
        variants)
    apps

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
