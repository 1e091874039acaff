open Uu_core

type point = {
  app : string;
  loop : Runner.loop_ref option;
  config : Pipelines.config;
  speedup : float;
  code_ratio : float;
  compile_ratio : float;
}

type t = {
  points : point list;
  baselines : (string * Runner.measurement) list;
  failures : Jobs.failure list;
}

let loop_configs =
  [
    Pipelines.Unroll 2; Pipelines.Unroll 4; Pipelines.Unroll 8;
    Pipelines.Unmerge;
    Pipelines.Uu 2; Pipelines.Uu 4; Pipelines.Uu 8;
  ]

let point_of ~app ~loop ~baseline (m : Runner.measurement) =
  {
    app;
    loop;
    config = m.Runner.config;
    speedup = baseline.Runner.kernel_ms /. m.Runner.kernel_ms;
    code_ratio =
      float_of_int m.Runner.code_bytes /. float_of_int baseline.Runner.code_bytes;
    compile_ratio =
      (if baseline.Runner.compile_seconds > 0.0 then
         m.Runner.compile_seconds /. baseline.Runner.compile_seconds
       else 1.0);
  }

(* The whole matrix as one job list: per app a baseline job, a whole-app
   heuristic job, and one job per loop x configuration. Assembly walks
   the job results in the same order the jobs were emitted, so the point
   list is identical whether the jobs ran serially, on N domains, or out
   of the cache. *)
let run ?(apps = Uu_benchmarks.Registry.all) ?jobs ?sim_jobs ?cache ?engine () =
  let inventories = Uu_support.Parallel.map ?jobs Runner.loop_inventory apps in
  let per_app =
    List.map2
      (fun (app : Uu_benchmarks.App.t) loops ->
        let baseline = Jobs.job app Pipelines.Baseline in
        let heuristic = Jobs.job app Pipelines.Uu_heuristic in
        let targeted =
          List.concat_map
            (fun loop -> List.map (fun c -> Jobs.job ~target:loop app c) loop_configs)
            loops
        in
        (app, baseline :: heuristic :: targeted))
      apps inventories
  in
  let results = Jobs.run_all ?jobs ?sim_jobs ?cache ?engine (List.concat_map snd per_app) in
  (* Consume results in emission order, app by app. *)
  let remaining = ref results in
  let take () =
    match !remaining with
    | r :: rest ->
      remaining := rest;
      r
    | [] -> assert false
  in
  let baselines = ref [] in
  let points = ref [] in
  let failures = ref [] in
  (* Every job is a Once schedule: one run per response. *)
  let first (r : Jobs.result) =
    Result.map (fun ok -> List.hd (Runner.measurements ok)) r.Jobs.outcome
  in
  List.iter
    (fun ((app : Uu_benchmarks.App.t), app_jobs) ->
      let name = app.Uu_benchmarks.App.name in
      match List.map (fun _ -> take ()) app_jobs with
      | baseline_r :: rest -> (
        match first baseline_r with
        | Error f ->
          (* No baseline, no ratios: every dependent point is dropped and
             the baseline failure reported once. *)
          failures := f :: !failures;
          List.iter
            (fun (r : Jobs.result) ->
              Result.iter_error (fun f -> failures := f :: !failures) r.Jobs.outcome)
            rest
        | Ok baseline ->
          baselines := (name, baseline) :: !baselines;
          List.iter
            (fun (r : Jobs.result) ->
              match first r with
              | Error f -> failures := f :: !failures
              | Ok m ->
                points :=
                  point_of ~app:name ~loop:r.Jobs.rjob.Jobs.target ~baseline m
                  :: !points)
            rest)
      | [] -> ())
    per_app;
  {
    points = List.rev !points;
    baselines = List.rev !baselines;
    failures = List.rev !failures;
  }

let points_for t ?config ?app () =
  (* Configurations compare by canonical string, so a parsed config (say
     [config_of_string "uu-2"]) selects the same points as the value it
     round-trips to. *)
  let config_key = Option.map Pipelines.config_to_string config in
  List.filter
    (fun p ->
      (match config_key with
      | Some c -> Pipelines.config_to_string p.config = c
      | None -> true)
      && match app with Some a -> p.app = a | None -> true)
    t.points
