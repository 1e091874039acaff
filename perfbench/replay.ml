(* The traced replay: each workload re-driven through the layers' public
   functions, with a span around every call into a layer. The replay must
   produce the same results as the untraced harness path (main.ml checks
   the same digests on both), so the spans describe the same work. *)

open Uu_support
open Uu_ir
open Uu_core
open Uu_benchmarks
open Uu_gpusim
module Runner = Uu_harness.Runner
module Span = Perfbench.Span

let span = Span.with_

(* --- correctness witnesses ------------------------------------------- *)

let md5 s = Digest.to_hex (Digest.string s)

(* Rows in registry order, so the digest does not depend on the order the
   apps were submitted in. *)
let registry_index name =
  let rec go i = function
    | [] -> max_int
    | (a : App.t) :: rest -> if a.App.name = name then i else go (i + 1) rest
  in
  go 0 Registry.all

let table1_digest (rows : Uu_harness.Table1.row list) =
  let by_name (a : Uu_harness.Table1.row) (b : Uu_harness.Table1.row) =
    compare (registry_index a.name) (registry_index b.name)
  in
  md5 (Uu_harness.Table1.render (List.stable_sort by_name rows))

let point_line (p : Uu_harness.Sweep.point) =
  Printf.sprintf "%s|%s|%s|%.17g|%.17g|%.17g\n" p.app
    (match p.loop with
    | None -> "-"
    | Some l -> Printf.sprintf "%s#%d@%d" l.Runner.kernel l.Runner.loop_id l.Runner.header)
    (Pipelines.config_to_string p.config)
    p.speedup p.code_ratio p.compile_ratio

let sweep_digest (points : Uu_harness.Sweep.point list) =
  let by_app (a : Uu_harness.Sweep.point) (b : Uu_harness.Sweep.point) =
    compare (registry_index a.app) (registry_index b.app)
  in
  md5 (String.concat "" (List.map point_line (List.stable_sort by_app points)))

let metrics_digest m = md5 (Format.asprintf "%a" Metrics.pp m)

(* --- the serve hit set and the shard input ---------------------------- *)

(* bench serve's mix: 4 apps x 2 configs x 2 shapes *)
let hit_set =
  Array.of_list
    (List.concat_map
       (fun app ->
         List.concat_map
           (fun config ->
             List.map
               (fun (grid, block, elems) ->
                 Uu_serve.Request.make ~grid_dim:grid ~block_dim:block ~elems
                   (Uu_serve.Request.App app) config)
               [ (64, 32, 2048); (128, 32, 4096) ])
           [ Pipelines.Baseline; Pipelines.Uu 4 ])
       [ "stencil1d"; "treduce"; "complex"; "bezier-surface" ])

(* Fresh identities run on every hit-set module but bezier-surface's: one
   bezier-surface execution takes 0.3-1.8 s against 1-21 ms for the others,
   so a handful of them would make up the whole tail. *)
let fresh_bases =
  Array.of_list
    (List.filter
       (fun i -> Uu_serve.Request.source_name hit_set.(i).Uu_serve.Request.source <> "bezier-surface")
       (List.init (Array.length hit_set) Fun.id))

let fresh_request i ~noise_seed =
  { hit_set.(fresh_bases.(i)) with Uu_serve.Request.noise_seed = Some noise_seed }

(* bench sim-parallel's input: XSBench under u&u-4 at 512 blocks per launch *)
let xsbench = Option.get (Registry.find "XSBench")
let shard_elems = 65536

(* --- layer calls, one span each -------------------------------------- *)

(* Runner's fixed workload seed and its modelled transfer and compile
   rates. They are private to Runner; a drift here shows up as a digest
   mismatch of the traced run, never silently. *)
let workload_seed = 0x5EEDL
let transfer_bytes_per_ms = 65_536.0
let compile_work_per_second = 200_000.0

let lower ~name source =
  let m = span "frontend.lower" (fun () -> Uu_frontend.Lower.compile ~name source) in
  Span.count "frontend.lower_calls" 1;
  Span.count "frontend.ir_instrs"
    (List.fold_left (fun acc f -> acc + Func.instr_count f) 0 m.Func.funcs);
  m

let baseline_pass_names =
  List.map (fun (p : Uu_opt.Pass.t) -> p.name) (Pipelines.pipeline Pipelines.Baseline)

let sanitize s =
  String.map
    (fun c ->
      match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> c | _ -> '_')
    s

(* The structural transform's pass name varies with the config (factor,
   targets); every other element keeps its own name. *)
let pass_label (p : Uu_opt.Pass.t) =
  if List.mem p.name baseline_pass_names then sanitize p.name else "transform"

let pass_labels = List.sort_uniq compare ("transform" :: List.map sanitize baseline_pass_names)

let run_pass p f = span ("opt.pass." ^ pass_label p) (fun () -> Uu_opt.Pass.exec ~options:Uu_opt.Pass.unverified [ p ] f)

(* [Pipelines.optimize] under the manager's default options, one pass at
   a time: verification after each changing pass is its own span. *)
let optimize ~targets config f =
  Span.count "opt.pipeline_calls" 1;
  let work =
    List.fold_left
      (fun work p ->
        let r = run_pass p f in
        if r.Uu_opt.Pass.changed then span "opt.verify" (fun () -> Uu_opt.Pass.verify_now f);
        work + r.Uu_opt.Pass.work)
      0
      (Pipelines.pipeline ~targets config)
  in
  Span.count "opt.work" work;
  Span.count "opt.ir_instrs_after" (Func.instr_count f);
  work

(* [Runner.loop_inventory] *)
let inventory (app : App.t) =
  let m = lower ~name:app.App.name app.App.source in
  List.concat_map
    (fun f ->
      List.iter (fun p -> ignore (run_pass p f)) Pipelines.early_passes;
      let forest = span "analysis.loops" (fun () -> Uu_analysis.Loops.analyze f) in
      List.map
        (fun (l : Uu_analysis.Loops.loop) ->
          { Runner.kernel = f.Func.name; loop_id = l.id; header = l.header })
        (Uu_analysis.Loops.loops forest))
    m.Func.funcs

(* [Runner.compile]: the module and its pass work *)
let compile ?target (app : App.t) config =
  let m = lower ~name:app.App.name app.App.source in
  let work =
    List.fold_left
      (fun acc f ->
        let targets =
          match target with
          | None -> Pipelines.All_loops
          | Some (t : Runner.loop_ref) ->
            if t.kernel = f.Func.name then Pipelines.Only [ t.header ] else Pipelines.Only []
        in
        acc + optimize ~targets config f)
      0 m.Func.funcs
  in
  (m, work)

let exec ~config mem f ~grid_dim ~block_dim ~args =
  let r =
    span "gpusim.exec" (fun () -> Kernel.exec ~config mem f ~grid_dim ~block_dim ~args)
  in
  Span.count "gpusim.launches" 1;
  Span.count "gpusim.warp_instrs" r.Kernel.metrics.Metrics.warp_instrs;
  r

let decode cache f =
  span "gpusim.decode" (fun () ->
      ignore (Decode.decode_cached cache Kernel.default_config.Kernel.device f));
  Span.count "gpusim.decode_calls" 1

type sim = { kernel_ms : float; transfer_ms : float; code_bytes : int; metrics : Metrics.t }

let find_kernel m name =
  match Func.find_func m name with Some f -> f | None -> failwith ("unknown kernel " ^ name)

(* [Runner.simulate], with the decode of each kernel split out of its
   first launch. [decoded] lists the kernels [cache] already holds. *)
let simulate ?noise_seed ~cache ~decoded (app : App.t) m =
  let instance = span "benchmarks.setup" (fun () -> app.App.setup (Rng.create workload_seed)) in
  let noise = Option.map Rng.create noise_seed in
  let run_factor =
    match noise with
    | Some rng -> Float.max 0.9 (Rng.gaussian rng ~mean:1.0 ~stddev:0.015)
    | None -> 1.0
  in
  let config = { Kernel.default_config with noise; decode_cache = Some cache } in
  let total = Metrics.create () in
  let cycles = ref 0.0 in
  let code = ref app.App.rest_bytes in
  let seen = Hashtbl.create 7 in
  List.iter
    (fun (l : App.launch) ->
      let f = find_kernel m l.App.kernel in
      if not (Hashtbl.mem decoded l.App.kernel) then begin
        Hashtbl.replace decoded l.App.kernel ();
        decode cache f
      end;
      let r =
        exec ~config instance.App.mem f ~grid_dim:l.App.grid_dim ~block_dim:l.App.block_dim
          ~args:l.App.args
      in
      Metrics.add total r.Kernel.metrics;
      cycles := !cycles +. r.Kernel.kernel_cycles;
      if not (Hashtbl.mem seen l.App.kernel) then begin
        Hashtbl.replace seen l.App.kernel ();
        code := !code + r.Kernel.code_bytes
      end)
    instance.App.launches;
  (match span "benchmarks.check" instance.App.check with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "%s: oracle check failed: %s" app.App.name msg));
  {
    kernel_ms = !cycles *. run_factor /. Runner.cycles_per_ms;
    transfer_ms = float_of_int instance.App.transfer_bytes /. transfer_bytes_per_ms;
    code_bytes = !code;
    metrics = total;
  }

(* A job on the pool, as [Jobs.run_all] runs it. The root span's self
   time is the harness's own share. *)
let job f = span "harness.job" f

(* --- table1 ------------------------------------------------------------ *)

let table1 ~jobs ~runs apps =
  let specs =
    List.concat_map
      (fun app ->
        [
          (app, Pipelines.Baseline, None);
          (app, Pipelines.Baseline, Some runs);
          (app, Pipelines.Uu_heuristic, Some runs);
        ])
      apps
  in
  let results =
    Parallel.map_result ~jobs
      (fun (app, config, noisy) ->
        job (fun () ->
            let m, _ = compile app config in
            let cache = Decode.create_cache () and decoded = Hashtbl.create 7 in
            match noisy with
            | None -> [ simulate ~cache ~decoded app m ]
            | Some runs ->
              let key =
                Uu_harness.Jobs.key
                  (Uu_harness.Jobs.job ~protocol:(Uu_harness.Jobs.Noisy { runs }) app config)
              in
              List.init runs (fun i ->
                  simulate ~noise_seed:(Uu_harness.Jobs.noise_seed ~key i) ~cache ~decoded
                    app m)))
      specs
  in
  let loops =
    Parallel.map ~jobs (fun app -> span "harness.job" (fun () -> List.length (inventory app))) apps
  in
  let failed = List.length (List.filter Result.is_error results) in
  let ok = function Ok v -> v | Error e -> raise e in
  let rec rows apps loops results =
    match (apps, loops, results) with
    | (app : App.t) :: apps', loops :: loops', b :: bn :: hn :: results' ->
      let base = List.hd (ok b) in
      let times r = List.map (fun s -> s.kernel_ms) (ok r) in
      {
        Uu_harness.Table1.name = app.App.name;
        category = app.App.category;
        cli = app.App.cli;
        loops;
        compute_fraction = base.kernel_ms /. (base.kernel_ms +. base.transfer_ms);
        baseline_mean_ms = Stats.mean (times bn);
        baseline_rsd = Stats.rsd (times bn);
        heuristic_mean_ms = Stats.mean (times hn);
        heuristic_rsd = Stats.rsd (times hn);
      }
      :: rows apps' loops' results'
    | _ -> []
  in
  let rows = if failed = 0 then rows apps loops results else [] in
  (rows, List.length specs, failed)

(* --- sweep ------------------------------------------------------------- *)

let sweep ~jobs apps =
  let inventories = Parallel.map ~jobs (fun app -> job (fun () -> inventory app)) apps in
  let per_app =
    List.map2
      (fun app loops ->
        ( app,
          (Pipelines.Baseline, None)
          :: (Pipelines.Uu_heuristic, None)
          :: List.concat_map
               (fun loop -> List.map (fun c -> (c, Some loop)) Uu_harness.Sweep.loop_configs)
               loops ))
      apps inventories
  in
  let specs = List.concat_map (fun (app, js) -> List.map (fun (c, t) -> (app, c, t)) js) per_app in
  let results =
    Parallel.map_result ~jobs
      (fun (app, config, target) ->
        job (fun () ->
            let m, work = compile ?target app config in
            let cache = Decode.create_cache () and decoded = Hashtbl.create 7 in
            (simulate ~cache ~decoded app m, work)))
      specs
  in
  let failed = List.length (List.filter Result.is_error results) in
  (* [Sweep.point_of], consuming the results app by app in emission order *)
  let point (app : App.t) (b, bwork) (config, loop) (s, work) =
    let bsec = float_of_int bwork /. compile_work_per_second in
    let sec = float_of_int work /. compile_work_per_second in
    {
      Uu_harness.Sweep.app = app.App.name;
      loop;
      config;
      speedup = b.kernel_ms /. s.kernel_ms;
      code_ratio = float_of_int s.code_bytes /. float_of_int b.code_bytes;
      compile_ratio = (if bsec > 0.0 then sec /. bsec else 1.0);
    }
  in
  let rec points per_app results =
    match per_app with
    | [] -> []
    | (app, js) :: per_app' ->
      let mine = List.filteri (fun i _ -> i < List.length js) results in
      let rest = List.filteri (fun i _ -> i >= List.length js) results in
      let pts =
        match mine with
        | Ok b :: others ->
          List.concat
            (List.map2
               (fun r spec -> match r with Ok s -> [ point app b spec s ] | Error _ -> [])
               others (List.tl js))
        | _ -> []
      in
      pts @ points per_app' rest
  in
  (points per_app results, List.length specs, failed)
