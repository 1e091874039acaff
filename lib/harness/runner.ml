open Uu_support
open Uu_ir
open Uu_core
open Uu_benchmarks
open Uu_gpusim
module Request = Uu_serve.Request
module Response = Uu_serve.Response

type loop_ref = {
  kernel : string;
  loop_id : int;
  header : Value.label;
}

(* Workload data is fixed across runs (the paper reruns the same binary
   and input 20 times; only hardware noise varies). *)
let workload_seed = 0x5EEDL

let cycles_per_ms = 5_000.0

(* Modeled compiler throughput: pass-work units (instructions walked per
   executed pass, see [Uu_opt.Pass.report.work]) per modeled second.
   Using the deterministic work metric instead of wall-clock pass times
   keeps compile-time ratios identical between serial, parallel, and
   cache-served runs. *)
let compile_work_per_second = 200_000.0

(* Modeled PCIe-ish transfer rate, in bytes per simulated millisecond. *)
let transfer_bytes_per_ms = 65_536.0

(* Every loop of every kernel of [text], numbered after the pipeline's
   early phase: the ids [uu loops] prints and the headers the transform
   will see. *)
let inventory ~name text =
  let m = Uu_frontend.Lower.compile ~name text in
  List.concat_map
    (fun f ->
      ignore (Uu_opt.Pass.exec ~options:Uu_opt.Pass.unverified Pipelines.early_passes f);
      List.map
        (fun (l : Uu_analysis.Loops.loop) ->
          { kernel = f.Func.name; loop_id = l.id; header = l.header })
        (Uu_analysis.Loops.loops (Uu_analysis.Loops.analyze f)))
    m.Func.funcs

let loop_inventory (app : App.t) = inventory ~name:app.App.name app.App.source

(* --- compiling a request --------------------------------------------- *)

type compiled = {
  modul : Func.modul;
  work : int;
  remarks : Remark.t list;
  stats : (string * int) list;
  decode : Decode.cache;
      (* per-(function, device) decode memo: the module is frozen after
         compilation, so repeated simulations (a kernel launched more
         than once, a warm daemon) decode each kernel once *)
}

let modul c = c.modul

let make_compiled ?(stats = []) modul =
  { modul; work = 0; remarks = []; stats; decode = Decode.create_cache () }

let resolve_source = function
  | Request.Inline { name; text } -> Ok (name, text)
  | Request.App name -> (
    match Registry.find name with
    | Some app -> Ok (app.App.name, app.App.source)
    | None ->
      Error
        (Printf.sprintf "%s is not a bundled application (known apps: %s)" name
           (String.concat ", " Registry.names)))

let compile_module ?timeout (r : Request.t) ~name text =
  let m = Uu_frontend.Lower.compile ~name text in
  (match r.kernel with
  | Some k when Func.find_func m k = None ->
    failwith (Printf.sprintf "%s has no kernel %s" name k)
  | _ -> ());
  let loops = match r.loop with None -> [] | Some _ -> inventory ~name text in
  (* Loop N of each kernel in scope, by that kernel's own numbering; a
     kernel out of scope, or without a loop N, gets no transform. *)
  let targets (f : Func.t) =
    match (r.kernel, r.loop) with
    | Some k, _ when k <> f.Func.name -> Pipelines.Only []
    | _, None -> Pipelines.All_loops
    | _, Some id ->
      Pipelines.Only
        (List.filter_map
           (fun l -> if l.kernel = f.Func.name && l.loop_id = id then Some l.header else None)
           loops)
  in
  let sink = Remark.create () in
  let deadline = Option.map (fun budget -> Clock.now () +. budget) timeout in
  let work, stats =
    List.fold_left
      (fun (work, stats) f ->
        (* The budget spans all kernels: each kernel gets what is left of
           the deadline, not a fresh allowance. *)
        let timeout = Option.map (fun d -> Float.max 0.001 (d -. Clock.now ())) deadline in
        let options = { Uu_opt.Pass.default_options with remarks = Some sink; timeout } in
        let report = Pipelines.optimize ~targets:(targets f) ~options r.config f in
        (work + report.Uu_opt.Pass.work, Statistic.merge stats report.Uu_opt.Pass.stats))
      (0, []) m.Func.funcs
  in
  { modul = m; work; remarks = Remark.remarks sink; stats; decode = Decode.create_cache () }

let compile_request ?timeout (r : Request.t) =
  match (r.variant, resolve_source r.source) with
  | Some v, _ ->
    Error (Printf.sprintf "variant %s: no pipeline builds it; its caller supplies the module" v)
  | None, (Error _ as e) -> e
  | None, Ok (name, text) -> (
    let error what (pos : Uu_frontend.Ast.pos) msg =
      Error (Printf.sprintf "%s at %d:%d: %s" what pos.line pos.col msg)
    in
    match compile_module ?timeout r ~name text with
    | c -> Ok c
    | exception Uu_frontend.Lexer.Error (msg, pos) -> error "lex error" pos msg
    | exception Uu_frontend.Parser.Error (msg, pos) -> error "parse error" pos msg
    | exception Uu_frontend.Lower.Error (msg, pos) -> error "error" pos msg
    | exception (Uu_opt.Pass.Timeout _ as e) -> Error (Printexc.to_string e)
    | exception Failure msg -> Error msg)

(* --- responding ------------------------------------------------------ *)

(* One launch of [f] under every run's noise stream, shared by the
   synthetic-buffer and the schedule arms: the request's engine, races
   and tracing, a fresh collector per launch. Races and traces do not
   depend on noise, so every run shares one report. Run [k]'s entry is
   [Error] when its runaway guard tripped (see [Kernel.exec_runs]). *)
let launch (r : Request.t) (c : compiled) ~sim_jobs ~noises mem (f : Func.t) ~grid_dim
    ~block_dim ~args =
  let races = if r.check_races then Some (Racecheck.create ()) else None in
  let tracer = if r.trace then Some (Trace.create ()) else None in
  let config =
    {
      Kernel.default_config with
      engine = r.engine;
      races;
      tracer;
      sim_jobs;
      decode_cache = Some c.decode;
    }
  in
  let results = Kernel.exec_runs ~config ~noises mem f ~grid_dim ~block_dim ~args in
  let races = Option.map Racecheck.report races in
  let trace = Option.map (Trace.render f) tracer in
  Array.map
    (Result.map (fun (result : Kernel.result) : Response.measurement ->
         {
           label = f.Func.name;
           kernel_cycles = result.Kernel.kernel_cycles;
           code_bytes = result.Kernel.code_bytes;
           metrics = result.Kernel.metrics;
           races;
           trace;
         }))
    results

(* The synthetic-buffer argument protocol `uu run` has always used: one
   shared rng (seed 7) across all kernels of the module, f64 buffers
   filled with uniform draws, i64 buffers zeroed, int scalars carrying
   the element count. *)
let synthetic_args ~elems rng mem (f : Func.t) =
  List.map
    (fun (p : Func.param) ->
      match p.pty with
      | Types.Ptr Types.F64 ->
        Kernel.Buf
          (Memory.alloc_f64 mem (Array.init elems (fun _ -> Rng.float rng 1.0)))
      | Types.Ptr Types.I64 -> Kernel.Buf (Memory.zeros_i64 mem elems)
      | Types.F64 -> Kernel.Float_arg 1.0
      | Types.I64 | Types.I32 | Types.I1 -> Kernel.Int_arg (Int64.of_int elems)
      | Types.Ptr _ | Types.Void ->
        failwith ("unsupported parameter type for " ^ p.pname))
    f.Func.params

(* Every run of the app's launch schedule in one pass: a fresh workload
   from the fixed seed, every launch in order under all runs' noise
   streams, then the host oracle once — noise reaches only time, so the
   runs share one final memory. Each run's rng draws its run factor
   first, then one [next] per launch inside [Kernel], exactly as when
   the runs were simulated one by one. A run over the cycle budget fails
   the request only once the earlier runs would have passed: after the
   oracle, with the lowest such run's message. *)
let schedule_runs (r : Request.t) (c : compiled) ~sim_jobs (app : App.t) noise_seeds :
    Response.run list =
  let instance = app.App.setup (Rng.create workload_seed) in
  let noises = Array.of_list (List.map (Option.map Rng.create) noise_seeds) in
  (* Run-level clock/DVFS jitter on top of the per-warp memory jitter;
     together they give the paper's run-to-run RSDs (SIV-B footnote on
     nvidia-smi clock pinning). *)
  let run_factors =
    Array.map
      (function
        | Some rng -> Float.max 0.9 (Rng.gaussian rng ~mean:1.0 ~stddev:0.015)
        | None -> 1.0)
      noises
  in
  let runs = Array.length noises in
  let totals = Array.init runs (fun _ -> Metrics.create ()) in
  let cycles = Array.make runs 0.0 in
  let overrun = Array.make runs None in
  let code = ref app.App.rest_bytes in
  let seen_kernels = Hashtbl.create 7 in
  let launches =
    List.map
      (fun (l : App.launch) ->
        let f =
          match Func.find_func c.modul l.App.kernel with
          | Some f -> f
          | None -> failwith (Printf.sprintf "%s: unknown kernel %s" app.App.name l.App.kernel)
        in
        let results =
          launch r c ~sim_jobs ~noises instance.App.mem f ~grid_dim:l.App.grid_dim
            ~block_dim:l.App.block_dim ~args:l.App.args
        in
        Array.iteri
          (fun run -> function
            | Ok (m : Response.measurement) ->
              Metrics.add totals.(run) m.metrics;
              cycles.(run) <- cycles.(run) +. m.kernel_cycles
            | Error msg -> if overrun.(run) = None then overrun.(run) <- Some msg)
          results;
        (match results.(0) with
        | Ok m when not (Hashtbl.mem seen_kernels l.App.kernel) ->
          Hashtbl.replace seen_kernels l.App.kernel ();
          code := !code + m.code_bytes
        | Ok _ | Error _ -> ());
        results)
      instance.App.launches
  in
  (match instance.App.check () with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "%s: oracle check failed: %s" app.App.name msg));
  Array.iter (Option.iter failwith) overrun;
  List.init runs (fun run : Response.run ->
      {
        kernel_ms = cycles.(run) *. run_factors.(run) /. cycles_per_ms;
        transfer_ms = float_of_int instance.App.transfer_bytes /. transfer_bytes_per_ms;
        code_bytes = !code;
        metrics = totals.(run);
        launches =
          (if r.check_races || r.trace then
             List.map (fun results -> Result.get_ok results.(run)) launches
           else []);
      })

let respond ?(default_sim_jobs = 1) (r : Request.t) (c : compiled) : Response.t =
  let sim_jobs =
    match r.sim_jobs with Some n -> max 1 n | None -> max 1 default_sim_jobs
  in
  let body () =
    match r.mode with
    | Request.Compile ->
      let funcs = c.modul.Func.funcs in
      Response.Compiled
        {
          ir = String.concat "" (List.map Printer.func_to_string funcs);
          instr_count = List.fold_left (fun acc f -> acc + Func.instr_count f) 0 funcs;
        }
    | Request.Run ->
      let mem = Memory.create () in
      let rng = Rng.create 7L in
      let noises = [| Option.map Rng.create r.noise_seed |] in
      Response.Measured
        (List.map
           (fun f ->
             match
               (launch r c ~sim_jobs ~noises mem f ~grid_dim:r.grid_dim
                  ~block_dim:r.block_dim ~args:(synthetic_args ~elems:r.elems rng mem f)).(0)
             with
             | Ok m -> m
             | Error msg -> failwith msg)
           c.modul.Func.funcs)
    | Request.Schedule protocol ->
      let app =
        match r.source with
        | Request.App name -> Registry.find name
        | Request.Inline _ -> None
      in
      let app =
        match app with
        | Some app -> app
        | None ->
          failwith
            (Printf.sprintf "%s: a schedule needs a bundled application"
               (Request.source_name r.source))
      in
      let seeds =
        match protocol with
        | Request.Once -> [ r.noise_seed ]
        | Request.Noisy { runs } ->
          let key = Request.key r in
          List.init runs (fun i -> Some (Request.noise_seed ~key i))
      in
      Response.Scheduled (schedule_runs r c ~sim_jobs app seeds)
  in
  match body () with
  | body ->
    Ok
      {
        config = r.config;
        body;
        compile_seconds = float_of_int c.work /. compile_work_per_second;
        remarks = c.remarks;
        stats = c.stats;
      }
  | exception (Failure msg | Invalid_argument msg) -> Error msg

let run_request ?default_sim_jobs ?(compile = compile_request ?timeout:None) r =
  match Request.check r with
  | Error _ as e -> e
  | Ok () -> (
    match compile r with
    | Error msg -> Error msg
    | Ok c -> respond ?default_sim_jobs r c)

(* --- schedule measurements ------------------------------------------- *)

type measurement = {
  config : Pipelines.config;
  kernel_ms : float;
  transfer_ms : float;
  code_bytes : int;
  compile_seconds : float;
  metrics : Metrics.t;
  stats : (string * int) list;
}

let measurements (ok : Response.ok) =
  match ok.body with
  | Response.Scheduled runs ->
    List.map
      (fun (run : Response.run) ->
        {
          config = ok.config;
          kernel_ms = run.kernel_ms;
          transfer_ms = run.transfer_ms;
          code_bytes = run.code_bytes;
          compile_seconds = ok.compile_seconds;
          metrics = run.metrics;
          stats = ok.stats;
        })
      runs
  | Response.Compiled _ | Response.Measured _ -> []

let schedule_request ?(protocol = Request.Once) ?target (app : App.t) config =
  Request.make ~mode:(Request.Schedule protocol)
    ?kernel:(Option.map (fun t -> t.kernel) target)
    ?loop:(Option.map (fun t -> t.loop_id) target)
    (Request.App app.App.name) config

let run_exn ?noise_seed ?engine ?sim_jobs ?target app config =
  let request =
    { (schedule_request ?target app config) with noise_seed; sim_jobs;
      engine = Option.value engine ~default:Kernel.Decoded }
  in
  match run_request request with
  | Ok ok -> List.hd (measurements ok)
  | Error msg -> failwith msg
