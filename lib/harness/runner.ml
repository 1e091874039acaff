open Uu_support
open Uu_ir
open Uu_core
open Uu_benchmarks
open Uu_gpusim

type loop_ref = {
  kernel : string;
  loop_id : int;
  header : Value.label;
}

(* Workload data is fixed across runs (the paper reruns the same binary
   and input 20 times; only hardware noise varies). *)
let workload_seed = 0x5EEDL

let compile_app (app : App.t) = Uu_frontend.Lower.compile ~name:app.App.name app.App.source

let loop_inventory (app : App.t) =
  let m = compile_app app in
  List.concat_map
    (fun f ->
      ignore (Uu_opt.Pass.exec ~options:Uu_opt.Pass.unverified Pipelines.early_passes f);
      let forest = Uu_analysis.Loops.analyze f in
      List.map
        (fun (l : Uu_analysis.Loops.loop) ->
          { kernel = f.Func.name; loop_id = l.id; header = l.header })
        (Uu_analysis.Loops.loops forest))
    m.Func.funcs

type measurement = {
  config : Pipelines.config;
  target : loop_ref option;
  kernel_ms : float;
  transfer_ms : float;
  code_bytes : int;
  compile_seconds : float;
  metrics : Metrics.t;
  check : (unit, string) result;
  remarks : Remark.t list;
  stats : (string * int) list;
}

let cycles_per_ms = 5_000.0

(* Modeled compiler throughput: pass-work units (instructions walked per
   executed pass, see [Uu_opt.Pass.report.work]) per modeled second.
   Using the deterministic work metric instead of wall-clock pass times
   keeps compile-time ratios identical between serial, parallel, and
   cache-served runs. *)
let compile_work_per_second = 200_000.0

(* Modeled PCIe-ish transfer rate, in bytes per simulated millisecond. *)
let transfer_bytes_per_ms = 65_536.0

type compiled = {
  c_app : App.t;
  c_config : Pipelines.config;
  c_target : loop_ref option;
  modul : Func.modul;
  compile_seconds : float;
  c_remarks : Remark.t list;
  c_stats : (string * int) list;
  c_decode : Decode.cache;
      (* per-(function, device) decode memo: the module is frozen after
         [compile], so repeated simulations (Table I's 20-run protocol)
         decode each kernel once *)
}

let compile ?target ?timeout (app : App.t) config =
  let m = compile_app app in
  (* Optimize each kernel; the transform is restricted to the target loop
     when one is given. Remarks and statistic deltas are collected across
     all kernels of the application. *)
  let sink = Remark.create () in
  let deadline = Option.map (fun budget -> Clock.now () +. budget) timeout in
  let work, stats =
    List.fold_left
      (fun (acc, stats) f ->
        let targets =
          match target with
          | None -> Pipelines.All_loops
          | Some t ->
            if t.kernel = f.Func.name then Pipelines.Only [ t.header ]
            else Pipelines.Only []
        in
        let options =
          (* The budget spans all kernels: each kernel gets what is left
             of the job's deadline, not a fresh allowance. *)
          let timeout =
            Option.map (fun d -> Float.max 0.001 (d -. Clock.now ())) deadline
          in
          { Uu_opt.Pass.default_options with remarks = Some sink; timeout }
        in
        let report = Pipelines.optimize ~targets ~options config f in
        ( acc + report.Uu_opt.Pass.work,
          Statistic.merge stats report.Uu_opt.Pass.stats ))
      (0, []) m.Func.funcs
  in
  let compile_seconds = float_of_int work /. compile_work_per_second in
  {
    c_app = app;
    c_config = config;
    c_target = target;
    modul = m;
    compile_seconds;
    c_remarks = Remark.remarks sink;
    c_stats = stats;
    c_decode = Decode.create_cache ();
  }

let make_compiled ?target ?(compile_seconds = 0.0) ?(remarks = []) ?(stats = [])
    ~app ~config modul =
  {
    c_app = app;
    c_config = config;
    c_target = target;
    modul;
    compile_seconds;
    c_remarks = remarks;
    c_stats = stats;
    c_decode = Decode.create_cache ();
  }

let compiled_remarks c = c.c_remarks
let compiled_stats c = c.c_stats

let simulate ?noise_seed ?(engine = Kernel.Decoded) ?sim_jobs (c : compiled) =
  let app = c.c_app and m = c.modul in
  let instance = app.App.setup (Rng.create workload_seed) in
  let noise = Option.map Rng.create noise_seed in
  (* Run-level clock/DVFS jitter on top of the per-warp memory jitter;
     together they give the paper's run-to-run RSDs (SIV-B footnote on
     nvidia-smi clock pinning). *)
  let run_factor =
    match noise with
    | Some rng -> Float.max 0.9 (Rng.gaussian rng ~mean:1.0 ~stddev:0.015)
    | None -> 1.0
  in
  let total = Metrics.create () in
  let cycles = ref 0.0 in
  let code = ref app.App.rest_bytes in
  let seen_kernels = Hashtbl.create 7 in
  let launch_config =
    {
      Kernel.default_config with
      noise;
      engine;
      sim_jobs = Option.value sim_jobs ~default:1;
      decode_cache = Some c.c_decode;
    }
  in
  List.iter
    (fun (l : App.launch) ->
      let f =
        match Func.find_func m l.App.kernel with
        | Some f -> f
        | None -> failwith (Printf.sprintf "%s: unknown kernel %s" app.App.name l.App.kernel)
      in
      let result =
        Kernel.exec ~config:launch_config instance.App.mem f
          ~grid_dim:l.App.grid_dim ~block_dim:l.App.block_dim ~args:l.App.args
      in
      Metrics.add total result.Kernel.metrics;
      cycles := !cycles +. result.Kernel.kernel_cycles;
      if not (Hashtbl.mem seen_kernels l.App.kernel) then begin
        Hashtbl.replace seen_kernels l.App.kernel ();
        code := !code + result.Kernel.code_bytes
      end)
    instance.App.launches;
  {
    config = c.c_config;
    target = c.c_target;
    kernel_ms = !cycles *. run_factor /. cycles_per_ms;
    transfer_ms = float_of_int instance.App.transfer_bytes /. transfer_bytes_per_ms;
    code_bytes = !code;
    compile_seconds = c.compile_seconds;
    metrics = total;
    check = instance.App.check ();
    remarks = c.c_remarks;
    stats = c.c_stats;
  }

(* Replay the launch schedule with a write-set collector per launch:
   the empirical check that blocks write disjoint cells, i.e. that the
   parallel block shard may not change final memory. Sharded launches
   collect per shard and merge in block order, so the report bytes are
   the same at any sim_jobs width. *)
let race_audit ?(engine = Kernel.Decoded) (c : compiled) =
  let app = c.c_app and m = c.modul in
  let instance = app.App.setup (Rng.create workload_seed) in
  List.map
    (fun (l : App.launch) ->
      let f =
        match Func.find_func m l.App.kernel with
        | Some f -> f
        | None ->
          failwith (Printf.sprintf "%s: unknown kernel %s" app.App.name l.App.kernel)
      in
      let races = Racecheck.create () in
      ignore
        (Kernel.exec
           ~config:
             {
               Kernel.default_config with
               races = Some races;
               engine;
               decode_cache = Some c.c_decode;
             }
           instance.App.mem f ~grid_dim:l.App.grid_dim ~block_dim:l.App.block_dim
           ~args:l.App.args);
      (l.App.kernel, races))
    instance.App.launches

let run ?noise_seed ?engine ?sim_jobs ?target (app : App.t) config =
  simulate ?noise_seed ?engine ?sim_jobs (compile ?target app config)

let run_exn ?noise_seed ?engine ?sim_jobs ?target app config =
  let m = run ?noise_seed ?engine ?sim_jobs ?target app config in
  (match m.check with
  | Ok () -> ()
  | Error msg ->
    failwith
      (Printf.sprintf "%s under %s: wrong results: %s" app.App.name
         (Pipelines.config_name config) msg));
  m

(* --- the request funnel --------------------------------------------- *)

type request_compiled = {
  rq_modul : Func.modul;
  rq_config : Pipelines.config;
  rq_work : int;
  rq_remarks : Remark.t list;
  rq_stats : (string * int) list;
  rq_decode : Decode.cache;
}

let resolve_source = function
  | Uu_serve.Request.Inline { name; text } -> Ok (name, text)
  | Uu_serve.Request.App name -> (
    match Registry.find name with
    | Some app -> Ok (app.App.name, app.App.source)
    | None ->
      Error
        (Printf.sprintf "%s is not a bundled application (known apps: %s)" name
           (String.concat ", " Registry.names)))

let compile_request (r : Uu_serve.Request.t) =
  match resolve_source r.source with
  | Error _ as e -> e
  | Ok (name, text) -> (
    let body () =
      let m = Uu_frontend.Lower.compile ~name text in
      (* Loop ids are resolved against the freshly lowered module, the
         way `uu run --loop` always has (before the early phase — apps
         going through the job graph use [loop_inventory] instead). *)
      let targets =
        match r.loop with
        | None -> Pipelines.All_loops
        | Some id ->
          let headers =
            List.concat_map
              (fun f ->
                let forest = Uu_analysis.Loops.analyze f in
                List.filter_map
                  (fun (l : Uu_analysis.Loops.loop) ->
                    if l.id = id then Some l.header else None)
                  (Uu_analysis.Loops.loops forest))
              m.Func.funcs
          in
          Pipelines.Only headers
      in
      let sink = Remark.create () in
      let options = { Uu_opt.Pass.default_options with remarks = Some sink } in
      let report = Pipelines.optimize_module ~targets ~options r.config m in
      {
        rq_modul = m;
        rq_config = r.config;
        rq_work = report.Uu_opt.Pass.work;
        rq_remarks = Remark.remarks sink;
        rq_stats = report.Uu_opt.Pass.stats;
        rq_decode = Decode.create_cache ();
      }
    in
    match body () with
    | c -> Ok c
    | exception Uu_frontend.Lexer.Error (msg, pos) ->
      Error
        (Printf.sprintf "lex error at %d:%d: %s" pos.Uu_frontend.Ast.line
           pos.Uu_frontend.Ast.col msg)
    | exception Uu_frontend.Parser.Error (msg, pos) ->
      Error
        (Printf.sprintf "parse error at %d:%d: %s" pos.Uu_frontend.Ast.line
           pos.Uu_frontend.Ast.col msg)
    | exception Uu_frontend.Lower.Error (msg, pos) ->
      Error
        (Printf.sprintf "error at %d:%d: %s" pos.Uu_frontend.Ast.line
           pos.Uu_frontend.Ast.col msg)
    | exception Failure msg -> Error msg)

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

let respond ?(default_sim_jobs = 1) (r : Uu_serve.Request.t)
    (c : request_compiled) : Uu_serve.Response.t =
  let compile_seconds = float_of_int c.rq_work /. compile_work_per_second in
  let finish body =
    Ok
      {
        Uu_serve.Response.config = c.rq_config;
        body;
        compile_seconds;
        remarks = c.rq_remarks;
        stats = c.rq_stats;
      }
  in
  match r.mode with
  | Uu_serve.Request.Compile ->
    let ir =
      String.concat "" (List.map Printer.func_to_string c.rq_modul.Func.funcs)
    in
    let instr_count =
      List.fold_left (fun acc f -> acc + Func.instr_count f) 0 c.rq_modul.Func.funcs
    in
    finish (Uu_serve.Response.Compiled { ir; instr_count })
  | Uu_serve.Request.Run -> (
    let body () =
      let sim_jobs =
        match r.sim_jobs with Some n -> max 1 n | None -> max 1 default_sim_jobs
      in
      let mem = Memory.create () in
      let rng = Rng.create 7L in
      let noise = Option.map Rng.create r.noise_seed in
      List.map
        (fun (f : Func.t) ->
          let args = synthetic_args ~elems:r.elems rng mem f in
          let races = if r.check_races then Some (Racecheck.create ()) else None in
          let tracer = if r.trace then Some (Trace.create ()) else None in
          let config =
            {
              Kernel.default_config with
              engine = r.engine;
              races;
              tracer;
              sim_jobs;
              noise;
              decode_cache = Some c.rq_decode;
            }
          in
          let result =
            Kernel.exec ~config mem f ~grid_dim:r.grid_dim ~block_dim:r.block_dim
              ~args
          in
          {
            Uu_serve.Response.label = f.Func.name;
            kernel_cycles = result.Kernel.kernel_cycles;
            code_bytes = result.Kernel.code_bytes;
            metrics = result.Kernel.metrics;
            races = Option.map Racecheck.report races;
            trace = Option.map (Trace.render f) tracer;
          })
        c.rq_modul.Func.funcs
    in
    match body () with
    | ms -> finish (Uu_serve.Response.Measured ms)
    | exception (Failure msg | Invalid_argument msg) -> Error msg)

let run_request ?default_sim_jobs r =
  match compile_request r with
  | Error msg -> Error msg
  | Ok c -> respond ?default_sim_jobs r c
