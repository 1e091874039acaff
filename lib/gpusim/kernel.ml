open Uu_ir
open Uu_support

(* Bump whenever a change alters the metrics or final memory a launch
   produces for the same inputs (the per-block L1 switch, a cost-model
   change, barrier scheduling, ...). The harness folds this into its
   result-cache keys, so stale entries from the previous semantics are
   never served. "5": deferred block-ordered atomic commits and
   bank-resident alloca arenas (global Atomic_add old values and
   alloca traffic costing both changed). *)
let semantics_version = "5"

type arg =
  | Buf of Memory.buffer
  | Int_arg of int64
  | Float_arg of float

type result = {
  metrics : Metrics.t;
  kernel_cycles : float;
  code_bytes : int;
}

let bind_args fn args =
  let params = fn.Func.params in
  if List.length params <> List.length args then
    invalid_arg
      (Printf.sprintf "launch @%s: %d arguments for %d parameters" fn.Func.name
         (List.length args) (List.length params));
  List.map2
    (fun (p : Func.param) arg ->
      match arg, p.pty with
      | Buf b, Types.Ptr elt when Types.equal (Memory.buffer_elt b) elt ->
        (p.pvar, Eval.Ptr { buffer = Memory.buffer_id b; offset = 0 })
      | Buf b, Types.Ptr elt ->
        invalid_arg
          (Printf.sprintf "launch @%s: parameter %s is %s* but buffer is %s"
             fn.Func.name p.pname (Types.to_string elt)
             (Types.to_string (Memory.buffer_elt b)))
      | Buf _, ty ->
        invalid_arg
          (Printf.sprintf "launch @%s: parameter %s is %s, got a buffer"
             fn.Func.name p.pname (Types.to_string ty))
      | Int_arg n, (Types.I64 | Types.I32 | Types.I1) -> (p.pvar, Eval.Int n)
      | Float_arg x, Types.F64 -> (p.pvar, Eval.Float x)
      | (Int_arg _ | Float_arg _), ty ->
        invalid_arg
          (Printf.sprintf "launch @%s: scalar argument mismatch for %s (%s)"
             fn.Func.name p.pname (Types.to_string ty)))
    params args
  (* Shared declarations bind like extra pointer params: slot [k] points
     at shared buffer [-2 - k], constant for the whole launch (the bank
     itself is per-shard and zero-reset at block entry). *)
  @ List.mapi
      (fun k (s : Func.shared) ->
        (s.Func.s_var, Eval.Ptr { buffer = -2 - k; offset = 0 }))
      fn.Func.shared

let shared_bank fn =
  Memory.shared_create
    (List.map (fun (s : Func.shared) -> (s.Func.s_elt, s.Func.s_size)) fn.Func.shared)

type engine = Reference | Decoded

(* One shard's result: the metrics sum of each run, the runs whose
   runaway guard tripped, plus the shard-private sinks its warps
   recorded into. [Parallel.map_range] returns chunks in ascending range
   order, so reducing the shard list front to back IS ascending block
   order. *)
type shard = {
  s_metrics : Metrics.t array;
  s_over : bool array;
  s_atomics : Atomics.t;
  s_races : Racecheck.t option;
  s_trace : Trace.t option;
}

type launch_config = {
  device : Device.t;
  noise : Rng.t option;
  max_warp_cycles : int;
  tracer : Trace.t option;
  races : Racecheck.t option;
  engine : engine;
  decode_cache : Decode.cache option;
  sim_jobs : int;
}

let default_config =
  {
    device = Device.v100;
    noise = None;
    max_warp_cycles = 200_000_000;
    tracer = None;
    races = None;
    engine = Decoded;
    decode_cache = None;
    sim_jobs = 1;
  }

let config ?(device = Device.v100) ?noise ?(max_warp_cycles = 200_000_000)
    ?tracer ?races ?(engine = Decoded) ?decode_cache ?(sim_jobs = 1) () =
  { device; noise; max_warp_cycles; tracer; races; engine; decode_cache; sim_jobs }

let exec_runs ?(config = default_config) ~noises mem fn ~grid_dim ~block_dim ~args =
  let {
    device;
    noise = _;
    max_warp_cycles;
    tracer;
    races;
    engine;
    decode_cache;
    sim_jobs;
  } =
    config
  in
  if grid_dim < 1 || block_dim < 1 then
    invalid_arg
      (Printf.sprintf "launch @%s: grid %d x block %d is not a positive shape"
         fn.Func.name grid_dim block_dim);
  let runs = Array.length noises in
  if runs < 1 then invalid_arg (Printf.sprintf "launch @%s: no runs" fn.Func.name);
  let bound = bind_args fn args in
  (* The engine's per-shard warp constructor and the code size it lays
     out; everything else below is shared by both engines. *)
  let code_bytes, engine_shard =
    match engine with
    | Decoded ->
      let prog =
        match decode_cache with
        | Some cache -> Decode.decode_cached cache device fn
        | None -> Decode.decode device fn
      in
      (Decode.code_bytes prog, Decoded_warp.shard prog)
    | Reference ->
      let layout = Layout.compute device fn in
      let post = Uu_analysis.Dominance.compute_post fn in
      ( Layout.code_bytes layout,
        Warp.make ~layout ~ipdom:(Uu_analysis.Dominance.idom post) )
  in
  let fn_name = fn.Func.name and ws = device.Device.warp_size in
  let wpb = (block_dim + ws - 1) / ws in
  (* The per-launch noise draw keeps [Runner]'s cross-launch rng
     sequencing (one [next] per launch and run), and each block derives
     a private stream per run from it — warp jitter is a function of
     (run, launch, block, warp), never of which domain simulated the
     block or in what order. *)
  let launch_seeds = Array.map (Option.map Rng.next) noises in
  (* Run one shard of blocks with worker-private sinks and per-block
     state — a shared bank, L1 and icache reset at every block entry (the
     per-SM model, so every block starts cold) and one [Cost] slot per
     warp of a block, holding every run's clock. *)
  let run_shard ~lo ~hi =
    let s_atomics = Atomics.create mem in
    let s_races = Option.map (fun _ -> Racecheck.create ()) races in
    (* A shard's trace copies the destination's limit so sharded
       truncation matches serial truncation (see [Trace.append]). *)
    let s_trace = Option.map (fun t -> Trace.create ~limit:(Trace.limit t) ()) tracer in
    let env =
      {
        Warp.device;
        fn;
        mem;
        args = bound;
        block_dim;
        grid_dim;
        max_warp_cycles;
        tracer = s_trace;
        atomics = s_atomics;
      }
    in
    let smem = shared_bank fn in
    let make_warp = engine_shard env ~smem in
    let icache = Layout.icache_create device in
    let dcache = Cache.create ~capacity:device.Device.l1_lines in
    let costs =
      Array.init wpb (fun warp_id ->
          Cost.create ~runs device ~mem ~smem ~dcache ~icache ~races:s_races ~fn_name
            ~warp_id)
    in
    let streams = Array.make runs None in
    let accs = Array.init runs (fun _ -> Metrics.create ()) in
    for block_id = lo to hi - 1 do
      Cache.reset icache;
      Cache.reset dcache;
      Memory.shared_reset smem;
      for run = 0 to runs - 1 do
        streams.(run) <-
          (match launch_seeds.(run) with
          | Some seed -> Some (Rng.stream seed block_id)
          | None -> None)
      done;
      (* Ascending warp order: [Cost.start] and [Cost.draw] draw the
         per-warp noise, so each run's RNG sequence stays a function of
         (block, warp). *)
      let warps =
        Array.init wpb (fun warp_id ->
            let cost = costs.(warp_id) in
            let lanes = min ws (block_dim - (warp_id * ws)) in
            Cost.start cost ~noise:streams.(0) ~block_id ~lanes;
            for run = 1 to runs - 1 do
              Cost.draw cost ~run streams.(run)
            done;
            make_warp cost ~block_id ~warp_id ~lanes)
      in
      Scheduler.run_block ~fn_name ~block_id ~into:accs warps
    done;
    let s_over = Array.init runs (fun run -> Array.exists (Cost.overran ~run) costs) in
    { s_metrics = accs; s_over; s_atomics; s_races; s_trace }
  in
  (* No serial gates: tracing, race checking, atomics, and allocas are
     all deterministic under sharding, so every launch shards freely.
     The join reduces the shards in ascending block order — sum metrics,
     commit the deferred atomic deltas, merge the race collectors,
     splice the trace buffers — and each reduction is
     order-deterministic, so metrics, final memory, race reports, and
     traces are byte-identical for any [sim_jobs]/chunking. *)
  let sim_jobs = if sim_jobs <= 1 || grid_dim <= 1 then 1 else min sim_jobs grid_dim in
  let shards =
    if sim_jobs <= 1 then [ run_shard ~lo:0 ~hi:grid_dim ]
    else Parallel.map_range ~jobs:sim_jobs ~n:grid_dim run_shard
  in
  let totals = Array.init runs (fun _ -> Metrics.create ()) in
  let over = Array.make runs false in
  List.iter
    (fun s ->
      Array.iteri (fun run m -> Metrics.add totals.(run) m) s.s_metrics;
      Array.iteri (fun run o -> over.(run) <- over.(run) || o) s.s_over;
      Atomics.commit s.s_atomics;
      (match races, s.s_races with
      | Some into, Some src -> Racecheck.merge ~into src
      | _ -> ());
      match tracer, s.s_trace with
      | Some into, Some src -> Trace.append ~into src
      | _ -> ())
    shards;
  Array.mapi
    (fun run total ->
      if over.(run) then Error (Cost.overrun_message ~limit:max_warp_cycles fn_name)
      else Ok { metrics = total; kernel_cycles = Metrics.kernel_time total ~device; code_bytes })
    totals

let exec ?(config = default_config) mem fn ~grid_dim ~block_dim ~args =
  match (exec_runs ~config ~noises:[| config.noise |] mem fn ~grid_dim ~block_dim ~args).(0) with
  | Ok result -> result
  | Error msg -> failwith msg
