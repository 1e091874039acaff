(* The benchmark BENCHMARK.json defines; see README.md in this directory.

   main.exe --workload table1|sweep|serve --seed N --seconds S --trace 0|1

   With --trace 0 it sets the workload up, runs its timed phase for about S
   seconds and prints the end-to-end metrics. With --trace 1 it sets up, runs
   one untraced batch, then re-drives the workload through the layers'
   public functions with a span around every call (Replay) and prints the
   per-layer metrics. The last stdout line is the result object. *)

open Uu_support
open Perfbench
module Runner = Uu_harness.Runner
module Server = Uu_harness.Server
module Request = Uu_serve.Request
module Response = Uu_serve.Response
module Protocol = Uu_serve.Protocol

let process_start = Clock.now ()

(* --- arguments ---------------------------------------------------------- *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

(* Paths relative to the repository root, where the benchmark runs. *)
let digests_file = "perfbench/digests.txt"
let work_dir = ".bench_build/perfbench"

let usage () =
  prerr_endline "usage: main.exe --workload table1|sweep|serve --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest -> go ((flag, value) :: acc) rest
    | [ _ ] -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let known = [ "--workload"; "--seed"; "--seconds"; "--trace" ] in
  if List.exists (fun (k, _) -> not (List.mem k known)) kv then usage ();
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "--workload" in
  if not (List.mem workload [ "table1"; "sweep"; "serve" ]) then usage ();
  let seconds = int "--seconds" in
  if seconds < 1 then usage ();
  {
    workload;
    seed = int "--seed";
    seconds = float_of_int seconds;
    trace =
      (match get "--trace" with "0" -> false | "1" -> true | _ -> usage ());
  }

(* --- environment -------------------------------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc
    in
    let lines = go [] in
    close_in ic;
    lines

let status_field name =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = name ->
        Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (read_lines "/proc/self/status")

(* The CPUs this process may run on, as nproc counts them. *)
let nproc =
  let count_range r =
    match String.split_on_char '-' r with
    | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b -> b - a + 1
      | _ -> 0)
    | [ a ] -> if int_of_string_opt a = None then 0 else 1
    | _ -> 0
  in
  match status_field "Cpus_allowed_list" with
  | Some l ->
    let n = List.fold_left (fun acc r -> acc + count_range r) 0 (String.split_on_char ',' l) in
    if n > 0 then n else Parallel.available_domains ()
  | None -> Parallel.available_domains ()

let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> (
      match float_of_string_opt kb with Some kb -> kb /. 1024.0 | None -> nan)
    | [] -> nan)
  | None -> nan

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

(* --- results ------------------------------------------------------------- *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (* report lines, newest first *)
}

let result = { attempted = 0; failed = 0; notes = [] }
let note fmt = Printf.ksprintf (fun s -> result.notes <- s :: result.notes) fmt

let expected_digest name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ n; d ] when n = name -> Some d
      | _ -> None)
    (read_lines digests_file)

(* A digest mismatch fails [ops] operations. *)
let witness name digest ~ops =
  match expected_digest name with
  | Some d when d = digest -> true
  | expected ->
    let line =
      Printf.sprintf "digest %s: got %s, recorded %s" name digest
        (Option.value expected ~default:"none")
    in
    if not (List.mem line result.notes) then note "%s" line;
    result.failed <- result.failed + ops;
    false

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~metrics =
  List.iter print_endline (List.rev result.notes);
  let metrics =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (result.failed = 0 && result.attempted > 0)
    (max 1 result.attempted) result.failed (String.concat ", " metrics)

(* --- shared shape of a run ------------------------------------------------ *)

(* The host's speed drifts by tens of percent from minute to minute, so
   every reported time is a ratio to the reference kernel (Calib) timed
   right around it, scaled by the kernel's time on a quiet host. A change
   to the repository's code moves the measured time but not the kernel. *)
let calib_nominal_s = 0.020

(* The median kernel time over at least five timings and [budget] seconds.
   One timing varies by 10-15% on its own, and the host's speed moves
   within seconds, so the budget grows with the time it calibrates, to a
   fifth of it. At a twentieth, a 15 s sweep batch had 0.75 s of timings
   on either side, and its calibrated time spread 21% over ten runs where
   the measured time spread 14%. *)
let calibration ~budget =
  let t0 = Clock.now () in
  let rec go acc =
    let acc = Calib.once ~domains:nproc :: acc in
    if List.length acc >= 5 && Clock.since t0 >= budget then Pctl.median (Array.of_list acc)
    else go acc
  in
  go []

let calibration_for dt = calibration ~budget:(Float.max 0.1 (0.2 *. dt))

(* A measured time and its calibrated value. *)
type timing = { raw : float; cal : float }

let calibrated raw ~before ~after = { raw; cal = raw /. ((before +. after) /. 2.0) *. calib_nominal_s }

(* Set up at least three times and until half a second of set-up has
   accumulated, tearing down all but the last. setup_s is the time from
   process start to the first set-up plus the median set-up, so a set-up
   of a few milliseconds still reads steadily. *)
let timed_setup ~setup ~teardown =
  let before_first = Clock.since process_start in
  let before = calibration ~budget:0.3 in
  let rec go times =
    let v, dt = Clock.time setup in
    let times = dt :: times in
    let n = List.length times in
    if n >= 3 && (List.fold_left ( +. ) 0.0 times >= 0.5 || n >= 200) then begin
      note "setup: %.6f s to the first set-up, then a median of %.6f s over %d set-ups" before_first
        (Pctl.median (Array.of_list times)) n;
      (v, before_first +. Pctl.median (Array.of_list times))
    end
    else begin
      teardown v;
      go times
    end
  in
  let v, raw = go [] in
  (v, calibrated raw ~before ~after:(calibration ~budget:0.3))

(* Batches until the next one would overrun the window (at least one);
   [f] runs one batch and returns its duration. A calibration separates
   consecutive batches. *)
let batches ~seconds f =
  let t0 = Clock.now () in
  let rec go acc before =
    let dt = f () in
    let after = calibration_for dt in
    let acc = calibrated dt ~before ~after :: acc in
    if Clock.since t0 +. dt <= seconds then go acc after else Array.of_list (List.rev acc)
  in
  go [] (calibration ~budget:1.0)

(* Passes over [apps] until the next would overrun the window (at least
   one). A pass runs [run app] for each app on its own, with a calibration
   after each, and hands the results to [check]; its time is the sum of
   the calibrated app times. Timed as one batch of 15 s, the sweep was
   calibrated by the few seconds of kernel timings around it, and its
   calibrated time spread 17-21% over ten runs where the measured time
   spread 10-14%; timed app by app it spread 6%. *)
let timed f () = snd (Clock.time f)

let passes ~seconds apps ~run ~check =
  let t0 = Clock.now () in
  let rec go acc before =
    let p0 = Clock.now () in
    let before = ref before and raw = ref 0.0 and cal = ref 0.0 in
    let results =
      List.map
        (fun app ->
          let r, dt = Clock.time (fun () -> run app) in
          let after = calibration_for dt in
          let t = calibrated dt ~before:!before ~after in
          before := after;
          raw := !raw +. t.raw;
          cal := !cal +. t.cal;
          r)
        apps
    in
    check results;
    let acc = { raw = !raw; cal = !cal } :: acc in
    if Clock.since t0 +. Clock.since p0 <= seconds then go acc !before
    else Array.of_list (List.rev acc)
  in
  go [] (calibration ~budget:1.0)
let raw_walls walls = Array.map (fun t -> t.raw) walls

(* table1 and sweep submit the apps in registry order, whatever the seed.
   The pool hands out jobs in submission order, and four sweep jobs take
   4-5.6 s each against a 14 s batch on two domains: a seeded order moved
   the batch's wall time by up to a third with where those jobs landed. *)
let batch_apps = Uu_benchmarks.Registry.all

(* --- per-layer output ------------------------------------------------------ *)

(* Span names with a "_s" suffix become time metrics ("opt.pass.X" becomes
   "opt.pass_s.X"); counters keep their names. *)
let time_metric name =
  let p = "opt.pass." in
  let n = String.length p in
  if String.length name > n && String.sub name 0 n = p then
    "opt.pass_s." ^ String.sub name n (String.length name - n)
  else name ^ "_s"

let per_layer_names =
  [ "frontend.lower_s"; "frontend.lower_calls"; "frontend.ir_instrs" ]
  @ List.map (fun l -> "opt.pass_s." ^ l) Replay.pass_labels
  @ [
      "opt.verify_s"; "opt.work"; "opt.ir_instrs_after"; "opt.pipeline_calls";
      "analysis.loops_s"; "gpusim.decode_s"; "gpusim.decode_calls"; "gpusim.exec_s";
      "gpusim.launches"; "gpusim.warp_instrs"; "gpusim.ns_per_warp_instr";
      "benchmarks.setup_s"; "benchmarks.check_s"; "harness.job_s"; "harness.pool_busy_s";
      "harness.pool_idle_s"; "harness.result_cache.lookup_s"; "harness.result_cache.store_s";
      "harness.result_cache.hits"; "harness.result_cache.misses"; "harness.respond_s";
      "serve.request_s"; "serve.request_key_s"; "serve.codec_s"; "serve.json_s";
      "serve.executed"; "serve.cache_served"; "serve.joined"; "serve.shed"; "serve.errors";
      "serve.residual_ms"; "shard.exec_w1_s"; "shard.exec_wide_s"; "shard.speedup";
      "trace.domains"; "trace.wall_s"; "trace.untraced_wall_s"; "trace.overhead_share";
      "trace.unattributed_share";
    ]

let unit_of name =
  let ends s suffix =
    let n = String.length s and k = String.length suffix in
    n >= k && String.sub s (n - k) k = suffix
  in
  if ends name "_ms" then "ms"
  else if ends name "_s" || String.length name > 11 && String.sub name 0 11 = "opt.pass_s." then "s"
  else if name = "gpusim.ns_per_warp_instr" then "ns"
  else if ends name "_share" || name = "shard.speedup" then "ratio"
  else "count"

(* Root spans: a job on the pool, or one replayed serve request. Their self
   time is what no layer span covers. *)
let roots = [ "harness.job"; "serve.request" ]

(* The layer self-times of each domain must account for its busy time
   within this share; the rest is the harness's own, unattributed work. *)
let reconcile_tolerance = 0.05

let layer_metrics ~wall ~untraced_wall ~pool_width extra =
  let domains = Span.collect () in
  let tbl = Hashtbl.create 64 in
  let add k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  let busy_total = ref 0.0 and worst = ref 0.0 in
  List.iter
    (fun (d : Span.domain_summary) ->
      let selfs = Span.self_times d.d_events in
      let busy = Span.busy d.d_events in
      let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 selfs in
      let unattributed =
        List.fold_left (fun acc (n, v) -> if List.mem n roots then acc +. v else acc) 0.0 selfs
      in
      let share = if busy > 0.0 then unattributed /. busy else 0.0 in
      worst := Float.max !worst share;
      busy_total := !busy_total +. busy;
      note "trace domain %d: busy %.3f s of wall %.3f s, self-times sum %.3f s, unattributed %.2f%%%s"
        d.d_domain busy wall sum (100.0 *. share)
        (if share > reconcile_tolerance || busy > wall *. 1.001 || Float.abs (sum -. busy) > 1e-6 *. Float.max 1.0 busy
         then "  (NOT RECONCILED)" else "");
      List.iter (fun (n, v) -> add (time_metric n) v) selfs;
      List.iter (fun (n, c) -> add n (float_of_int c)) d.d_counts)
    domains;
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  add "harness.pool_busy_s" !busy_total;
  add "harness.pool_idle_s" (Float.max 0.0 ((float_of_int pool_width *. wall) -. !busy_total));
  let wi = get "gpusim.warp_instrs" in
  if wi > 0.0 then add "gpusim.ns_per_warp_instr" (get "gpusim.exec_s" *. 1e9 /. wi);
  List.iter (fun (k, v) -> add k v) extra;
  add "trace.domains" (float_of_int (List.length domains));
  add "trace.wall_s" wall;
  add "trace.untraced_wall_s" untraced_wall;
  add "trace.overhead_share" ((wall -. untraced_wall) /. untraced_wall);
  add "trace.unattributed_share" !worst;
  note "tracing overhead: traced %.3f s - untraced %.3f s = %+.3f s (reconcile tolerance %.0f%%)"
    wall untraced_wall (wall -. untraced_wall) (100.0 *. reconcile_tolerance);
  List.map (fun n -> (n, unit_of n, get n)) per_layer_names

let end_to_end ~(setup : timing) ~(walls : timing array) =
  let raw = Array.map (fun t -> t.raw) walls and cal = Array.map (fun t -> t.cal) walls in
  note "wall_s: median of %d batches, calibrated %.6f s, measured %.6f s (min %.6f, max %.6f)"
    (Array.length walls) (Pctl.median cal) (Pctl.median raw)
    (Array.fold_left Float.min infinity raw) (Array.fold_left Float.max 0.0 raw);
  note "setup_s: calibrated %.6f s, measured %.6f s" setup.cal setup.raw;
  [ ("setup_s", "s", setup.cal); ("wall_s", "s", Pctl.median cal); ("peak_rss_mb", "MB", peak_rss_mb ()) ]

let write_trace args =
  mkdir_p work_dir;
  let path = Filename.concat work_dir (Printf.sprintf "trace-%s-%d.tsv" args.workload args.seed) in
  Span.write_tsv path (Span.collect ());
  note "spans written to %s" path

(* --- shard ---------------------------------------------------------------- *)

type shard = {
  modul : Uu_ir.Func.modul;
  instance : Uu_benchmarks.App.instance;
  cache : Uu_gpusim.Decode.cache;
}

let kernel_exec ~config mem f ~grid_dim ~block_dim ~args =
  Uu_gpusim.Kernel.exec ~config mem f ~grid_dim ~block_dim ~args

let simulate_instance ?(exec = kernel_exec) ~sim_jobs s =
  let total = Uu_gpusim.Metrics.create () in
  List.iter
    (fun (l : Uu_benchmarks.App.launch) ->
      let f = Replay.find_kernel s.modul l.kernel in
      let r =
        exec
          ~config:(Uu_gpusim.Kernel.config ~decode_cache:s.cache ~sim_jobs ())
          s.instance.mem f ~grid_dim:l.grid_dim ~block_dim:l.block_dim ~args:l.args
      in
      Uu_gpusim.Metrics.add total r.Uu_gpusim.Kernel.metrics)
    s.instance.launches;
  total

(* Compile XSBench under u&u-4, build the scaled instance, and warm the
   decode cache with one simulation. *)
let shard_setup () =
  let a = Replay.xsbench in
  let modul = Uu_frontend.Lower.compile ~name:a.name a.source in
  List.iter (fun f -> ignore (Uu_core.Pipelines.optimize (Uu_core.Pipelines.Uu 4) f)) modul.funcs;
  let instance =
    Uu_benchmarks.Xsbench.setup_scaled ~n:Replay.shard_elems (Rng.create Replay.workload_seed)
  in
  let s = { modul; instance; cache = Uu_gpusim.Decode.create_cache () } in
  ignore (simulate_instance ~sim_jobs:nproc s);
  s

(* Kernel.exec's time at width nproc against the same work at width 1,
   for table1's traced run. It runs before any span is on, so it leaves
   table1's layer times alone, and each width is the median of three
   simulations. *)
let shard_layer () =
  let s = shard_setup () in
  let launches = List.length s.instance.launches in
  let exec_s ~sim_jobs () =
    let total = ref 0.0 in
    let exec ~config mem f ~grid_dim ~block_dim ~args =
      let r, dt = Clock.time (fun () -> kernel_exec ~config mem f ~grid_dim ~block_dim ~args) in
      total := !total +. dt;
      r
    in
    let m = simulate_instance ~exec ~sim_jobs s in
    result.attempted <- result.attempted + launches;
    (if witness "shard" (Replay.metrics_digest m) ~ops:launches then
       match s.instance.check () with
       | Ok () -> ()
       | Error msg ->
         note "shard at width %d: oracle check failed: %s" sim_jobs msg;
         result.failed <- result.failed + launches);
    !total
  in
  let median3 f = Pctl.median (Array.init 3 (fun _ -> f ())) in
  let wide = median3 (exec_s ~sim_jobs:nproc) and narrow = median3 (exec_s ~sim_jobs:1) in
  note "shard: Kernel.exec %.3f s at width %d, %.3f s at width 1 (%.2fx)" wide nproc narrow
    (narrow /. wide);
  [ ("shard.exec_wide_s", wide); ("shard.exec_w1_s", narrow); ("shard.speedup", narrow /. wide) ]

(* --- table1 and sweep --------------------------------------------------- *)

let stamp args ~pool ~sim_jobs ~clients =
  note
    "env: nproc %d, available_domains %d, pool width %d, sim_jobs %d, clients %d, workload seed %d, OCaml %s"
    nproc (Parallel.available_domains ()) pool sim_jobs clients args.seed Sys.ocaml_version

(* Enumerate every app's loops: checks that all sources compile before the
   timed phase, and gives the sweep its job count. *)
let inventory_setup apps () = List.map Runner.loop_inventory apps

let table1_run args =
  let runs = 20 in
  let apps = batch_apps in
  stamp args ~pool:nproc ~sim_jobs:1 ~clients:0;
  let _, setup = timed_setup ~setup:(inventory_setup apps) ~teardown:ignore in
  let ops = 3 * List.length apps in
  let batch () =
    result.attempted <- result.attempted + ops;
    match Uu_harness.Table1.compute ~runs ~apps ~jobs:nproc ~sim_jobs:1 () with
    | rows -> ignore (witness "table1" (Replay.table1_digest rows) ~ops)
    | exception e ->
      note "table1 batch failed: %s" (Printexc.to_string e);
      result.failed <- result.failed + ops
  in
  if not args.trace then print_result ~metrics:(end_to_end ~setup ~walls:(batches ~seconds:args.seconds (timed batch)))
  else begin
    let (), untraced_wall = Clock.time batch in
    let shard = shard_layer () in
    Span.enable ();
    let (rows, ops, failed), wall = Clock.time (fun () -> Replay.table1 ~jobs:nproc ~runs apps) in
    result.attempted <- result.attempted + ops;
    result.failed <- result.failed + failed;
    if failed = 0 then ignore (witness "table1" (Replay.table1_digest rows) ~ops);
    write_trace args;
    print_result ~metrics:(layer_metrics ~wall ~untraced_wall ~pool_width:nproc shard)
  end

let sweep_run args =
  let apps = batch_apps in
  stamp args ~pool:nproc ~sim_jobs:1 ~clients:0;
  let inventories, setup = timed_setup ~setup:(inventory_setup apps) ~teardown:ignore in
  let ops =
    List.fold_left
      (fun acc loops -> acc + 2 + (List.length loops * List.length Uu_harness.Sweep.loop_configs))
      0 inventories
  in
  let batch () =
    result.attempted <- result.attempted + ops;
    match Uu_harness.Sweep.run ~apps ~jobs:nproc ~sim_jobs:1 () with
    | s ->
      let failures = List.length s.Uu_harness.Sweep.failures in
      List.iter
        (fun (f : Uu_harness.Jobs.failure) -> note "sweep job %s failed: %s" f.job_label f.message)
        s.Uu_harness.Sweep.failures;
      result.failed <- result.failed + failures;
      if failures = 0 then ignore (witness "sweep" (Replay.sweep_digest s.Uu_harness.Sweep.points) ~ops)
    | exception e ->
      note "sweep batch failed: %s" (Printexc.to_string e);
      result.failed <- result.failed + ops
  in
  let run app =
    match Uu_harness.Sweep.run ~apps:[ app ] ~jobs:nproc ~sim_jobs:1 () with
    | s ->
      List.iter
        (fun (f : Uu_harness.Jobs.failure) -> note "sweep job %s failed: %s" f.job_label f.message)
        s.Uu_harness.Sweep.failures;
      Some s
    | exception e ->
      note "sweep %s failed: %s" app.Uu_benchmarks.App.name (Printexc.to_string e);
      None
  in
  let check sweeps =
    result.attempted <- result.attempted + ops;
    if List.exists Option.is_none sweeps then result.failed <- result.failed + ops
    else begin
      let sweeps = List.map Option.get sweeps in
      let failures = List.fold_left (fun n s -> n + List.length s.Uu_harness.Sweep.failures) 0 sweeps in
      result.failed <- result.failed + failures;
      if failures = 0 then
        ignore
          (witness "sweep"
             (Replay.sweep_digest (List.concat_map (fun s -> s.Uu_harness.Sweep.points) sweeps))
             ~ops)
    end
  in
  if not args.trace then
    print_result ~metrics:(end_to_end ~setup ~walls:(passes ~seconds:args.seconds apps ~run ~check))
  else begin
    let (), untraced_wall = Clock.time batch in
    Span.enable ();
    let (points, ops, failed), wall = Clock.time (fun () -> Replay.sweep ~jobs:nproc apps) in
    result.attempted <- result.attempted + ops;
    result.failed <- result.failed + failed;
    if failed = 0 then ignore (witness "sweep" (Replay.sweep_digest points) ~ops);
    write_trace args;
    print_result ~metrics:(layer_metrics ~wall ~untraced_wall ~pool_width:nproc [])
  end

(* --- serve ------------------------------------------------------------------ *)

let n_clients = nproc
let fresh_one_in = 20

(* A client's batch deals the deck of fresh bases exactly once, so every
   batch executes the same fresh work. *)
let per_client = fresh_one_in * Array.length Replay.fresh_bases

type serve = {
  server : Server.t;
  thread : Thread.t;
  clients : Uu_serve.Client.t array;
  dir : string;
}

let serve_counter = ref 0

(* A daemon with one pool domain on a fresh cache directory and socket,
   nproc connected clients, and the hit set executed once (which compiles
   every module of the mix). *)
let serve_setup () =
  incr serve_counter;
  let dir = Filename.concat work_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !serve_counter) in
  rm_rf dir;
  mkdir_p dir;
  let socket = Filename.concat dir "s" in
  let server = Server.create ~socket ~cache_dir:(Filename.concat dir "cache") ~domains:1 () in
  let thread = Thread.create Server.serve_forever server in
  let clients = Array.init n_clients (fun _ -> Uu_serve.Client.connect ~socket ()) in
  Array.iter (fun r -> ignore (Uu_serve.Client.request clients.(0) r)) Replay.hit_set;
  { server; thread; clients; dir }

let serve_teardown s =
  Array.iter Uu_serve.Client.close s.clients;
  Server.request_stop s.server;
  Thread.join s.thread;
  rm_rf s.dir

type sample = {
  op : Mix.op;
  request : Request.t;
  reply : (string * bool) option;  (* response text and whether it is Ok; None: shed *)
  rtt_ns : int64;
}

(* Runner.compile_request, once per module and domain: a compiled module's
   decode cache is single-domain. *)
let compiled_memo = Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let compiled r =
  let memo = Domain.DLS.get compiled_memo in
  let ck = Request.compile_key r in
  match Hashtbl.find_opt memo ck with
  | Some c -> c
  | None ->
    let c = Runner.compile_request r in
    Hashtbl.add memo ck c;
    c

let expected r =
  Response.to_string
    (match compiled r with Ok c -> Runner.respond r c | Error e -> Error e)

let sum a = Array.fold_left ( +. ) 0.0 a

(* The daemon's work for one request, one layer call at a time: decode the
   request frame, key it, read the cache or respond and store, then build
   the result frame as [Server.result_frame] does and decode it as the
   client does. Returns the decoded response. *)
let replay_request cache i request =
  let span = Replay.span in
  span "serve.request" (fun () ->
      let codec = Protocol.Codec.create () in
      let decode bytes =
        span "serve.codec" (fun () ->
            Protocol.Codec.feed codec bytes ~off:0 ~len:(String.length bytes);
            Option.get (Protocol.Codec.next codec))
      in
      let frame =
        span "serve.codec" (fun () ->
            Protocol.encode_frame (Protocol.client_to_json (Protocol.Request { id = i; request })))
      in
      let request =
        match span "serve.json" (fun () -> Protocol.client_of_json (decode frame)) with
        | Ok (Protocol.Request { request; _ }) -> request
        | _ -> failwith "replay: request frame did not round-trip"
      in
      let key = span "serve.request_key" (fun () -> Request.key request) in
      let text =
        match
          span "harness.result_cache.lookup" (fun () -> Uu_harness.Result_cache.lookup_raw cache ~key)
        with
        | Some text -> text
        | None ->
          let response =
            span "harness.respond" (fun () ->
                match compiled request with
                | Ok c -> Runner.respond request c
                | Error e -> failwith ("replay: " ^ e))
          in
          let text = span "serve.json" (fun () -> Response.to_string response) in
          span "harness.result_cache.store" (fun () ->
              Uu_harness.Result_cache.store_raw cache ~key text);
          text
      in
      let body = span "serve.json" (fun () -> Json.of_string_exn text) in
      let out =
        span "serve.codec" (fun () ->
            Protocol.encode_frame
              (Json.Obj
                 [
                   ("frame", Json.Str "result"); ("id", Json.Int i); ("served", Json.Str "cache");
                   ("response", body);
                 ]))
      in
      match span "serve.json" (fun () -> Protocol.server_of_json (decode out)) with
      | Ok (Protocol.Result { response; _ }) -> response
      | _ -> failwith "replay: result frame did not round-trip")

let serve_run args =
  stamp args ~pool:1 ~sim_jobs:1 ~clients:n_clients;
  let s, setup = timed_setup ~setup:serve_setup ~teardown:serve_teardown in
  let stats0 = Server.stats s.server in
  let mixes =
    Array.init n_clients (fun client ->
        Mix.create ~seed:args.seed ~client ~hits:(Array.length Replay.hit_set)
          ~fresh:(Array.length Replay.fresh_bases) ~fresh_one_in)
  in
  let fresh = Array.make n_clients 0 in
  let samples = ref [] in
  (* Repeats of one request share one copy of their text, so the window's
     samples stay small; a repeat answered differently keeps its own. *)
  let hit_text = Array.make (Array.length Replay.hit_set) "" in
  let intern op text =
    match op with
    | Mix.Hit j ->
      if hit_text.(j) = "" then hit_text.(j) <- text;
      if text = hit_text.(j) then hit_text.(j) else text
    | Mix.Fresh _ -> text
  in
  (* One batch: every client sends [per_client] requests, each waiting for
     its reply before sending the next (a closed loop). Responses are
     rendered after the batch is timed. *)
  let batch () =
    let out = Array.make n_clients [] in
    let client c =
      for _ = 1 to per_client do
        let op = Mix.next mixes.(c) in
        let request =
          match op with
          | Mix.Hit i -> Replay.hit_set.(i)
          | Mix.Fresh i ->
            (* client c's k-th fresh request: seed * 10^6 + c * 10^5 + k *)
            let k = fresh.(c) in
            fresh.(c) <- k + 1;
            Replay.fresh_request i
              ~noise_seed:(Int64.of_int ((args.seed * 1_000_000) + (c * 100_000) + k))
        in
        let t0 = Clock.now () in
        let reply =
          match Uu_serve.Client.request s.clients.(c) request with
          | r -> Some r
          | exception Uu_serve.Client.Busy _ -> None
        in
        out.(c) <- (op, request, reply, Int64.sub (Clock.now ()) t0) :: out.(c)
      done
    in
    let (), dt =
      Clock.time (fun () ->
          List.iter Thread.join (List.init n_clients (fun c -> Thread.create client c)))
    in
    Array.iter
      (List.iter (fun (op, request, reply, rtt_ns) ->
           let reply =
             Option.map
               (fun (_, r) -> (intern op (Response.to_string r), Result.is_ok r))
               reply
           in
           samples := { op; request; reply; rtt_ns } :: !samples))
      out;
    dt
  in
  (* A traced run spends half its window replaying. *)
  let window = if args.trace then args.seconds /. 2.0 else args.seconds in
  let walls = batches ~seconds:window batch in
  let samples = Array.of_list (List.rev !samples) in
  let n = Array.length samples in
  let stats = Server.stats s.server in
  let delta k = List.assoc k stats - List.assoc k stats0 in
  serve_teardown s;
  note "serve: %d requests, executed %d, cache_served %d, joined %d, shed %d, errors %d" n
    (delta "serve.executed") (delta "serve.cache_served") (delta "serve.joined")
    (delta "serve.shed") (delta "serve.errors");
  let rtts = Array.map (fun x -> Int64.to_float x.rtt_ns /. 1e6) samples in
  note "serve: req_per_s %.1f over %.3f s (n %d)" (float_of_int n /. sum (raw_walls walls)) (sum (raw_walls walls)) n;
  List.iter
    (fun (label, pm) ->
      match Pctl.at rtts pm with
      | Some v -> note "serve: %s %.4f ms (n %d, %d beyond)" label v n (Pctl.beyond ~n pm)
      | None -> note "serve: %s not reported: n %d leaves fewer than %d beyond" label n Pctl.min_beyond)
    [ ("latency_p50_ms", 500); ("latency_p99_ms", 990) ];
  (match Pctl.highest rtts with
  | Some (pm, v) ->
    note "serve: highest supported tail %s %.4f ms (n %d, %d beyond)" (Pctl.name pm) v n
      (Pctl.beyond ~n pm)
  | None -> note "serve: no tail supported by n %d" n);
  (* Correctness, outside the timed window: every distinct request against
     Runner.run_request. Fresh requests reuse their module's compilation,
     exactly as run_request = compile_request + respond. *)
  let expected_hits = Array.map (fun r -> Response.to_string (Runner.run_request r)) Replay.hit_set in
  let fresh_idx = List.filter (fun i -> match samples.(i).op with Mix.Fresh _ -> true | Mix.Hit _ -> false) (List.init n Fun.id) in
  let expected_fresh = Hashtbl.create 64 in
  List.iter2 (Hashtbl.replace expected_fresh) fresh_idx
    (Parallel.map ~jobs:nproc (fun i -> expected samples.(i).request) fresh_idx);
  Array.iteri
    (fun i x ->
      result.attempted <- result.attempted + 1;
      match x.reply with
      | None -> result.failed <- result.failed + 1
      | Some (text, ok) ->
        let want =
          match x.op with Mix.Hit j -> expected_hits.(j) | Mix.Fresh _ -> Hashtbl.find expected_fresh i
        in
        if (not ok) || text <> want then result.failed <- result.failed + 1)
    samples;
  let hits = n - List.length fresh_idx in
  ignore (witness "serve" (Replay.md5 (String.concat "" (Array.to_list expected_hits))) ~ops:hits);
  if not args.trace then print_result ~metrics:(end_to_end ~setup ~walls)
  else begin
    (* Replay the window twice against a cache holding the hit set: once
       with spans off, for the tracing overhead, and once traced. *)
    let replay_all k =
      let dir = Filename.concat work_dir (Printf.sprintf "replay-%d-%d" (Unix.getpid ()) k) in
      rm_rf dir;
      let cache = Uu_harness.Result_cache.create ~dir in
      Array.iteri
        (fun i r -> Uu_harness.Result_cache.store_raw cache ~key:(Request.key r) expected_hits.(i))
        Replay.hit_set;
      let h0 = Uu_harness.Result_cache.hits cache and m0 = Uu_harness.Result_cache.misses cache in
      let wall_by_request = Array.make n 0.0 in
      let (), wall =
        Clock.time (fun () ->
            Array.iteri
              (fun i x ->
                if x.reply <> None then begin
                  let response, dt = Clock.time (fun () -> replay_request cache i x.request) in
                  wall_by_request.(i) <- dt;
                  if Some (Response.to_string response) <> Option.map fst x.reply then begin
                    note "replay: request %d answered differently" i;
                    result.failed <- result.failed + 1
                  end
                end)
              samples)
      in
      let counts = (Uu_harness.Result_cache.hits cache - h0, Uu_harness.Result_cache.misses cache - m0) in
      rm_rf dir;
      (wall, wall_by_request, counts)
    in
    let untraced_wall, _, _ = replay_all 1 in
    Span.enable ();
    let wall, by_request, (cache_hits, cache_misses) = replay_all 2 in
    let residual_ms = (sum rtts -. (sum by_request *. 1e3)) /. float_of_int n in
    note "serve: mean round trip %.4f ms, of which %.4f ms replayed; residual %.4f ms"
      (sum rtts /. float_of_int n) (sum by_request *. 1e3 /. float_of_int n) residual_ms;
    write_trace args;
    print_result
      ~metrics:
        (layer_metrics ~wall ~untraced_wall ~pool_width:1
           [
             ("harness.result_cache.hits", float_of_int cache_hits);
             ("harness.result_cache.misses", float_of_int cache_misses);
             ("serve.executed", float_of_int (delta "serve.executed"));
             ("serve.cache_served", float_of_int (delta "serve.cache_served"));
             ("serve.joined", float_of_int (delta "serve.joined"));
             ("serve.shed", float_of_int (delta "serve.shed"));
             ("serve.errors", float_of_int (delta "serve.errors"));
             ("serve.residual_ms", residual_ms);
           ])
  end

let () =
  let args = parse_args () in
  (match args.workload with
  | "table1" -> table1_run args
  | "sweep" -> sweep_run args
  | _ -> serve_run args);
  exit 0
