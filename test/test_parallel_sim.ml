(* Tests for parallel intra-launch simulation: the chunked range mapper,
   the byte-identical sim_jobs contract (any shard width produces the
   serial metrics and final memory, both engines, every registry app),
   the inter-block write-overlap detector behind --check-races, and the
   simulator-semantics version's role in the result-cache key. *)

open Uu_support
open Uu_ir
open Uu_core
open Uu_benchmarks
open Uu_gpusim
open Uu_harness

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* A shard width that actually exercises the parallel path even on a
   single-core container (available_domains () = 1 there). *)
let wide = max 3 (Parallel.available_domains ())

(* --- Parallel.map_range ------------------------------------------- *)

let test_map_range () =
  let serial ~chunk n =
    let nchunks = (n + chunk - 1) / chunk in
    List.init nchunks (fun i -> (i * chunk, min n ((i + 1) * chunk)))
  in
  let f ~lo ~hi = (lo, hi) in
  List.iter
    (fun (jobs, chunk, n) ->
      check
        (Alcotest.list (Alcotest.pair int int))
        (Printf.sprintf "jobs:%d chunk:%d n:%d in range order" jobs chunk n)
        (serial ~chunk n)
        (Parallel.map_range ~jobs ~chunk ~n f))
    [ (1, 4, 10); (4, 4, 10); (4, 1, 7); (3, 5, 5); (4, 3, 0) ];
  (* Chunks partition the range exactly once. *)
  let covered = Array.make 100 0 in
  List.iter
    (fun ((lo : int), hi) ->
      for i = lo to hi - 1 do
        covered.(i) <- covered.(i) + 1
      done)
    (Parallel.map_range ~jobs:4 ~n:100 f);
  check bool "every index covered exactly once" true
    (Array.for_all (fun c -> c = 1) covered);
  check bool "negative n rejected" true
    (try
       ignore (Parallel.map_range ~n:(-1) f);
       false
     with Invalid_argument _ -> true);
  check bool "non-positive chunk rejected" true
    (try
       ignore (Parallel.map_range ~chunk:0 ~n:4 f);
       false
     with Invalid_argument _ -> true);
  (* A worker exception surfaces on the caller, range order first. *)
  check bool "exception propagates" true
    (try
       ignore
         (Parallel.map_range ~jobs:4 ~chunk:1 ~n:8 (fun ~lo ~hi:_ ->
              if lo = 5 then failwith "chunk-5" else lo));
       false
     with Failure m -> m = "chunk-5")

(* --- the byte-identical sim_jobs contract -------------------------- *)

let configs = [ Pipelines.Baseline; Pipelines.Uu 4; Pipelines.Uu_heuristic ]

(* Compile + simulate one app at one shard width, mirroring the harness
   protocol (fresh workload from the fixed seed, launches in schedule
   order, one decode cache per module). *)
let run_sharded ~sim_jobs engine (app : App.t) config =
  let m = Uu_frontend.Lower.compile ~name:app.App.name app.App.source in
  List.iter
    (fun f -> ignore (Pipelines.optimize ~targets:Pipelines.All_loops config f))
    m.Func.funcs;
  let instance = app.App.setup (Rng.create 0x5EEDL) in
  let total = Metrics.create () in
  let cache = Decode.create_cache () in
  List.iter
    (fun (l : App.launch) ->
      let f =
        match Func.find_func m l.App.kernel with
        | Some f -> f
        | None -> Alcotest.failf "%s: unknown kernel %s" app.App.name l.App.kernel
      in
      let r =
        Kernel.exec ~config:(Kernel.config ~engine ~decode_cache:cache ~sim_jobs ()) instance.App.mem f
          ~grid_dim:l.App.grid_dim ~block_dim:l.App.block_dim ~args:l.App.args
      in
      Metrics.add total r.Kernel.metrics)
    instance.App.launches;
  (total, Memory.dump instance.App.mem, instance.App.check ())

let same_memory a b =
  List.length a = List.length b
  && List.for_all2
       (fun (i, xs) (j, ys) ->
         i = j
         && Array.length xs = Array.length ys
         && Array.for_all2 Eval.equal xs ys)
       a b

let test_app_deterministic (app : App.t) () =
  List.iter
    (fun engine ->
      List.iter
        (fun config ->
          let name =
            Printf.sprintf "%s/%s/%s" app.App.name
              (match engine with
              | Kernel.Reference -> "reference"
              | Kernel.Decoded -> "decoded")
              (Pipelines.config_to_string config)
          in
          let ms, mems, checks = run_sharded ~sim_jobs:1 engine app config in
          check bool (name ^ " oracle passes serially") true (checks = Ok ());
          List.iter
            (fun jobs ->
              let mp, memp, checkp = run_sharded ~sim_jobs:jobs engine app config in
              if ms <> mp then
                Alcotest.failf
                  "%s: metrics diverge at sim_jobs %d@.serial: %s@.sharded: %s"
                  name jobs
                  (Format.asprintf "%a" Metrics.pp ms)
                  (Format.asprintf "%a" Metrics.pp mp);
              check bool
                (Printf.sprintf "%s memory identical at sim_jobs %d" name jobs)
                true (same_memory mems memp);
              check bool
                (Printf.sprintf "%s oracle passes at sim_jobs %d" name jobs)
                true (checkp = Ok ()))
            [ 2; wide ])
        configs)
    [ Kernel.Reference; Kernel.Decoded ]

(* The noise model must shard identically too: per-block jitter streams
   are a pure function of (launch, block), not of which domain runs the
   block. Timing-dependent fields (compile_seconds) are excluded. *)
let test_noisy_deterministic () =
  let app =
    match Registry.find "XSBench" with Some a -> a | None -> assert false
  in
  let serial = Runner.run_exn ~noise_seed:99L ~sim_jobs:1 app Pipelines.Uu_heuristic in
  let sharded =
    Runner.run_exn ~noise_seed:99L ~sim_jobs:wide app Pipelines.Uu_heuristic
  in
  check bool "noisy metrics identical" true
    (serial.Runner.metrics = sharded.Runner.metrics);
  check (Alcotest.float 0.0) "noisy kernel_ms identical" serial.Runner.kernel_ms
    sharded.Runner.kernel_ms

(* --- the race checker ---------------------------------------------- *)

(* Promote locals first: alloca arenas are shared-bank traffic too, and
   these tests pin the recorder's view of the declared arrays alone. *)
let launch_with_races ?(engine = Kernel.Decoded) ?(grid = 4) ?(block = 32)
    ?(sim_jobs = 8) src =
  let fn = Ir_helpers.compile_one src in
  ignore (Uu_opt.Pass.exec [ Uu_opt.Mem2reg.pass ] fn);
  let mem = Memory.create () in
  let out = Memory.zeros_f64 mem 512 in
  let races = Racecheck.create () in
  let r =
    Kernel.exec ~config:(Kernel.config ~engine ~races ~sim_jobs ()) mem fn ~grid_dim:grid ~block_dim:block
      ~args:[ Kernel.Buf out; Kernel.Int_arg 128L ]
  in
  (r, races)

let racy = "kernel k(float* restrict out, int n) { out[0] = 1.0; }"

let disjoint =
  {|kernel k(float* restrict out, int n) {
      int tid = threadIdx.x + blockIdx.x * blockDim.x;
      if (tid < n) { out[tid] = 1.0; }
    }|}

let test_racecheck () =
  List.iter
    (fun engine ->
      let _, races = launch_with_races ~engine racy in
      (match Racecheck.overlaps races with
      | [ o ] ->
        check int "overlap on offset 0" 0 o.Racecheck.offset;
        check int "all four blocks write it" 4 (List.length o.Racecheck.blocks)
      | os -> Alcotest.failf "expected one overlapping cell, got %d" (List.length os));
      let _, clean = launch_with_races ~engine disjoint in
      check bool "disjoint kernel has writes" true (Racecheck.writes clean > 0);
      check (Alcotest.list bool) "disjoint kernel has no overlaps" []
        (List.map (fun _ -> true) (Racecheck.overlaps clean)))
    [ Kernel.Reference; Kernel.Decoded ];
  (* The report names the overlap; a clean collector says so. *)
  let _, races = launch_with_races racy in
  check bool "report mentions the cell" true
    (Astring.String.is_infix ~affix:"offset 0" (Racecheck.report races))

(* A race-checked launch shards like any other; the per-shard collectors
   must never change the measurement. *)
let test_racecheck_preserves_metrics () =
  let fn = Ir_helpers.compile_one disjoint in
  let run ?races () =
    let mem = Memory.create () in
    let out = Memory.zeros_f64 mem 512 in
    (Kernel.exec ~config:{ Kernel.default_config with races; sim_jobs = 8 } mem fn ~grid_dim:4 ~block_dim:32
       ~args:[ Kernel.Buf out; Kernel.Int_arg 128L ])
      .Kernel.metrics
  in
  check bool "metrics unchanged under --check-races" true
    (run () = run ~races:(Racecheck.create ()) ())

(* --- the intra-block shared-memory race checker --------------------- *)

(* Every thread of a block stores to s[0] in the same barrier interval:
   one racy cell per block, 32 writers. *)
let shared_racy_writes =
  {|kernel k(float* restrict out, int n) {
      __shared__ float s[4];
      s[0] = 1.0;
      __syncthreads();
      int tid = threadIdx.x + blockIdx.x * blockDim.x;
      if (tid < n) { out[tid] = s[0]; }
    }|}

(* One writer, 31 readers of the same cell with no barrier between:
   a write/read race even though there is only one writer. *)
let shared_racy_read =
  {|kernel k(float* restrict out, int n) {
      __shared__ float s[32];
      int lid = threadIdx.x;
      if (lid == 0) { s[5] = 2.0; }
      float v = s[5];
      int tid = lid + blockIdx.x * blockDim.x;
      if (tid < n) { out[tid] = v; }
    }|}

(* The canonical fill/barrier/read idiom: per-lane cells, one barrier.
   Must be clean. *)
let shared_clean =
  {|kernel k(float* restrict out, int n) {
      __shared__ float s[32];
      int lid = threadIdx.x;
      s[lid] = 1.0;
      __syncthreads();
      int tid = lid + blockIdx.x * blockDim.x;
      if (tid < n) { out[tid] = s[lid]; }
    }|}

(* Only atomics touch the shared cells before the barrier: atomic
   updates of one cell never race each other. *)
let shared_atomics_only =
  {|kernel k(float* restrict out, int n) {
      __shared__ int ci[4];
      __shared__ float cf[4];
      int lid = threadIdx.x;
      atomicAdd(&ci[lid % 4], 1);
      atomicAdd(&cf[lid % 4], 1.0);
      __syncthreads();
      int tid = lid + blockIdx.x * blockDim.x;
      if (tid < n) { out[tid] = cf[lid % 4] + (float)ci[lid % 4]; }
    }|}

(* An atomic beside a plain access by another thread in the same
   interval races: s[1] (plain write by 0, atomic by 1) and s[2] (atomic
   by 2, plain read by 3). s[0] is atomic-only, and on s[3] one thread
   both adds and reads, so neither races. *)
let shared_atomic_mixed =
  {|kernel k(float* restrict out, int n) {
      __shared__ float s[4];
      int lid = threadIdx.x;
      float v = 0.0;
      atomicAdd(&s[0], 1.0);
      if (lid == 0) { s[1] = 5.0; }
      if (lid == 1) { atomicAdd(&s[1], 1.0); }
      if (lid == 2) { atomicAdd(&s[2], 1.0); }
      if (lid == 3) { v = s[2]; }
      if (lid == 4) { atomicAdd(&s[3], 1.0); v = v + s[3]; }
      __syncthreads();
      int tid = lid + blockIdx.x * blockDim.x;
      if (tid < n) { out[tid] = v + s[lid % 4]; }
    }|}

let test_shared_racecheck () =
  List.iter
    (fun engine ->
      let _, races = launch_with_races ~engine ~block:64 shared_atomics_only in
      check bool "atomics-only kernel recorded accesses" true
        (Racecheck.shared_accesses races > 0);
      check int "atomic-only cells never race" 0
        (List.length (Racecheck.shared_races races));
      let _, races = launch_with_races ~engine shared_atomic_mixed in
      check
        (Alcotest.list (Alcotest.pair int (Alcotest.list int)))
        "an atomic races a plain access by another thread"
        (List.concat_map (fun _ -> [ (1, [ 0; 1 ]); (2, [ 2; 3 ]) ]) [ 0; 1; 2; 3 ])
        (List.map
           (fun r -> (r.Racecheck.s_offset, r.Racecheck.s_threads))
           (Racecheck.shared_races races));
      let _, races = launch_with_races ~engine shared_racy_writes in
      (match Racecheck.shared_races races with
      | [] -> Alcotest.fail "32 same-epoch writers reported as race-free"
      | rs ->
        check int "one racy cell per block" 4 (List.length rs);
        let r = List.hd rs in
        check int "cell is offset 0" 0 r.Racecheck.s_offset;
        check int "epoch 0 (before the barrier)" 0 r.Racecheck.s_epoch;
        check int "all 32 writers named" 32 (List.length r.Racecheck.s_threads));
      let _, races = launch_with_races ~engine shared_racy_read in
      (match Racecheck.shared_races races with
      | [] -> Alcotest.fail "unsynchronised write/read reported as race-free"
      | r :: _ ->
        check int "racy cell is offset 5" 5 r.Racecheck.s_offset;
        check bool "writer and readers named" true
          (List.length r.Racecheck.s_threads = 32));
      let _, clean = launch_with_races ~engine shared_clean in
      check bool "clean kernel recorded accesses" true
        (Racecheck.shared_accesses clean > 0);
      check int "fill/barrier/read is race-free" 0
        (List.length (Racecheck.shared_races clean)))
    [ Kernel.Reference; Kernel.Decoded ];
  (* The report surfaces the shared section beside the global one. *)
  let _, races = launch_with_races shared_racy_writes in
  let report = Racecheck.report races in
  check bool "report names the racy interval" true
    (Astring.String.is_infix ~affix:"shared race check: 4 racy cell(s)" report);
  let _, clean = launch_with_races shared_clean in
  check bool "clean report says so" true
    (Astring.String.is_infix ~affix:"no intra-block conflicts"
       (Racecheck.report clean))

(* --- barrier intervals are block-global ----------------------------- *)

(* Lanes 0 and 32 write the same cell before the first barrier. They
   never co-execute an instruction (different warps), so only the
   block-global epoch the scheduler maintains — not a per-warp counter —
   puts the two writes in the same interval and flags the race. *)
let shared_cross_warp_racy =
  {|kernel k(float* restrict out, int n) {
      __shared__ float s[4];
      int lid = threadIdx.x;
      if (lid == 0) { s[0] = 1.0; }
      if (lid == 32) { s[0] = 2.0; }
      __syncthreads();
      int tid = lid + blockIdx.x * blockDim.x;
      if (tid < n) { out[tid] = s[0]; }
    }|}

(* The negative image: the write and the cross-warp read are separated
   by a barrier, so their epochs differ and the exchange is clean. *)
let shared_cross_warp_clean =
  {|kernel k(float* restrict out, int n) {
      __shared__ float s[64];
      int lid = threadIdx.x;
      s[lid] = 1.0;
      __syncthreads();
      int partner = lid + 32;
      if (partner > 63) { partner = partner - 64; }
      float v = s[partner];
      int tid = lid + blockIdx.x * blockDim.x;
      if (tid < n) { out[tid] = v; }
    }|}

let test_shared_epoch_block_global () =
  List.iter
    (fun engine ->
      let _, races =
        launch_with_races ~engine ~block:64 shared_cross_warp_racy
      in
      (match Racecheck.shared_races races with
      | [] -> Alcotest.fail "cross-warp same-interval writers missed"
      | rs ->
        check int "one racy cell per block" 4 (List.length rs);
        let r = List.hd rs in
        check int "racy cell is offset 0" 0 r.Racecheck.s_offset;
        check int "both writes land in interval 0" 0 r.Racecheck.s_epoch;
        check (Alcotest.list int) "lanes 0 and 32 named" [ 0; 32 ]
          r.Racecheck.s_threads);
      let _, clean =
        launch_with_races ~engine ~block:64 shared_cross_warp_clean
      in
      check bool "clean kernel recorded accesses" true
        (Racecheck.shared_accesses clean > 0);
      check int "barrier-separated cross-warp exchange is race-free" 0
        (List.length (Racecheck.shared_races clean)))
    [ Kernel.Reference; Kernel.Decoded ]

(* --- byte-identical reports and traces at any shard width ----------- *)

(* Global atomics from every block beside the per-block plain writes:
   the report gains an atomics line and every line must be identical at
   any width — atomic-only cells never overlap, and the per-shard
   collectors merge back to the serial bytes. *)
let atomic_mix =
  {|kernel k(float* restrict out, int n) {
      int tid = threadIdx.x + blockIdx.x * blockDim.x;
      float old = atomicAdd(&out[0], 1.0);
      if (tid + 1 < n) { out[tid + 1] = old * 0.0 + 1.0; }
    }|}

let test_report_bytes_deterministic () =
  List.iter
    (fun engine ->
      List.iter
        (fun src ->
          let _, serial = launch_with_races ~engine ~sim_jobs:1 src in
          let want = Racecheck.report serial in
          List.iter
            (fun sim_jobs ->
              let _, sharded = launch_with_races ~engine ~sim_jobs src in
              check Alcotest.string
                (Printf.sprintf "report bytes at sim_jobs %d" sim_jobs)
                want
                (Racecheck.report sharded))
            [ 2; 3 ])
        [ racy; shared_racy_writes; shared_clean; atomic_mix; shared_atomic_mixed ])
    [ Kernel.Reference; Kernel.Decoded ];
  (* The atomics line is present exactly when atomics ran. *)
  let _, races = launch_with_races atomic_mix in
  check bool "atomics line present" true
    (Astring.String.is_infix ~affix:"committed in block order"
       (Racecheck.report races));
  check bool "atomic-only cell is not an overlap" true
    (Racecheck.overlaps races
    |> List.for_all (fun o -> o.Racecheck.offset <> 0))

(* Traced launches shard too: per-shard buffers spliced in block order
   must reproduce the serial stream byte for byte, including the cutoff
   of a small [limit]. *)
let run_traced ?(engine = Kernel.Decoded) ?limit ~sim_jobs src =
  let fn = Ir_helpers.compile_one src in
  ignore (Uu_opt.Pass.exec [ Uu_opt.Mem2reg.pass ] fn);
  let mem = Memory.create () in
  let out = Memory.zeros_f64 mem 512 in
  let tracer = Trace.create ?limit () in
  ignore
    (Kernel.exec ~config:(Kernel.config ~engine ~tracer ~sim_jobs ()) mem fn
       ~grid_dim:4 ~block_dim:32
       ~args:[ Kernel.Buf out; Kernel.Int_arg 128L ]);
  (Trace.render fn tracer, List.length (Trace.events tracer))

let test_trace_bytes_deterministic () =
  List.iter
    (fun engine ->
      List.iter
        (fun src ->
          let want, _ = run_traced ~engine ~sim_jobs:1 src in
          check bool "trace recorded" true (want <> "");
          List.iter
            (fun sim_jobs ->
              let got, _ = run_traced ~engine ~sim_jobs src in
              check Alcotest.string
                (Printf.sprintf "trace bytes at sim_jobs %d" sim_jobs)
                want got)
            [ 2; 3 ])
        [ disjoint; shared_racy_writes ])
    [ Kernel.Reference; Kernel.Decoded ];
  (* Truncation parity: a limit smaller than the stream cuts the sharded
     splice at exactly the serial prefix. *)
  let want, n = run_traced ~limit:10 ~sim_jobs:1 disjoint in
  check int "limit honoured" 10 n;
  List.iter
    (fun sim_jobs ->
      let got, _ = run_traced ~limit:10 ~sim_jobs disjoint in
      check Alcotest.string
        (Printf.sprintf "truncated trace bytes at sim_jobs %d" sim_jobs)
        want got)
    [ 2; 3 ]

(* Kernels with no shared memory must not grow a shared section: the
   global-only report is unchanged from the pre-shared simulator. *)
let test_shared_report_absent () =
  let _, races = launch_with_races disjoint in
  check int "no shared accesses recorded" 0 (Racecheck.shared_accesses races);
  check bool "no shared section in the report" true
    (not
       (Astring.String.is_infix ~affix:"shared race check"
          (Racecheck.report races)))

(* Every registry app honours CUDA's disjoint-writes contract — the
   assumption the parallel shard rests on, audited empirically: each
   app's schedule, race-checked, reports one clean collector per
   launch. *)
let test_registry_race_audit () =
  List.iter
    (fun (app : App.t) ->
      let request =
        {
          (Runner.schedule_request app Pipelines.Baseline) with
          Uu_serve.Request.check_races = true;
        }
      in
      match Runner.run_request request with
      | Ok { Uu_serve.Response.body = Scheduled [ run ]; _ } ->
        check bool (app.App.name ^ " reports every launch") true (run.launches <> []);
        List.iter
          (fun (l : Uu_serve.Response.measurement) ->
            let report = Option.value l.races ~default:"" in
            let name = Printf.sprintf "%s/%s" app.App.name l.label in
            check bool (name ^ " recorded writes") true
              (not (Astring.String.is_infix ~affix:"(0 writes" report));
            if
              not
                (Astring.String.is_prefix
                   ~affix:"race check: no inter-block write overlaps" report)
            then Alcotest.failf "%s: cells written by multiple blocks:\n%s" name report)
          run.launches
      | Ok _ -> Alcotest.failf "%s: expected one schedule run" app.App.name
      | Error msg -> Alcotest.failf "%s: %s" app.App.name msg)
    Registry.all

(* --- cache invalidation on simulator-semantics bumps ---------------- *)

let bezier =
  match Registry.find "bezier-surface" with Some a -> a | None -> assert false

let test_sim_version_in_key () =
  (* Shared memory bumped the version past the pre-shared "2"; the
     barrier scheduler bumped it to "4"; deferred block-ordered atomics
     and bank-resident alloca arenas bumped it to "5" — cached entries
     measured under the old machines must never be served to the new
     simulator. *)
  check bool "semantics version covers deferred atomics and arenas" true
    (Kernel.semantics_version >= "5");
  let j = Jobs.job bezier Pipelines.Baseline in
  let r = j.Jobs.request in
  check bool "spec names the simulator version" true
    (Astring.String.is_infix
       ~affix:("sim=" ^ Kernel.semantics_version)
       (Uu_serve.Request.spec r));
  check bool "sim version changes key" true
    (Uu_serve.Request.key ~sim_version:"test-bump" r <> Jobs.key j);
  check bool "sim and pipeline bumps are distinct keys" true
    (Uu_serve.Request.key ~sim_version:"test-bump" r
    <> Uu_serve.Request.key ~version:"test-bump" r)

let test_sim_version_invalidates_cache () =
  let dir = Filename.temp_file "uu_simcache" "" in
  Sys.remove dir;
  let cache = Result_cache.create ~dir in
  let j = Jobs.job bezier Pipelines.Baseline in
  (match Jobs.run_all ~jobs:1 ~cache [ j ] with
  | [ r ] -> check bool "cold run executed" false r.Jobs.from_cache
  | _ -> Alcotest.fail "expected one result");
  check bool "current semantics hits" true
    (Result_cache.lookup_raw cache ~key:(Jobs.key j) <> None);
  (* After a semantics bump the harness computes a different key, so the
     entry stored under the old machine is never served again. *)
  check bool "bumped semantics misses" true
    (Result_cache.lookup_raw cache
       ~key:(Uu_serve.Request.key ~sim_version:"next" j.Jobs.request)
    = None)

let suite =
  [
    Alcotest.test_case "map_range" `Quick test_map_range;
    Alcotest.test_case "racecheck overlap detection" `Quick test_racecheck;
    Alcotest.test_case "shared racecheck" `Quick test_shared_racecheck;
    Alcotest.test_case "shared epochs are block-global" `Quick
      test_shared_epoch_block_global;
    Alcotest.test_case "shared report absent without shared memory" `Quick
      test_shared_report_absent;
    Alcotest.test_case "race report bytes shard-deterministic" `Quick
      test_report_bytes_deterministic;
    Alcotest.test_case "trace bytes shard-deterministic" `Quick
      test_trace_bytes_deterministic;
    Alcotest.test_case "racecheck preserves metrics" `Quick
      test_racecheck_preserves_metrics;
    Alcotest.test_case "noisy shard determinism" `Quick test_noisy_deterministic;
    Alcotest.test_case "sim version in key" `Quick test_sim_version_in_key;
    Alcotest.test_case "sim version invalidates cache" `Quick
      test_sim_version_invalidates_cache;
    Alcotest.test_case "registry race audit" `Slow test_registry_race_audit;
  ]
  @ List.map
      (fun (app : App.t) ->
        Alcotest.test_case ("shard determinism: " ^ app.App.name) `Slow
          (test_app_deterministic app))
      Registry.all
