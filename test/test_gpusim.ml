(* Tests for the SIMT simulator: memory, launch validation, lockstep
   execution, divergence and reconvergence, coalescing, the instruction
   cache, atomics, and the nvprof-style counters. *)

open Uu_ir
open Uu_gpusim

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let test_memory_round_trip () =
  let mem = Memory.create () in
  let b = Memory.alloc_f64 mem [| 1.5; 2.5 |] in
  check (Alcotest.array (Alcotest.float 0.0)) "read back" [| 1.5; 2.5 |] (Memory.read_f64 b);
  let bi = Memory.alloc_i64 mem [| 7L |] in
  check Alcotest.int64 "i64" 7L (Memory.read_i64 bi).(0);
  check int "distinct ids" 1 (Memory.buffer_id bi);
  check bool "bytes tracked" true (Memory.bytes_moved mem > 0)

let test_memory_bounds () =
  let mem = Memory.create () in
  let b = Memory.alloc_i64 mem [| 1L; 2L |] in
  check bool "out of bounds load fails" true
    (try
       ignore (Memory.load mem ~buffer_id:(Memory.buffer_id b) ~offset:5);
       false
     with Failure _ -> true);
  check bool "unknown buffer fails" true
    (try
       ignore (Memory.load mem ~buffer_id:99 ~offset:0);
       false
     with Failure _ -> true)

let test_memory_atomic () =
  let mem = Memory.create () in
  let b = Memory.alloc_i64 mem [| 10L |] in
  let old = Memory.atomic_add mem ~buffer_id:(Memory.buffer_id b) ~offset:0 (Uu_ir.Eval.Int 5L) in
  check bool "returns old" true (old = Uu_ir.Eval.Int 10L);
  check Alcotest.int64 "added" 15L (Memory.read_i64 b).(0)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  check bool "first miss" true (Cache.touch c 1);
  check bool "second miss" true (Cache.touch c 2);
  check bool "hit" false (Cache.touch c 1);
  check bool "evicts LRU (2)" true (Cache.touch c 3);
  check bool "2 was evicted" true (Cache.touch c 2);
  check bool "3 survived? (1 evicted when 2 came back)" true (Cache.mem c 3 || Cache.mem c 1)

(* The cache against a list-based LRU, most recent first. Each case
   draws its keys from a pool about 1.5x the capacity, so sequences both
   hit and evict. Pool keys mix small signed ints, L1-shaped
   [(buffer lsl 32) lor granule] keys (negative for shared buffers, above
   2^32 for global ones) and arbitrary ints, which collide in the index
   as often as random keys do and so exercise probing and deletion. *)
type cache_op = Touch of int | Mem of int | Reset

let cache_model_prop capacity count =
  let key =
    QCheck2.Gen.(
      frequency
        [
          (4, int_range (-capacity) capacity);
          ( 4,
            map2
              (fun buffer granule -> (buffer lsl 32) lor granule)
              (int_range (-3) 3)
              (int_bound capacity) );
          (4, int);
          (1, oneofl [ min_int; max_int; 1 lsl 32; -(1 lsl 32) ]);
        ])
  in
  let ops =
    QCheck2.Gen.(
      let* pool = array_size (return ((3 * capacity / 2) + 4)) key in
      let key = oneofa pool in
      (* Resets are rare enough that a case fills the cache and evicts. *)
      list_size
        (int_range 0 ((6 * capacity) + 50))
        (frequency
           [
             ((8 * capacity) + 20, map (fun k -> Touch k) key);
             ((2 * capacity) + 4, map (fun k -> Mem k) key);
             (1, return Reset);
           ]))
  in
  let print_op = function
    | Touch k -> Printf.sprintf "touch %d" k
    | Mem k -> Printf.sprintf "mem %d" k
    | Reset -> "reset"
  in
  QCheck2.Test.make
    ~name:(Printf.sprintf "LRU cache matches a list model at capacity %d" capacity)
    ~count
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    (* No shrinking: a failing case at capacity 1,024 is thousands of ops,
       and shrinking it re-runs the list model for minutes. *)
    (QCheck2.Gen.no_shrink ops)
    (fun ops ->
      let c = Cache.create ~capacity in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Touch k ->
            let miss = not (List.mem k !model) in
            let rest = List.filter (( <> ) k) !model in
            let rest =
              if List.length rest >= capacity then List.filteri (fun i _ -> i < capacity - 1) rest
              else rest
            in
            model := k :: rest;
            Cache.touch c k = miss
          | Mem k -> Cache.mem c k = List.mem k !model
          | Reset ->
            Cache.reset c;
            model := [];
            true)
        ops
      && List.for_all (Cache.mem c) !model)

let test_launch_validation () =
  let fn =
    Ir_helpers.compile_one "kernel k(int* restrict out, int n) { out[0] = n; }"
  in
  let mem = Memory.create () in
  let out = Memory.zeros_i64 mem 4 in
  check bool "arity mismatch rejected" true
    (try
       ignore (Kernel.exec mem fn ~grid_dim:1 ~block_dim:32 ~args:[ Kernel.Buf out ]);
       false
     with Invalid_argument _ -> true);
  check bool "type mismatch rejected" true
    (try
       let fbuf = Memory.zeros_f64 mem 4 in
       ignore
         (Kernel.exec mem fn ~grid_dim:1 ~block_dim:32
            ~args:[ Kernel.Buf fbuf; Kernel.Int_arg 1L ]);
       false
     with Invalid_argument _ -> true);
  (* A non-positive launch shape is rejected, not simulated as 0 cycles,
     and the request funnel answers it with an [Error] (so the daemon
     never caches it). *)
  List.iter
    (fun (grid_dim, block_dim) ->
      let shape = Printf.sprintf "grid %d x block %d" grid_dim block_dim in
      check bool (shape ^ " rejected") true
        (try
           ignore
             (Kernel.exec mem fn ~grid_dim ~block_dim
                ~args:[ Kernel.Buf out; Kernel.Int_arg 1L ]);
           false
         with Invalid_argument _ -> true);
      let request =
        Uu_serve.Request.make ~grid_dim ~block_dim (Uu_serve.Request.App "stencil1d")
          Uu_core.Pipelines.Baseline
      in
      check bool (shape ^ " is an Error response") true
        (Result.is_error (Uu_harness.Runner.run_request request)))
    [ (4, 0); (0, 32); (4, -32) ]

let test_thread_indexing () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int n) {
  int gid = threadIdx.x + blockIdx.x * blockDim.x;
  if (gid < n) { out[gid] = gid * 10 + blockIdx.x; }
}
|}
  in
  let mem = Memory.create () in
  let out = Memory.zeros_i64 mem 128 in
  ignore
    (Kernel.exec mem fn ~grid_dim:2 ~block_dim:64
       ~args:[ Kernel.Buf out; Kernel.Int_arg 128L ]);
  let got = Memory.read_i64 out in
  check Alcotest.int64 "thread 0" 0L got.(0);
  check Alcotest.int64 "thread 63 in block 0" 630L got.(63);
  check Alcotest.int64 "thread 64 = block 1 lane 0" 641L got.(64);
  check Alcotest.int64 "thread 127" 1271L got.(127)

let metrics_of src ~elems scalars =
  let fn = Ir_helpers.compile_one src in
  let mem = Memory.create () in
  let out = Memory.zeros_i64 mem elems in
  let args = Kernel.Buf out :: List.map (fun v -> Kernel.Int_arg v) scalars in
  Kernel.exec mem fn ~grid_dim:1 ~block_dim:32 ~args

let test_divergence_counted () =
  (* Per-lane divergent branch. *)
  let r =
    metrics_of ~elems:32
      {|
kernel k(int* restrict out, int n) {
  int tid = threadIdx.x;
  if (tid & 1) { out[tid] = tid * 3; } else { out[tid] = tid + 100; }
}
|}
      [ 0L ]
  in
  check bool "divergent branch recorded" true
    (r.Kernel.metrics.Metrics.divergent_branches > 0);
  check bool "efficiency below 1" true
    (Metrics.warp_execution_efficiency r.Kernel.metrics ~warp_size:32 < 0.999)

let test_uniform_full_efficiency () =
  let r =
    metrics_of ~elems:32
      {|
kernel k(int* restrict out, int n) {
  int tid = threadIdx.x;
  int acc = 0;
  int i = 0;
  while (i < n) { acc = acc + i; i = i + 1; }
  out[tid] = acc;
}
|}
      [ 8L ]
  in
  check int "no divergence" 0 r.Kernel.metrics.Metrics.divergent_branches;
  check (Alcotest.float 1e-9) "efficiency 100%" 1.0
    (Metrics.warp_execution_efficiency r.Kernel.metrics ~warp_size:32)

let test_reconvergence_correctness () =
  (* Divergent branches inside a loop: every lane must still compute its
     own correct result (per-lane phi resolution through reconvergence). *)
  let src =
    {|
kernel k(int* restrict out, int n) {
  int tid = threadIdx.x;
  int acc = 0;
  int i = 0;
  while (i < n + (tid & 3)) {
    if ((i + tid) & 1) { acc = acc + i * tid; } else { acc = acc - 1; }
    i = i + 1;
  }
  out[tid] = acc;
}
|}
  in
  let got = (metrics_of ~elems:32 src [ 6L ]) in
  ignore got;
  let fn = Ir_helpers.compile_one src in
  let out = Ir_helpers.run_kernel fn [ 6L ] in
  let expect tid =
    let acc = ref 0 in
    let bound = 6 + (tid land 3) in
    for i = 0 to bound - 1 do
      if (i + tid) land 1 = 1 then acc := !acc + (i * tid) else acc := !acc - 1
    done;
    Int64.of_int !acc
  in
  for tid = 0 to 31 do
    check Alcotest.int64 (Printf.sprintf "lane %d" tid) (expect tid) out.(tid)
  done

let test_select_counts_misc () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int n) {
  int tid = threadIdx.x;
  out[tid] = (tid > n) ? 1 : 2;
}
|}
  in
  ignore (Uu_opt.Pass.exec [ Uu_opt.Mem2reg.pass ] fn);
  let mem = Memory.create () in
  let out = Memory.zeros_i64 mem 32 in
  let r =
    Kernel.exec mem fn ~grid_dim:1 ~block_dim:32
      ~args:[ Kernel.Buf out; Kernel.Int_arg 15L ]
  in
  check bool "selects counted as misc" true (r.Kernel.metrics.Metrics.inst_misc > 0)

let test_coalescing () =
  (* Coalesced: lanes read consecutive addresses -> few transactions.
     Strided: lanes read 16 elements apart -> one transaction per lane. *)
  let run src =
    let fn = Ir_helpers.compile_one src in
    let mem = Memory.create () in
    let data = Memory.zeros_i64 mem 1024 in
    let out = Memory.zeros_i64 mem 32 in
    let r =
      Kernel.exec mem fn ~grid_dim:1 ~block_dim:32
        ~args:[ Kernel.Buf out; Kernel.Buf data ]
    in
    r.Kernel.metrics.Metrics.mem_transactions
  in
  let coalesced =
    run "kernel k(int* restrict out, const int* restrict a) { int t = threadIdx.x; out[t] = a[t]; }"
  in
  let strided =
    run
      "kernel k(int* restrict out, const int* restrict a) { int t = threadIdx.x; out[t] = a[t * 16]; }"
  in
  check bool "strided needs more transactions" true (strided > coalesced)

let test_icache_pressure () =
  (* The same loop, hugely duplicated, must show fetch stalls. *)
  let src = Uu_benchmarks.Complex_app.app.Uu_benchmarks.App.source in
  let run config =
    let m = Uu_frontend.Lower.compile ~name:"c" src in
    let f = List.hd m.Func.funcs in
    ignore (Uu_core.Pipelines.optimize config f);
    let mem = Memory.create () in
    let mk () = Memory.zeros_f64 mem 128 in
    let outa = mk () and outc = mk () and a = mk () and c = mk () in
    Kernel.exec mem f ~grid_dim:1 ~block_dim:128
      ~args:[ Kernel.Buf outa; Kernel.Buf outc; Kernel.Buf a; Kernel.Buf c; Kernel.Int_arg 128L ]
  in
  let base = run Uu_core.Pipelines.Baseline in
  let uu8 = run (Uu_core.Pipelines.Uu 8) in
  check bool "u&u-8 code larger" true (uu8.Kernel.code_bytes > 4 * base.Kernel.code_bytes);
  check bool "u&u-8 fetch stalls higher" true
    (Metrics.stall_inst_fetch uu8.Kernel.metrics
    > Metrics.stall_inst_fetch base.Kernel.metrics)

let test_atomics_across_warps () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int n) {
  int tid = threadIdx.x + blockIdx.x * blockDim.x;
  if (tid < n) { int old = atomicAdd(&out[0], 1); out[1] = old * 0 + n; }
}
|}
  in
  let mem = Memory.create () in
  let out = Memory.zeros_i64 mem 2 in
  ignore
    (Kernel.exec mem fn ~grid_dim:4 ~block_dim:64
       ~args:[ Kernel.Buf out; Kernel.Int_arg 200L ]);
  check Alcotest.int64 "200 atomic increments" 200L (Memory.read_i64 out).(0)

let test_runaway_guard () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int n) {
  int i = 0;
  while (n == n) { i = i + 1; }
  out[0] = i;
}
|}
  in
  let mem = Memory.create () in
  let out = Memory.zeros_i64 mem 1 in
  check bool "infinite loop detected" true
    (try
       ignore
         (Kernel.exec ~config:(Kernel.config ~max_warp_cycles:10_000 ()) mem fn ~grid_dim:1 ~block_dim:32
            ~args:[ Kernel.Buf out; Kernel.Int_arg 1L ]);
       false
     with Failure msg -> Astring.String.is_infix ~affix:"cycles" msg)

(* A multi-run launch keeps each run's runaway guard. With the budget
   between the seeds' peak warp clocks, the seed over budget fails as
   its one-run launch does: run 0 raises the same [Failure], a later run
   gets [Error] with the same text while the others complete exactly as
   their one-run launches. With the budget at the highest peak, no run
   fails. *)
let test_runaway_guard_runs () =
  let app = Option.get (Uu_benchmarks.Registry.find "treduce-128") in
  let m = Uu_frontend.Lower.compile ~name:app.Uu_benchmarks.App.name app.Uu_benchmarks.App.source in
  let exec ~limit noises =
    let instance = app.Uu_benchmarks.App.setup (Uu_support.Rng.create 0x5EEDL) in
    let l = List.hd instance.Uu_benchmarks.App.launches in
    let f = Option.get (Func.find_func m l.Uu_benchmarks.App.kernel) in
    Kernel.exec_runs
      ~config:(Kernel.config ~max_warp_cycles:limit ())
      ~noises:(Array.map (fun s -> Some (Uu_support.Rng.create s)) noises)
      instance.Uu_benchmarks.App.mem f ~grid_dim:l.Uu_benchmarks.App.grid_dim
      ~block_dim:l.Uu_benchmarks.App.block_dim ~args:l.Uu_benchmarks.App.args
  in
  let one ~limit seed =
    match (exec ~limit [| seed |]).(0) with
    | r -> r
    | exception Failure msg -> Error msg
  in
  (* The smallest budget a seed's one-run launch survives. *)
  let peak seed =
    let lo = ref 0 and hi = ref 200_000_000 in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if Result.is_ok (one ~limit:mid seed) then hi := mid else lo := mid
    done;
    !hi
  in
  let seeds = [| 1L; 2L; 5L |] in
  let peaks = Array.map peak seeds in
  let top = Array.fold_left max 0 peaks in
  check bool "some seed stays under the highest peak" true (Array.exists (fun p -> p < top) peaks);
  let limit = top - 1 in
  let same what a b =
    match (a, b) with
    | Ok (a : Kernel.result), Ok (b : Kernel.result) ->
      check bool (what ^ ": metrics") true (a.Kernel.metrics = b.Kernel.metrics);
      check bool (what ^ ": kernel cycles") true (a.Kernel.kernel_cycles = b.Kernel.kernel_cycles)
    | Error a, Error b -> check Alcotest.string what b a
    | _ -> Alcotest.failf "%s: one fails, the other does not" what
  in
  (* Every rotation of the seeds, so the failing seed is run 0 in one of
     them and a later run in the others. *)
  for r = 0 to 2 do
    let order = Array.init 3 (fun i -> seeds.((i + r) mod 3)) in
    let singles = Array.map (one ~limit) order in
    match exec ~limit order with
    | runs ->
      check bool "run 0 completed" true (Result.is_ok singles.(0));
      Array.iteri (fun i run -> same (Printf.sprintf "rotation %d, run %d" r i) run singles.(i)) runs
    | exception Failure msg ->
      check bool "run 0 over budget" true (Result.is_error singles.(0));
      same (Printf.sprintf "rotation %d, run 0" r) (Error msg) singles.(0)
  done;
  Array.iter
    (fun run -> check bool "under the highest peak, every run completes" true (Result.is_ok run))
    (exec ~limit:top seeds)

(* Both runs still validate: [run_exn] raises on an oracle mismatch. *)
let test_noise_changes_cycles_not_results () =
  let app = Uu_benchmarks.Bezier_surface.app in
  let m1 = Uu_harness.Runner.run_exn ~noise_seed:1L app Uu_core.Pipelines.Baseline in
  let m2 = Uu_harness.Runner.run_exn ~noise_seed:2L app Uu_core.Pipelines.Baseline in
  check bool "noise perturbs time" true (m1.Uu_harness.Runner.kernel_ms <> m2.Uu_harness.Runner.kernel_ms)

let test_trace_records_schedule () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int n) {
  int tid = threadIdx.x;
  if (tid & 1) { out[tid] = 1; } else { out[tid] = 2; }
}
|}
  in
  let mem = Memory.create () in
  let out = Memory.zeros_i64 mem 32 in
  let tracer = Trace.create () in
  ignore
    (Kernel.exec ~config:(Kernel.config ~tracer ()) mem fn ~grid_dim:1 ~block_dim:32
       ~args:[ Kernel.Buf out; Kernel.Int_arg 0L ]);
  let evs = Trace.events tracer in
  check bool "events recorded" true (List.length evs >= 3);
  check bool "first event is the entry with full mask" true
    (match evs with
    | e :: _ ->
      e.Trace.label = fn.Uu_ir.Func.entry
      && Uu_support.Mask.popcount e.Trace.mask = 32
    | [] -> false);
  (* The divergent diamond shows at least two distinct partial masks. *)
  check bool "divergent groups appear" true
    (Trace.max_concurrent_groups tracer ~block_id:0 ~warp_id:0 >= 2);
  check bool "render works" true (String.length (Trace.render fn tracer) > 0)

let test_pre_volta_ablation () =
  (* Without ITS latency hiding, divergent code pays full latency per
     group: the pre-Volta device can only be slower on a divergent
     latency-bound kernel. *)
  let src =
    {|
kernel k(int* restrict out, const int* restrict a, int n) {
  int tid = threadIdx.x;
  int acc = 0;
  int i = 0;
  while (i < n) {
    if ((i + tid) & 1) { acc = acc + a[(acc & 511)]; } else { acc = acc + a[(acc & 255) + 256]; }
    i = i + 1;
  }
  out[tid] = acc;
}
|}
  in
  let run device =
    let fn = Ir_helpers.compile_one src in
    ignore (Uu_core.Pipelines.optimize (Uu_core.Pipelines.Uu 2) fn);
    let mem = Memory.create () in
    let a = Memory.zeros_i64 mem 1024 in
    let out = Memory.zeros_i64 mem 32 in
    let r =
      Kernel.exec ~config:(Kernel.config ~device ()) mem fn ~grid_dim:1 ~block_dim:32
        ~args:[ Kernel.Buf out; Kernel.Buf a; Kernel.Int_arg 12L ]
    in
    r.Kernel.metrics.Metrics.cycles
  in
  check bool "ITS hides latency across divergent groups" true
    (run Device.v100 < run Device.pre_volta)

let test_kernel_time_concurrency () =
  let m = Metrics.create () in
  m.Metrics.cycles <- 1000;
  m.Metrics.warps_launched <- 10;
  check (Alcotest.float 1e-9) "divided by resident warps" 100.0
    (Metrics.kernel_time m ~device:Device.v100);
  m.Metrics.warps_launched <- 1000;
  check (Alcotest.float 1e-9) "capped at max resident" (1000.0 /. 64.0)
    (Metrics.kernel_time m ~device:Device.v100)

(* --- block-scoped shared memory ------------------------------------ *)

(* Promote locals first: alloca arenas live in the shared bank too, and
   these tests pin exact counters for the declared arrays alone. *)
let run_shared ?(engine = Kernel.Decoded) ?(grid = 2) src =
  let fn = Ir_helpers.compile_one src in
  ignore (Uu_opt.Pass.exec [ Uu_opt.Mem2reg.pass ] fn);
  let mem = Memory.create () in
  let out = Memory.zeros_f64 mem (grid * 32) in
  let r =
    Kernel.exec ~config:(Kernel.config ~engine ()) mem fn ~grid_dim:grid ~block_dim:32
      ~args:[ Kernel.Buf out; Kernel.Int_arg (Int64.of_int (grid * 32)) ]
  in
  (r.Kernel.metrics, Memory.read_f64 out)

(* Shared banks are zero-reset at block entry: a kernel that increments
   the reset value sees 1.0 in EVERY block, not an accumulation across
   the (sequentially simulated) grid. *)
let test_shared_reset_per_block () =
  let src =
    {|kernel k(float* restrict out, int n) {
        __shared__ float s[32];
        int lid = threadIdx.x;
        s[lid] = s[lid] + 1.0;
        __syncthreads();
        int gid = lid + blockIdx.x * blockDim.x;
        if (gid < n) { out[gid] = s[lid]; }
      }|}
  in
  List.iter
    (fun engine ->
      let m, out = run_shared ~engine ~grid:4 src in
      check bool "every block read the reset bank" true
        (Array.for_all (fun v -> v = 1.0) out);
      (* Two shared reads per lane (the increment and the copy-out), one
         shared write. *)
      check int "shared loads counted" (2 * 4 * 32 * 8) m.Metrics.sld_bytes;
      check int "shared stores counted" (4 * 32 * 8) m.Metrics.sst_bytes)
    [ Kernel.Reference; Kernel.Decoded ]

(* The bank model: 32 banks of 8 bytes. Unit-stride f64 access touches
   every bank once (1 replay, no conflict); stride-2 folds lanes l and
   l+16 onto the same bank with distinct words (2 replays, 1 conflict
   per access); a same-word broadcast is deduplicated before banking and
   never conflicts. *)
let stride2 =
  {|kernel k(float* restrict out, int n) {
      __shared__ float s[64];
      int lid = threadIdx.x;
      s[lid * 2] = 1.0;
      __syncthreads();
      out[lid + blockIdx.x * blockDim.x] = s[lid * 2];
    }|}

let broadcast =
  {|kernel k(float* restrict out, int n) {
      __shared__ float s[4];
      if (threadIdx.x == 0) { s[0] = 3.0; }
      __syncthreads();
      out[threadIdx.x + blockIdx.x * blockDim.x] = s[0];
    }|}

(* The cost model called directly, against hand-computed charges for
   canonical warp accesses: 32 active lanes, f64 elements, a cold L1,
   noise off. Each case runs its accesses in order on one fresh warp and
   checks what each adds to (cycles, mem_transactions,
   shared_transactions, shared_bank_conflicts). *)
let test_cost_model () =
  let mem = Memory.create () in
  let global = Memory.buffer_id (Memory.zeros_f64 mem 512) in
  let smem = Memory.shared_create [ (Types.F64, 64) ] in
  let shared = -2 in
  let mask = Uu_support.Mask.bits (Uu_support.Mask.full ~width:32) in
  let load streams cost = Cost.load cost ~mask ~bytes:8 ~streams in
  let store cost = Cost.store cost ~mask ~bytes:8 in
  let atomic cost = Cost.atomic cost ~mask in
  let run (name, device, accesses) =
    let cost =
      Cost.create device ~mem ~smem
        ~dcache:(Cache.create ~capacity:device.Device.l1_lines)
        ~icache:(Layout.icache_create device) ~races:None ~fn_name:"k" ~warp_id:0
    in
    Cost.start cost ~noise:None ~block_id:0 ~lanes:32;
    let m = Cost.metrics cost in
    let counters () =
      Metrics.
        [ m.cycles; m.mem_transactions; m.shared_transactions; m.shared_bank_conflicts ]
    in
    List.iteri
      (fun i (buffer, offset, charge, want) ->
        for lane = 0 to 31 do
          (Cost.addr_buf cost).(lane) <- buffer;
          (Cost.addr_off cost).(lane) <- offset lane
        done;
        let before = counters () in
        charge cost;
        check (Alcotest.list int) (Printf.sprintf "%s, access %d" name i) want
          (List.map2 ( - ) (counters ()) before))
      accesses
  in
  List.iter run
    [
      ( "coalesced load, then again from L1",
        Device.v100,
        [ (global, Fun.id, load 1, [ 65; 2; 0; 0 ]); (global, Fun.id, load 1, [ 5; 2; 0; 0 ]) ]
      );
      ("stride-16 load", Device.v100, [ (global, (fun l -> 16 * l), load 1, [ 305; 32; 0; 0 ]) ]);
      ("coalesced load, 2 streams", Device.v100, [ (global, Fun.id, load 2, [ 41; 2; 0; 0 ]) ]);
      ( "coalesced load, 2 streams, pre-Volta",
        Device.pre_volta,
        [ (global, Fun.id, load 2, [ 65; 2; 0; 0 ]) ] );
      ("shared load, stride 2", Device.v100, [ (shared, (fun l -> 2 * l), load 1, [ 9; 0; 2; 1 ]) ]);
      ("shared broadcast", Device.v100, [ (shared, (fun _ -> 0), load 1, [ 7; 0; 1; 0 ]) ]);
      ("coalesced store", Device.v100, [ (global, Fun.id, store, [ 17; 2; 0; 0 ]) ]);
      ("global atomic", Device.v100, [ (global, Fun.id, atomic, [ 256; 32; 0; 0 ]) ]);
    ]

let test_shared_bank_conflicts () =
  List.iter
    (fun engine ->
      let m, _ = run_shared ~engine ~grid:1 stride2 in
      (* One store + one load, each 2-way conflicted. *)
      check int "stride-2 replays" 4 m.Metrics.shared_transactions;
      check int "stride-2 conflicts" 2 m.Metrics.shared_bank_conflicts;
      let m, out = run_shared ~engine ~grid:1 broadcast in
      check int "broadcast is one transaction each way" 2
        m.Metrics.shared_transactions;
      check int "broadcast never conflicts" 0 m.Metrics.shared_bank_conflicts;
      check bool "broadcast value delivered" true
        (Array.for_all (fun v -> v = 3.0) out))
    [ Kernel.Reference; Kernel.Decoded ]

(* Both engines must agree on the shared-memory counters exactly, like
   every other metric. *)
let test_shared_engines_agree () =
  List.iter
    (fun src ->
      let mr, outr = run_shared ~engine:Kernel.Reference src in
      let md, outd = run_shared ~engine:Kernel.Decoded src in
      check bool "metrics byte-identical" true (mr = md);
      check bool "memory byte-identical" true (outr = outd))
    [ stride2; broadcast ]

let test_shared_out_of_bounds () =
  let src =
    {|kernel k(float* restrict out, int n) {
        __shared__ float s[8];
        s[threadIdx.x] = 1.0;
        out[threadIdx.x + blockIdx.x * blockDim.x] = 0.0;
      }|}
  in
  List.iter
    (fun engine ->
      check bool "shared overrun fails" true
        (try
           ignore (run_shared ~engine src);
           false
         with Failure msg ->
           Astring.String.is_infix ~affix:"out of bounds" msg))
    [ Kernel.Reference; Kernel.Decoded ]

(* --- the barrier scheduler (multi-warp blocks) ---------------------- *)

let run_block ?(engine = Kernel.Decoded) ?(grid = 2) ~block src =
  let fn = Ir_helpers.compile_one src in
  let mem = Memory.create () in
  let out = Memory.zeros_f64 mem (grid * block) in
  let r =
    Kernel.exec ~config:(Kernel.config ~engine ()) mem fn ~grid_dim:grid
      ~block_dim:block
      ~args:[ Kernel.Buf out; Kernel.Int_arg (Int64.of_int (grid * block)) ]
  in
  (r.Kernel.metrics, Memory.read_f64 out)

(* Warp 0 stages 3.0, warp 1 stages 5.0; after the barrier every thread
   reads its partner's cell one warp over. Under run-to-completion warp
   order, warp 0 would read zeros (warp 1 had not run yet) — the exact
   case memory-model.md used to document as a known limitation. *)
let cross_warp_swap =
  {|kernel k(float* restrict out, int n) {
      __shared__ float s[64];
      int lid = threadIdx.x;
      float v = 3.0;
      if (lid > 31) { v = 5.0; }
      s[lid] = v;
      __syncthreads();
      int partner = lid + 32;
      if (partner > 63) { partner = partner - 64; }
      int gid = lid + blockIdx.x * blockDim.x;
      if (gid < n) { out[gid] = s[partner]; }
    }|}

let test_cross_warp_dataflow () =
  let runs =
    List.map
      (fun engine -> run_block ~engine ~block:64 cross_warp_swap)
      [ Kernel.Reference; Kernel.Decoded ]
  in
  List.iter
    (fun ((_ : Metrics.t), out) ->
      Array.iteri
        (fun i v ->
          let expected = if i mod 64 < 32 then 5.0 else 3.0 in
          check (Alcotest.float 0.0)
            (Printf.sprintf "out[%d] crossed the warp boundary" i)
            expected v)
        out)
    runs;
  match runs with
  | [ (mr, outr); (md, outd) ] ->
    check bool "metrics byte-identical at block_dim 64" true (mr = md);
    check bool "memory byte-identical at block_dim 64" true (outr = outd)
  | _ -> assert false

(* Warp 0 burns a 64-iteration loop before the barrier while warp 1
   arrives almost immediately: the scheduler settles the block clock at
   release and charges warp 1 the difference as barrier_wait_cycles. A
   single-warp block is always alone at the barrier and never waits. *)
let lopsided =
  {|kernel k(float* restrict out, int n) {
      __shared__ float s[64];
      int lid = threadIdx.x;
      float acc = 0.0;
      if (lid < 32) {
        int i = 0;
        while (i < 64) { acc = acc + 1.0; i = i + 1; }
      }
      s[lid] = acc;
      __syncthreads();
      int gid = lid + blockIdx.x * blockDim.x;
      if (gid < n) { out[gid] = s[63 - lid]; }
    }|}

let test_barrier_wait_accounted () =
  List.iter
    (fun engine ->
      let m64, out = run_block ~engine ~grid:1 ~block:64 lopsided in
      Array.iteri
        (fun i v ->
          (* Reverse-indexed copy-out: the slow warp's 64.0 partials land
             in the fast warp's half and vice versa. *)
          let expected = if i < 32 then 0.0 else 64.0 in
          check (Alcotest.float 0.0) (Printf.sprintf "out[%d]" i) expected v)
        out;
      check bool "the fast warp waited at the barrier" true
        (m64.Metrics.barrier_wait_cycles > 0);
      let m32, _ = run_block ~engine ~grid:1 ~block:32 lopsided in
      check int "a single-warp block never waits" 0
        m32.Metrics.barrier_wait_cycles)
    [ Kernel.Reference; Kernel.Decoded ]

(* __syncthreads() must be barrier-uniform at both granularities: a
   partially-active warp trips the executor, and a warp that exits while
   a sibling waits trips the scheduler. Both engines raise the same
   message, which names the offending shape. *)
let test_divergent_barrier_traps () =
  let expect_trap ~block ~affix src =
    List.iter
      (fun engine ->
        check bool (Printf.sprintf "trap mentions %S" affix) true
          (try
             ignore (run_block ~engine ~grid:1 ~block src);
             false
           with Failure msg ->
             Astring.String.is_infix ~affix:"divergent __syncthreads()" msg
             && Astring.String.is_infix ~affix msg))
      [ Kernel.Reference; Kernel.Decoded ]
  in
  expect_trap ~block:32 ~affix:"16 of 32 lanes"
    {|kernel k(float* restrict out, int n) {
        if (threadIdx.x < 16) { __syncthreads(); }
        out[threadIdx.x] = 1.0;
      }|};
  expect_trap ~block:64 ~affix:"1 of 2 warps"
    {|kernel k(float* restrict out, int n) {
        if (threadIdx.x < 32) { __syncthreads(); }
        out[threadIdx.x + blockIdx.x * blockDim.x] = 1.0;
      }|}

let suite =
  [
    ("memory round trip", `Quick, test_memory_round_trip);
    ("memory bounds checking", `Quick, test_memory_bounds);
    ("memory atomics", `Quick, test_memory_atomic);
    ("LRU cache", `Quick, test_cache_lru);
    ("launch validation", `Quick, test_launch_validation);
    ("thread indexing", `Quick, test_thread_indexing);
    ("divergence counted", `Quick, test_divergence_counted);
    ("uniform runs at full efficiency", `Quick, test_uniform_full_efficiency);
    ("reconvergence per-lane correctness", `Quick, test_reconvergence_correctness);
    ("selects count as misc", `Quick, test_select_counts_misc);
    ("memory coalescing", `Quick, test_coalescing);
    ("icache pressure from duplication", `Quick, test_icache_pressure);
    ("atomics across warps", `Quick, test_atomics_across_warps);
    ("runaway loop guard", `Quick, test_runaway_guard);
    ("runaway guard per run", `Quick, test_runaway_guard_runs);
    ("noise affects time not results", `Quick, test_noise_changes_cycles_not_results);
    ("execution trace", `Quick, test_trace_records_schedule);
    ("pre-Volta ITS ablation", `Quick, test_pre_volta_ablation);
    ("kernel time concurrency model", `Quick, test_kernel_time_concurrency);
    ("shared memory reset per block", `Quick, test_shared_reset_per_block);
    ("cost model table", `Quick, test_cost_model);
    ("shared bank conflicts", `Quick, test_shared_bank_conflicts);
    ("shared metrics engine agreement", `Quick, test_shared_engines_agree);
    ("shared out of bounds", `Quick, test_shared_out_of_bounds);
    ("cross-warp shared dataflow", `Quick, test_cross_warp_dataflow);
    ("barrier wait accounting", `Quick, test_barrier_wait_accounted);
    ("divergent barrier traps", `Quick, test_divergent_barrier_traps);
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        cache_model_prop 1 300;
        cache_model_prop 2 300;
        cache_model_prop 96 100;
        cache_model_prop 1024 30;
      ]
