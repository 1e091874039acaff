open Uu_ir
open Uu_support

type t = {
  d : Device.t;
  mem : Memory.t;
  smem : Memory.shared_bank;
  dcache : Cache.t;
  icache : Layout.icache;
  races : Racecheck.t option;
  fn_name : string;
  warp_id : int;
  buf : int array;  (* staged buffer id, by lane *)
  off : int array;  (* staged offset, by lane *)
  seen : int array;  (* distinct segment / bank-word keys of one access *)
  banks : int array;  (* queue depth per shared bank of one access *)
  mutable m : Metrics.t;
  mutable jitter : float;
  mutable block_id : int;
  mutable lanes : int;
  mutable epoch : int;
}

let create d ~mem ~smem ~dcache ~icache ~races ~fn_name ~warp_id =
  let ws = d.Device.warp_size in
  {
    d;
    mem;
    smem;
    dcache;
    icache;
    races;
    fn_name;
    warp_id;
    buf = Array.make ws 0;
    off = Array.make ws 0;
    seen = Array.make ws 0;
    banks = Array.make (max 1 d.Device.shared_banks) 0;
    m = Metrics.create ();
    jitter = 1.0;
    block_id = 0;
    lanes = 0;
    epoch = 0;
  }

(* The per-warp memory jitter factor is the source of run-to-run
   variance. [noise] is the block's private stream and the launcher
   starts a block's warps in ascending warp order, so the draw sequence
   is a function of (block, warp) alone, not of grid execution order. *)
let start t ~noise ~block_id ~lanes =
  let m = Metrics.create () in
  m.Metrics.warps_launched <- 1;
  t.m <- m;
  t.jitter <-
    (match noise with
    | Some rng -> Float.max 0.5 (Rng.gaussian rng ~mean:1.0 ~stddev:0.03)
    | None -> 1.0);
  t.block_id <- block_id;
  t.lanes <- lanes

let metrics t = t.m
let addr_buf t = t.buf
let addr_off t = t.off
let set_epoch t epoch = t.epoch <- epoch

let binop_cost d = function
  | Instr.Sdiv | Instr.Udiv | Instr.Srem | Instr.Fdiv -> d.Device.div_cost
  | Instr.Fadd | Instr.Fsub | Instr.Fmul -> d.Device.fpu_cost
  | _ -> d.Device.alu_cost

let[@inline] charge t ~cycles ~active ~misc ~control ~memory =
  let m = t.m in
  m.Metrics.cycles <- m.Metrics.cycles + cycles;
  m.Metrics.warp_instrs <- m.Metrics.warp_instrs + 1;
  m.Metrics.thread_instrs <- m.Metrics.thread_instrs + active;
  m.Metrics.active_lane_sum <- m.Metrics.active_lane_sum + active;
  m.Metrics.inst_misc <- m.Metrics.inst_misc + misc;
  m.Metrics.inst_control <- m.Metrics.inst_control + control;
  m.Metrics.inst_memory <- m.Metrics.inst_memory + memory

let issue t ~cycles ~active = charge t ~cycles ~active ~misc:0 ~control:0 ~memory:0
let alu t ~active = issue t ~cycles:t.d.Device.alu_cost ~active
let intrinsic t ~active = issue t ~cycles:t.d.Device.intrinsic_cost ~active

let misc t ~active =
  charge t ~cycles:t.d.Device.alu_cost ~active ~misc:active ~control:0 ~memory:0

let branch t ~active =
  charge t ~cycles:t.d.Device.branch_cost ~active ~misc:0 ~control:active ~memory:0

let diverge t =
  t.m.Metrics.divergent_branches <- t.m.Metrics.divergent_branches + 1;
  t.m.Metrics.cycles <- t.m.Metrics.cycles + t.d.Device.divergence_penalty

let fetch t ~first ~last =
  let misses = ref 0 in
  for line = first to last do
    if Cache.touch t.icache line then incr misses
  done;
  if !misses > 0 then begin
    let stall = !misses * t.d.Device.fetch_miss_penalty in
    t.m.Metrics.cycles <- t.m.Metrics.cycles + stall;
    t.m.Metrics.fetch_stall_cycles <- t.m.Metrics.fetch_stall_cycles + stall
  end

let sync t ~mask =
  let active = Mask.popcount (Mask.of_bits mask) in
  if mask <> Mask.bits (Mask.full ~width:t.lanes) then
    failwith
      (Printf.sprintf
         "simulator: divergent __syncthreads() in @%s: warp %d of block %d hit \
          the barrier with %d of %d lanes"
         t.fn_name t.warp_id t.block_id active t.lanes);
  issue t ~cycles:t.d.Device.sync_cost ~active

let record_shared t r lane ~write =
  let buffer = t.buf.(lane) in
  Racecheck.record_shared r ~block_id:t.block_id
    ~thread_id:((t.warp_id * t.d.Device.warp_size) + lane)
    ~slot:(-2 - buffer) ~offset:t.off.(lane) ~epoch:t.epoch ~write

(* One walk over the staged lanes in ascending order. A global lane
   falls in a (buffer, segment) and a shared lane on a (buffer, bank
   word); lanes with the same key share one transaction, or one
   broadcast word. Keys are deduplicated in first-touching-lane order, so
   the L1's LRU touch sequence is deterministic, and each distinct
   shared word queues on its bank. Global keys are non-negative and
   shared keys negative (shared ids are below -1), so one [seen] list
   serves both spaces. *)
let access t ~mask ~bytes ~write ~streams =
  let d = t.d in
  let active = ref 0 and shared = ref 0 and replays = ref 0 in
  let hits = ref 0 and misses = ref 0 and nseen = ref 0 in
  let mm = ref mask and l = ref 0 in
  while !mm <> 0 do
    if !mm land 1 <> 0 then begin
      incr active;
      let buffer = t.buf.(!l) and offset = t.off.(!l) in
      let in_shared = buffer < -1 in
      (match t.races with
      | Some r when in_shared -> record_shared t r !l ~write
      | Some r when write -> Racecheck.record r ~block_id:t.block_id ~buffer ~offset
      | _ -> ());
      let granule =
        if in_shared then begin
          if !shared = 0 then Array.fill t.banks 0 (Array.length t.banks) 0;
          incr shared;
          let esz = Memory.shared_elt_size t.smem ~buffer_id:buffer in
          offset * esz / d.Device.shared_bank_bytes
        end
        else offset * Memory.elt_size t.mem ~buffer_id:buffer / d.Device.transaction_bytes
      in
      let key = (buffer lsl 32) lor granule in
      let k = ref 0 in
      while !k < !nseen && t.seen.(!k) <> key do
        incr k
      done;
      if !k = !nseen then begin
        t.seen.(!nseen) <- key;
        incr nseen;
        if in_shared then begin
          let bank = granule mod d.Device.shared_banks in
          t.banks.(bank) <- t.banks.(bank) + 1;
          if t.banks.(bank) > !replays then replays := t.banks.(bank)
        end
        else if Cache.touch t.dcache key then incr misses
        else incr hits
      end
    end;
    incr l;
    mm := !mm lsr 1
  done;
  let m = t.m and active = !active and shared = !shared and replays = !replays in
  m.Metrics.mem_transactions <- m.Metrics.mem_transactions + !hits + !misses;
  m.Metrics.shared_transactions <- m.Metrics.shared_transactions + replays;
  if replays > 1 then
    m.Metrics.shared_bank_conflicts <- m.Metrics.shared_bank_conflicts + (replays - 1);
  if write then begin
    m.Metrics.gst_bytes <- m.Metrics.gst_bytes + ((active - shared) * bytes);
    m.Metrics.sst_bytes <- m.Metrics.sst_bytes + (shared * bytes)
  end
  else begin
    m.Metrics.gld_bytes <- m.Metrics.gld_bytes + ((active - shared) * bytes);
    m.Metrics.sld_bytes <- m.Metrics.sld_bytes + (shared * bytes)
  end;
  (* A load waits for its data: DRAM on any miss, L1 on any hit, the
     shared pipe otherwise; under ITS the warp's live divergent groups
     hide it between them. *)
  let exposed =
    if write then 0
    else begin
      let latency =
        if !misses > 0 then d.Device.mem_dep_latency
        else if !hits > 0 then d.Device.l1_hit_latency
        else d.Device.smem_latency
      in
      if d.Device.its_latency_hiding then latency / max 1 streams else latency
    end
  in
  let dram =
    int_of_float
      (Float.round (t.jitter *. float_of_int (d.Device.mem_transaction_cost * !misses)))
  in
  charge t ~active ~misc:0 ~control:0 ~memory:active
    ~cycles:
      (d.Device.mem_issue_cost + (!hits * d.Device.l1_hit_cost) + dram
      + (replays * d.Device.smem_cost) + exposed)

let load t ~mask ~bytes ~streams = access t ~mask ~bytes ~write:false ~streams
let store t ~mask ~bytes = access t ~mask ~bytes ~write:true ~streams:1

(* Atomics serialize per lane. Shared-space atomics never touch the
   inter-block recorder: shared ids repeat across blocks. *)
let atomic t ~mask =
  (match t.races with
  | Some r ->
    let mm = ref mask and l = ref 0 in
    while !mm <> 0 do
      if !mm land 1 <> 0 then begin
        let buffer = t.buf.(!l) in
        if buffer < -1 then record_shared t r !l ~write:true
        else Racecheck.record_atomic r ~block_id:t.block_id ~buffer ~offset:t.off.(!l)
      end;
      incr l;
      mm := !mm lsr 1
    done
  | None -> ());
  let active = Mask.popcount (Mask.of_bits mask) in
  t.m.Metrics.mem_transactions <- t.m.Metrics.mem_transactions + active;
  charge t ~cycles:(t.d.Device.atomic_cost * max 1 active) ~active ~misc:0 ~control:0
    ~memory:active
