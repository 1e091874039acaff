open Uu_ir
open Uu_support

type t = {
  d : Device.t;
  mem : Memory.view;
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
  mutable block_id : int;
  mutable lanes : int;
  mutable epoch : int;
  (* One clock per run of a multi-run launch. Run 0 is [m] itself; the
     arrays below are indexed by run, and their slot 0 is unused except
     [jitter.(0)]. *)
  runs : int;
  jitter : float array;  (* the warp's DRAM jitter factor, by run *)
  clocks : int array;  (* run k's cycles at the last settle *)
  waits : int array;  (* run k's barrier wait cycles *)
  over : bool array;  (* run k's runaway guard tripped in this slot *)
  hist : int array;  (* DRAM accesses this interval, by miss count *)
  touched : int array;  (* the miss counts with [hist] > 0 *)
  mutable ntouched : int;
  mutable base : int;  (* [m.cycles] at the last settle *)
  mutable hi : float;  (* the largest jitter among run 0 and live runs *)
  mutable lead : int;  (* >= every live run's clock minus [m.cycles] *)
}

let create ?(runs = 1) d ~mem ~dcache ~icache ~races ~fn_name ~warp_id =
  let ws = d.Device.warp_size in
  {
    d;
    mem;
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
    block_id = 0;
    lanes = 0;
    epoch = 0;
    runs;
    jitter = Array.make runs 1.0;
    clocks = Array.make runs 0;
    waits = Array.make runs 0;
    over = Array.make runs false;
    hist = Array.make (ws + 1) 0;
    touched = Array.make (ws + 1) 0;
    ntouched = 0;
    base = 0;
    hi = 1.0;
    lead = 0;
  }

(* The per-warp memory jitter factor is the source of run-to-run
   variance. [noise] is the block's private stream and the launcher
   starts a block's warps in ascending warp order, so the draw sequence
   is a function of (block, warp) alone, not of grid execution order. *)
let draw_jitter = function
  | Some rng -> Float.max 0.5 (Rng.gaussian rng ~mean:1.0 ~stddev:0.03)
  | None -> 1.0

let start t ~noise ~block_id ~lanes =
  let m = Metrics.create () in
  m.Metrics.warps_launched <- 1;
  t.m <- m;
  let j = draw_jitter noise in
  t.jitter.(0) <- j;
  t.hi <- j;
  t.lead <- 0;
  t.base <- 0;
  if t.runs > 1 then begin
    Array.fill t.clocks 0 t.runs 0;
    Array.fill t.waits 0 t.runs 0
  end;
  t.block_id <- block_id;
  t.lanes <- lanes

let draw t ~run noise =
  let j = draw_jitter noise in
  t.jitter.(run) <- j;
  if (not t.over.(run)) && j > t.hi then t.hi <- j

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

let record_shared t r lane access =
  Racecheck.record_shared r ~block_id:t.block_id
    ~thread_id:((t.warp_id * t.d.Device.warp_size) + lane)
    ~slot:(Memory.shared_slot t.buf.(lane)) ~offset:t.off.(lane) ~epoch:t.epoch access

(* The DRAM charge of an access that missed [misses] segments. *)
let[@inline] dram_cycles d jitter misses =
  int_of_float (Float.round (jitter *. float_of_int (d.Device.mem_transaction_cost * misses)))

(* Runs 1.. of a multi-run launch: count the access by miss count for
   [settle], and raise the guard's lead by what the largest live jitter
   could charge over run 0's [dram]. *)
let tally t misses ~dram =
  if t.hist.(misses) = 0 then begin
    t.touched.(t.ntouched) <- misses;
    t.ntouched <- t.ntouched + 1
  end;
  t.hist.(misses) <- t.hist.(misses) + 1;
  t.lead <- t.lead + (dram_cycles t.d t.hi misses - dram)

(* One walk over the staged lanes in ascending order. A global lane
   falls in a (buffer, segment) and a shared lane on a (buffer, bank
   word); lanes with the same key share one transaction, or one
   broadcast word. Keys are deduplicated in first-touching-lane order, so
   the L1's LRU touch sequence is deterministic, and each distinct
   shared word queues on its bank. Buffer ids are distinct across the
   two spaces, so one [seen] list serves both. Lanes of an access mostly
   name one buffer, so [Memory] is asked a buffer's space and element
   size once per run of lanes on it. *)
let access t ~mask ~bytes ~write ~streams =
  let d = t.d in
  let active = ref 0 and shared = ref 0 and replays = ref 0 in
  let hits = ref 0 and misses = ref 0 and nseen = ref 0 in
  (* The buffer last asked about (none yet: no id is [min_int]). *)
  let cur = ref min_int and cur_shared = ref false and cur_esz = ref 0 in
  let mm = ref mask and l = ref 0 in
  while !mm <> 0 do
    if !mm land 1 <> 0 then begin
      incr active;
      let buffer = t.buf.(!l) and offset = t.off.(!l) in
      if buffer <> !cur then begin
        cur := buffer;
        cur_shared := Memory.is_shared buffer;
        cur_esz := Memory.elt_size t.mem ~buffer_id:buffer
      end;
      let in_shared = !cur_shared in
      (match t.races with
      | Some r when in_shared ->
        record_shared t r !l (if write then Racecheck.Write else Racecheck.Read)
      | Some r when write -> Racecheck.record r ~block_id:t.block_id ~buffer ~offset
      | _ -> ());
      let granule =
        if in_shared then begin
          if !shared = 0 then Array.fill t.banks 0 (Array.length t.banks) 0;
          incr shared;
          offset * !cur_esz / d.Device.shared_bank_bytes
        end
        else offset * !cur_esz / d.Device.transaction_bytes
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
  let misses = !misses in
  let dram = dram_cycles d t.jitter.(0) misses in
  if misses > 0 && t.runs > 1 then tally t misses ~dram;
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
        if Memory.is_shared buffer then record_shared t r !l Racecheck.Atomic
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

(* --- the other runs' clocks ---------------------------------------- *)

(* Run [run]'s DRAM cycles since the last settle, minus run 0's. Each
   access charged round(jitter * cost * misses), so count times that
   rounded charge, summed over the miss counts, is exactly the sum of
   the per-access charges. *)
let dram_excess t run =
  let d = t.d and j0 = t.jitter.(0) and jk = t.jitter.(run) in
  let x = ref 0 in
  for i = 0 to t.ntouched - 1 do
    let misses = t.touched.(i) in
    x := !x + (t.hist.(misses) * (dram_cycles d jk misses - dram_cycles d j0 misses))
  done;
  !x

(* Every charge but DRAM is the same in every run, so run [run]'s clock
   moves with [m.cycles] plus its own DRAM excess. *)
let now t run = t.clocks.(run) + (t.m.Metrics.cycles - t.base) + dram_excess t run

let settle t =
  if t.runs > 1 then begin
    for run = 1 to t.runs - 1 do
      t.clocks.(run) <- now t run
    done;
    for i = 0 to t.ntouched - 1 do
      t.hist.(t.touched.(i)) <- 0
    done;
    t.ntouched <- 0;
    t.base <- t.m.Metrics.cycles
  end

let clock t ~run = if run = 0 then t.m.Metrics.cycles else t.clocks.(run)

let release t ~run time =
  if run = 0 then begin
    let m = t.m in
    m.Metrics.barrier_wait_cycles <- m.Metrics.barrier_wait_cycles + (time - m.Metrics.cycles);
    m.Metrics.cycles <- time;
    t.base <- time;
    t.lead <- 0
  end
  else begin
    t.waits.(run) <- t.waits.(run) + (time - t.clocks.(run));
    t.clocks.(run) <- time;
    if not t.over.(run) then t.lead <- max t.lead (time - t.m.Metrics.cycles)
  end

let add_run t ~run acc =
  let m = t.m in
  Metrics.add acc m;
  if run > 0 then begin
    acc.Metrics.cycles <- acc.Metrics.cycles + (t.clocks.(run) - m.Metrics.cycles);
    acc.Metrics.barrier_wait_cycles <-
      acc.Metrics.barrier_wait_cycles + (t.waits.(run) - m.Metrics.barrier_wait_cycles)
  end

(* --- the runaway guard ---------------------------------------------- *)

let overrun_message ~limit fn_name =
  Printf.sprintf "simulator: warp exceeded %d cycles in @%s (infinite loop?)" limit fn_name

(* The lead tripped: run 0 over budget fails the launch; otherwise check
   every live run exactly, retire the ones over budget, and tighten the
   lead and the jitter bound to the runs still live. *)
let overrun t ~limit =
  let m = t.m in
  if m.Metrics.cycles > limit then failwith (overrun_message ~limit t.fn_name);
  let lead = ref 0 and hi = ref t.jitter.(0) in
  for run = 1 to t.runs - 1 do
    if not t.over.(run) then begin
      let c = now t run in
      if c > limit then t.over.(run) <- true
      else begin
        lead := max !lead (c - m.Metrics.cycles);
        hi := Float.max !hi t.jitter.(run)
      end
    end
  done;
  t.lead <- !lead;
  t.hi <- !hi

let[@inline] guard t ~limit = if t.m.Metrics.cycles + t.lead > limit then overrun t ~limit
let overran t ~run = t.over.(run)
