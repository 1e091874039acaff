(** The simulator's cost model, written once.

    Every cycle and counter a launch reports is charged here. Both warp
    engines — the reference interpreter ({!Warp}) and the decoded engine
    ({!Decoded_warp}) — perform a warp instruction's value semantics and
    control flow themselves and then make one call into this module for
    its cost; neither reads a cost field of {!Device.t}. The module owns
    the issue charge, the per-warp DRAM jitter, L1 coalescing, shared-bank
    replays, the miss/hit/shared latency choice and its hiding under
    Volta's independent thread scheduling (ITS), the transaction and byte
    counters, the race records of memory accesses, icache fetch stalls,
    the divergence penalty, and the barrier charge.

    Memory instructions hand over their addresses through a lane-indexed
    scratch: while performing lane [l]'s access, the engine writes the
    buffer id and offset to [(addr_buf t).(l)] and [(addr_off t).(l)],
    then calls {!load}, {!store}, or {!atomic} once with the
    instruction's lane mask (an int, lane [i] = bit [i]).

    A slot keeps one clock per run of a multi-run launch ({!Kernel.exec_runs}).
    Noise reaches only the DRAM charge, so run 0's clock is the warp's
    {!metrics}, charged inline as a one-run launch would, and runs 1..N−1
    are settled from a per-interval histogram of accesses by miss count
    at each barrier release and at warp exit. *)

open Uu_ir
open Uu_support

type t
(** One warp slot's accounting state: the block's caches, the shard's
    race collector, address scratch, and the current warp's counters.
    {!Kernel} creates one per warp slot of a shard and re-arms it with
    {!start} for every warp that runs in the slot. *)

val create :
  ?runs:int ->
  Device.t ->
  mem:Memory.t ->
  smem:Memory.shared_bank ->
  dcache:Cache.t ->
  icache:Layout.icache ->
  races:Racecheck.t option ->
  fn_name:string ->
  warp_id:int ->
  t
(** [dcache] is the block's L1 over [(buffer lsl 32) lor segment] keys,
    [icache] its instruction-line residency, [races] the shard's
    collector; the slot's warps are warp [warp_id] of their block.
    [runs] (default 1) is the number of clocks the slot keeps; its
    per-run arrays are allocated here, once per slot. *)

val start : t -> noise:Rng.t option -> block_id:int -> lanes:int -> unit
(** Begin a warp of [lanes] threads: fresh {!metrics}, every run's clock
    at zero, and run 0's gaussian jitter draw from [noise] — start a
    block's warps in ascending warp order so the draws are a function of
    (block, warp). *)

val draw : t -> run:int -> Rng.t option -> unit
(** After {!start}: run [run]'s (≥ 1) jitter draw from that run's block
    stream. *)

val metrics : t -> Metrics.t
(** The current warp's counters. *)

val addr_buf : t -> int array
val addr_off : t -> int array
(** The lane-indexed address scratch read by the next memory call. *)

val set_epoch : t -> int -> unit
(** The block's barrier interval, stamped on shared-access race records. *)

val binop_cost : Device.t -> Instr.binop -> int
(** Issue cycles of a binary op: divider, FPU, or ALU. {!Decode} bakes
    it into each decoded binop. *)

(** {1 Charges}

    Each call charges one warp instruction over [active] lanes (or the
    lanes of [mask]). *)

val issue : t -> cycles:int -> active:int -> unit
(** An instruction of the given issue cost, e.g. {!binop_cost}. *)

val alu : t -> active:int -> unit
val intrinsic : t -> active:int -> unit

val misc : t -> active:int -> unit
(** A select, or one phi's moves: an ALU op counted in [inst_misc], like
    the movs/selps of §V. *)

val branch : t -> active:int -> unit
(** A block terminator, counted in [inst_control]. *)

val diverge : t -> unit
(** A branch that split the warp: the counter and the divergence penalty. *)

val fetch : t -> first:int -> last:int -> unit
(** Entering a block whose code spans icache lines [first..last]: each
    missed line stalls the warp. *)

val sync : t -> mask:int -> unit
(** A [__syncthreads()].
    @raise Failure when [mask] is not the warp's full mask — the
    intra-warp divergent barrier; the scheduler traps the inter-warp
    form. *)

val load : t -> mask:int -> bytes:int -> streams:int -> unit
(** A load of [bytes] per lane. Global lanes coalesce into
    [transaction_bytes] segments (first-touching-lane order), each an L1
    hit or a DRAM miss; shared lanes replay once per entry of the deepest
    bank queue, same-word lanes broadcasting. The dependent latency is
    DRAM on any miss, L1 on any hit, the shared pipe otherwise, divided
    under ITS among the warp's [streams] live divergent groups. Records
    shared reads. *)

val store : t -> mask:int -> bytes:int -> unit
(** A store: {!load}'s transactions and replays, no latency. Records
    shared writes and global plain writes. *)

val atomic : t -> mask:int -> unit
(** An atomic add: serialized, one transaction per lane. Records shared
    writes and global atomic updates. *)

(** {1 Clocks}

    The barrier scheduler's view of a slot's runs. Run 0's clock is
    [(metrics t).cycles]; the others differ from it only by their DRAM
    jitter and their barrier waits. *)

val settle : t -> unit
(** Fold the interval's DRAM histogram into runs 1..N−1's clocks; call
    at a barrier, before {!clock}, and at warp exit. *)

val clock : t -> run:int -> int
(** Run [run]'s cycles as of the last {!settle}. *)

val release : t -> run:int -> int -> unit
(** [release t ~run time] advances run [run]'s clock to the barrier's
    release [time], charging the difference as barrier wait. Release
    run 0 first, then the others in ascending order. *)

val add_run : t -> run:int -> Metrics.t -> unit
(** Add the settled warp's metrics as run [run] saw them into an
    accumulator: {!metrics} with run [run]'s cycles and barrier wait. *)

(** {1 The runaway guard} *)

val guard : t -> limit:int -> unit
(** The per-warp cycle budget, checked at every block entry. Run 0 is
    checked exactly: over [limit], it raises [Failure] with
    {!overrun_message}, as a one-run launch does. Runs 1..N−1 are
    bounded by one inline lead, charged at the largest live jitter; when
    that bound trips, each live run is checked exactly and the ones over
    [limit] are marked {!overran} instead of raising, so run 0's own
    failures keep their order. *)

val overran : t -> run:int -> bool
(** Run [run] (≥ 1) exceeded the budget in a warp of this slot. *)

val overrun_message : limit:int -> string -> string
(** The [Failure] text of a warp of the named kernel over [limit]. *)
