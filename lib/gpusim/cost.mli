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
    instruction's lane mask (an int, lane [i] = bit [i]). *)

open Uu_ir
open Uu_support

type t
(** One warp slot's accounting state: the block's caches, the shard's
    race collector, address scratch, and the current warp's counters.
    {!Kernel} creates one per warp slot of a shard and re-arms it with
    {!start} for every warp that runs in the slot. *)

val create :
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
    collector; the slot's warps are warp [warp_id] of their block. *)

val start : t -> noise:Rng.t option -> block_id:int -> lanes:int -> unit
(** Begin a warp of [lanes] threads: fresh {!metrics} and one gaussian
    jitter draw from [noise] — start a block's warps in ascending warp
    order so the draws are a function of (block, warp). *)

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
