(** Atomic adds over a shard's {!Memory.view}, for any buffer id.

    A shared add applies in place at once: the cell is private to the
    block, so updates land in the order the block's threads make them.

    A global add is deferred. Each simulation shard owns one collector:
    during the grid walk a global [Atomic_add] never mutates memory. The
    first atomic touching a cell snapshots its pristine value, updates
    accumulate into the current block's private delta, and the returned
    old value is [pristine + the block's own accumulated delta] — a pure
    function of the block's deterministic execution, independent of
    [sim_jobs] and of which domain ran which other blocks.
    {!Kernel.exec} commits the shards' deltas in ascending block order
    after the join, so final memory (including the float summation
    order) is byte-identical at every width and on both engines.

    A cell plain-written by one block and atomically updated by another
    is an inter-block race (flagged by {!Racecheck}); such inputs have
    no well-defined result, as on real hardware. *)

open Uu_ir

type t

val create : Memory.view -> t
(** A fresh collector over a shard's view. One per shard per launch. *)

val addi : t -> block_id:int -> buffer:int -> offset:int -> int -> int
val addf : t -> block_id:int -> buffer:int -> offset:int -> float -> float
(** Apply one lane's atomic add for [block_id] and return the old value
    this block observes. Blocks of a shard must arrive in ascending
    order (they do: a shard walks its range in order).
    @raise Failure on unknown buffer, out-of-bounds, or element-type
    mismatch — the exact messages of {!Memory.atomic_addi}/[addf]. *)

val add : t -> block_id:int -> buffer:int -> offset:int -> Eval.rvalue -> Eval.rvalue
(** Boxed dispatch for the reference engine: the cell's checks precede
    the 63-bit fit check. *)

val commit : t -> unit
(** Apply every recorded per-block global delta to global memory, in
    ascending block order within this shard. Call exactly once, after
    the shard join, in ascending shard order. *)
