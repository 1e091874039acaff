(** Inter-block write-overlap detection.

    Parallel block sharding assumes CUDA's contract that blocks of a
    launch write disjoint global memory (absent atomics): only then is
    final memory independent of block execution order. [--check-races]
    verifies the assumption empirically — attach a collector to
    {!Kernel.exec} via [races] and every global plain store records its
    cell against the writing block; {!overlaps} lists the cells written
    by more than one block. Global [Atomic_add] updates are recorded
    separately ({!record_atomic}): they commute under the deferred
    block-ordered commit ({!Atomics}), so atomic-only cells are never
    overlaps, while a cell mixing a plain write from one block with an
    atomic update from another is reported as one.

    Shared arrays are block-private, so they get a separate intra-block
    check instead: every shared access is logged against the barrier
    interval ("epoch") it happened in, and {!shared_races} lists the
    cells where two threads of one block conflicted between barriers
    (two distinct writers, a writer plus an independent reader, or an
    atomic update plus a plain access by another thread). Atomic updates
    commute, so a cell only atomics touched never races.

    Race checking no longer forces a serial launch: a sharded launch
    gives every shard a fresh private collector and {!merge}s them into
    the caller's at the join. Counters are order-independent sums and
    every reported list is sorted, so {!report} is byte-identical to a
    serial run's at any [sim_jobs] width. *)

type t

val version : string
(** Bumped whenever the report a launch produces for the same inputs
    changes; the keys of race-checked requests fold it in, so a cached
    report from older rules is never served. *)

type access = Read | Write | Atomic
(** How a shared access touched its cell: a plain load, a plain store, or
    an atomic update. *)

type overlap = {
  buffer : int;
  offset : int;
  blocks : int list;  (** sorted, distinct; always at least two *)
}

type shared_race = {
  s_block : int;
  s_slot : int;    (** shared declaration index, 0-based *)
  s_offset : int;
  s_epoch : int;   (** barrier interval: number of [__syncthreads]
                       barriers the block had released before the
                       access *)
  s_threads : int list;  (** sorted, distinct conflicting thread ids *)
}

val create : unit -> t

val record : t -> block_id:int -> buffer:int -> offset:int -> unit
(** Called by {!Cost} on every global plain store, once per active
    lane. Shared stores must NOT be recorded here — their ids repeat
    across blocks and would report false overlaps. *)

val record_atomic : t -> block_id:int -> buffer:int -> offset:int -> unit
(** Called by {!Cost} on every global [Atomic_add], once per active
    lane. Atomic-only cells never count as overlaps; a cell both
    plain-written and atomically updated by distinct blocks does. *)

val merge : into:t -> t -> unit
(** Fold a shard's collector into [into]. Deduplicates block and thread
    lists exactly as direct recording would, and sums the counters —
    merging the per-shard collectors of a launch in any order yields the
    same {!report} bytes as serial collection. *)

val record_shared :
  t ->
  block_id:int ->
  thread_id:int ->
  slot:int ->
  offset:int ->
  epoch:int ->
  access ->
  unit
(** Called by {!Cost} on every shared load, store, and atomic update,
    once per active lane. [thread_id] is the flat thread index
    within the block ([warp_id * warp_size + lane]); [epoch] is the
    block-global barrier interval maintained by the scheduler — the
    number of [__syncthreads] barriers the block has released so far. *)

val writes : t -> int
(** Total global plain writes recorded (lane grain). *)

val cells : t -> int
(** Distinct global (buffer, offset) cells plain-written. *)

val atomic_updates : t -> int
(** Total global atomic updates recorded (lane grain). *)

val atomic_cells : t -> int
(** Distinct global (buffer, offset) cells atomically updated. *)

val shared_accesses : t -> int
(** Total shared accesses recorded (lane grain: reads, writes and
    atomic updates). *)

val overlaps : t -> overlap list
(** Cells plain-written by ≥ 2 distinct blocks, plus cells plain-written
    by one block and atomically updated by a different one; sorted by
    (buffer, offset). Empty means block-order independence of final
    memory holds for this input (atomic-only cells are ordered by the
    deferred commit). *)

val shared_races : t -> shared_race list
(** Shared cells touched by conflicting threads of one block within a
    single barrier interval: at least two distinct plain writers, one
    writer plus a reader that is not the writer, or an atomic update
    plus a plain access by another thread. [s_threads] names the plain
    writers and readers, and the atomic updaters when an atomic
    conflicted. Sorted by (block, slot, offset, epoch). Empty means the
    kernel's shared accesses are properly synchronized for this
    input. *)

val report : t -> string
(** Human-readable summary covering both checks, one line per
    overlapping or racy cell. The atomics line is printed only when
    atomic updates were recorded, the shared section only when shared
    accesses were. *)
