(** Execution tracing: records the sequence of (block, active-mask) steps
    each warp takes — the raw SIMT schedule. Used by tests to assert
    reconvergence behaviour and by humans to see divergence happen.

    Attach a fresh trace to {!Kernel.exec} via [tracer]; each executed
    block appends one event. Tracing no longer forces a serial launch:
    a sharded launch buffers events into per-shard traces and splices
    them in block order at the join, so the recorded stream is
    byte-identical at any [sim_jobs] width. *)

open Uu_ir
open Uu_support

type event = {
  block_id : int;    (** CUDA block *)
  warp_id : int;
  label : Value.label;
  mask : Mask.t;
}

type t

val create : ?limit:int -> unit -> t
(** Recording stops silently after [limit] events (default 100_000). *)

val record : t -> event -> unit

val limit : t -> int
(** The cutoff this trace was created with — per-shard traces copy it so
    sharded truncation matches serial truncation. *)

val append : into:t -> t -> unit
(** Splice a shard's buffered events onto [into], respecting [into]'s
    limit. Appending per-shard traces in ascending block order yields
    the byte-identical stream a serial run records. *)

val events : t -> event list
(** In execution order. *)

val max_concurrent_groups : t -> block_id:int -> warp_id:int -> int
(** Rough divergence witness: the maximum number of distinct masks seen
    between two visits of the same full-mask block for that warp. *)

val render : Func.t -> t -> string
(** One line per event: "b0.w1 bb12.body 11110000...". *)
