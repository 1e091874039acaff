(** The decoded engine: the {!Warp} machine run over a pre-decoded flat
    program ({!Decode}) — unboxed per-class register files, dense int
    block ids, baked post-dominators and icache extents. Value semantics,
    control flow, and failures replicate the reference engine
    ({!Warp.make}) exactly, and both charge through {!Cost}, so metrics
    are identical for any program both engines can execute. *)

val shard :
  Decode.t ->
  Warp.env ->
  Cost.t ->
  block_id:int ->
  warp_id:int ->
  lanes:int ->
  Scheduler.warp
(** [shard prog env] allocates one register-file state per warp
    slot of a block and returns the shard's warp constructor, with
    {!Warp.make}'s contract. The states are reused by every block of the
    shard; suspension at a barrier stores only an instruction index, so
    nothing on the hot path boxes. *)
