(** The SIMT warp: the launch env both engines share, and the reference
    engine.

    A warp executes the kernel IR in lockstep over up to 32 lanes using a
    stack of (block, active-mask, reconvergence-point) entries. A
    divergent branch pushes a reconvergence entry at the branch block's
    immediate post-dominator plus one entry per taken path; path groups
    run serialized until they reach their reconvergence point — the
    standard stack-based reconvergence model, which is what makes the
    unmerged longer paths of u&u cost warp-execution efficiency exactly
    as the paper reports (§V).

    Two engines implement the machine: {!make}, a tree-walking
    interpreter over the IR and the oracle, and {!Decoded_warp}, which
    runs a pre-decoded flat program. An engine owns value semantics and
    control flow — per-lane registers, phi resolution by per-lane
    predecessor, the reconvergence stack — and charges each warp
    instruction with one call into {!Cost}, the one cost model.

    Warps are {e resumable}: an engine returns a {!Scheduler.warp} whose
    [step] runs the warp until it arrives at a [__syncthreads()] barrier
    or exits, keeping the live register, mask, and program-counter state
    alive across suspensions so the {!Scheduler} can interleave the warps
    of a block at barriers. *)

open Uu_ir

type env = {
  device : Device.t;
  fn : Func.t;
  mem : Memory.view;  (** global memory and the shard's shared bank *)
  args : (Value.var * Eval.rvalue) list;  (** parameter bindings *)
  block_dim : int;
  grid_dim : int;
  max_warp_cycles : int;  (** runaway-loop guard *)
  tracer : Trace.t option;  (** shard-private execution trace *)
  atomics : Atomics.t;  (** shard-private deferred atomics view *)
}
(** What both engines run under: launch-wide state, immutable during the
    grid walk, plus the shard's memory view and private sinks — {!Kernel}
    gives every shard its own copy with a fresh [mem] view, [tracer] and
    [atomics], so no field is ever mutated by two domains (global memory
    is written only at block-disjoint cells). The per-block state —
    caches, noise — is owned by the launch loop and reaches a warp
    through its {!Cost.t}. *)

val make :
  layout:Layout.t ->
  ipdom:(Value.label -> Value.label option) ->
  env ->
  Cost.t ->
  block_id:int ->
  warp_id:int ->
  lanes:int ->
  Scheduler.warp
(** The reference engine. [make ~layout ~ipdom env] is a shard's warp
    constructor: it creates one resumable warp of [lanes] ≤ warp size
    threads (lane 0 is thread [warp_id * warp_size] of block
    [block_id]), charging through [cost], which {!Cost.start} has armed
    for it. [layout] gives each block's icache lines, [ipdom] the
    immediate post-dominators. The
    warp's [step] raises [Failure] on interpreter errors (out-of-bounds
    access, type confusion, a barrier under a partial lane mask) or when
    run 0 exceeds [max_warp_cycles] ({!Cost.guard}). *)
