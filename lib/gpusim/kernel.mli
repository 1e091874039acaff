(** Kernel launching: argument binding, grid iteration, and metric
    aggregation — the simulator's replacement for [cudaLaunchKernel]
    plus nvprof. One launch loop runs both engines: an engine supplies
    only a per-shard warp constructor ({!Warp.make} or
    {!Decoded_warp.shard}), and every charge goes through {!Cost}. *)

open Uu_ir
open Uu_support

val semantics_version : string
(** Version of the simulator's observable semantics: bumped whenever a
    change alters the metrics or final memory a launch produces for the
    same inputs (cost-model changes, the per-block L1 switch, barrier
    scheduling, ...). The harness folds it into result-cache keys so
    entries computed under older semantics are never served. Engine
    choice and [sim_jobs] are deliberately {e not} part of it — they are
    metric-identical. *)

type arg =
  | Buf of Memory.buffer
  | Int_arg of int64
  | Float_arg of float

type result = {
  metrics : Metrics.t;               (** aggregated over all warps *)
  kernel_cycles : float;             (** summed warp cycles / concurrency *)
  code_bytes : int;                  (** laid-out size of this kernel *)
}

type engine =
  | Reference
      (** The original tree-walking interpreter over the IR ({!Warp}):
          the oracle for the decoded engine's values and control flow. *)
  | Decoded
      (** Executes the pre-decoded flat program ({!Decoded_warp}); the
          default. Metric-identical to [Reference]. *)

type launch_config = {
  device : Device.t;           (** simulated GPU model (default v100) *)
  noise : Rng.t option;        (** memory-latency jitter stream; [None]
                                   (the default) is fully deterministic;
                                   {!exec_runs} takes one per run instead *)
  max_warp_cycles : int;       (** per-warp cycle budget before the
                                   runaway-kernel guard trips *)
  tracer : Trace.t option;     (** instruction trace recorder; sharded
                                   launches buffer per shard and splice
                                   in block order *)
  races : Racecheck.t option;  (** write-set / shared-access collector;
                                   sharded launches collect per shard
                                   and merge in block order *)
  engine : engine;             (** execution engine (default [Decoded]) *)
  decode_cache : Decode.cache option;
      (** memoizes the per-(function, device) decode across launches —
          pass one cache for the lifetime of a compiled module (used
          only by the decoded engine) *)
  sim_jobs : int;
      (** shard the launch's blocks over this many OCaml domains
          (default 1); metrics are byte-identical for any value *)
}
(** Launch knobs travel in one record rather than a growing surface of
    optional arguments (the [Uu_opt.Pass.options] precedent): one-shot
    CLI runs, batch experiments, and the serve daemon all build the same
    typed value. *)

val default_config : launch_config
(** v100, no noise, 200M-cycle budget, no tracer or race collector,
    decoded engine, no decode cache, [sim_jobs = 1] — byte-identical to
    the historical defaults. *)

val config :
  ?device:Device.t ->
  ?noise:Rng.t ->
  ?max_warp_cycles:int ->
  ?tracer:Trace.t ->
  ?races:Racecheck.t ->
  ?engine:engine ->
  ?decode_cache:Decode.cache ->
  ?sim_jobs:int ->
  unit ->
  launch_config
(** Builder over {!default_config} for call sites that set one knob. *)

val exec :
  ?config:launch_config ->
  Memory.t ->
  Func.t ->
  grid_dim:int ->
  block_dim:int ->
  args:arg list ->
  result
(** Execute the kernel over [grid_dim] blocks of [block_dim] threads
    under the given configuration (default {!default_config}).
    Every block gets its own cold L1 data cache, icache residency,
    zeroed shared-memory bank (one [Memory.shared_bank] per worker,
    reset at block entry), and noise stream (the per-SM model), so block
    results are independent of grid execution order. Within a block the
    warps are resumable computations driven by the barrier scheduler
    ({!Scheduler.run_block}): they run in ascending warp order until
    each arrives at a [__syncthreads()] or exits, the barrier is
    verified convergent (a divergent barrier raises [Failure]), waiting
    warps are charged {!Metrics.t.barrier_wait_cycles} up to the
    slowest arrival, and the block resumes the next interval — so
    shared-memory dataflow crosses barriers in both directions at any
    [block_dim].

    [config.sim_jobs] shards blocks of the launch over that many OCaml
    domains in chunked ranges. Every shard gets private sinks — a
    deferred-commit view of the atomic targets ({!Atomics}), a race
    collector, a trace buffer — and the join reduces them in ascending
    block order: metrics sum, atomic deltas commit, race collectors
    merge, trace buffers splice. [Atomic_add] old values are defined as
    the launch-start value plus the executing block's own prior deltas,
    and [Alloca] arenas live in the block's shared bank with ids that
    are a function of (block, allocation index) — so the result —
    metrics, final memory, race reports, traces, everything — is
    byte-identical for any [sim_jobs] value, with no serial gates.
    (A program that races a plain store against another block's
    [Atomic_add] on the same cell has no well-defined result; [races]
    reports exactly those cells.)

    [config.races] audits the sharding contract itself: it records each
    block's global-memory write set and {!Racecheck.overlaps} then lists
    any cell plain-written by more than one block (or plain-written and
    atomically updated by distinct blocks). It also records every
    shared-memory access with its barrier epoch;
    {!Racecheck.shared_races} lists intra-block conflicts within a
    barrier interval.

    @raise Invalid_argument when [grid_dim] or [block_dim] is below 1 or
    the arguments do not match the kernel's parameters; @raise Failure
    on interpreter errors, on a divergent [__syncthreads()], or when a
    warp exceeds [config.max_warp_cycles]. *)

val exec_runs :
  ?config:launch_config ->
  noises:Rng.t option array ->
  Memory.t ->
  Func.t ->
  grid_dim:int ->
  block_dim:int ->
  args:arg list ->
  (result, string) Stdlib.result array
(** One functional simulation timed for every run: run [k] is jittered
    by [noises.(k)] (one [Rng.next] per launch, then one stream per
    block), in place of [config.noise], and entry [k] is what
    {!exec} would return under that noise alone. Noise reaches only
    time, so the launch executes once: one final memory, one race
    report, one trace, and the runs' metrics differ only in [cycles] and
    [barrier_wait_cycles]. {!exec} is the one-run case.

    Failures are [exec]'s and raise as it does, with one exception: run
    [k ≥ 1] exceeding [config.max_warp_cycles] does not stop the launch
    (run 0 may still fail first, as it would in a run-by-run schedule);
    its entry is [Error msg], with [msg] the [Failure] text of its
    one-run launch.
    @raise Invalid_argument when [noises] is empty. *)
