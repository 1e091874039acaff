(** The experiment runner: compiles an application under a configuration
    (optionally restricted to one loop, as the paper does per-loop,
    §IV-B), simulates its launch schedule, validates results against the
    host oracle, and reports the measurements every table and figure is
    built from. *)

open Uu_core

type loop_ref = {
  kernel : string;
  loop_id : int;       (** deterministic id within the kernel *)
  header : Uu_ir.Value.label;
}

val loop_inventory : Uu_benchmarks.App.t -> loop_ref list
(** All loops of all kernels, after the pipeline's early phase (so headers
    match what the transform sees). Order: kernels in source order, loops
    by id. *)

type measurement = {
  config : Pipelines.config;
  target : loop_ref option;        (** [None] = whole-application run *)
  kernel_ms : float;               (** simulated kernel time *)
  transfer_ms : float;             (** modeled host-transfer time *)
  code_bytes : int;                (** kernel code plus the app's rest-of-binary *)
  compile_seconds : float;
  metrics : Uu_gpusim.Metrics.t;
  check : (unit, string) result;
  remarks : Uu_support.Remark.t list;
      (** optimization remarks emitted while compiling, all kernels *)
  stats : (string * int) list;
      (** statistic-counter deltas of the compilation, summed over kernels *)
}

val cycles_per_ms : float
(** Conversion between simulated cycles and reported milliseconds. *)

type compiled
(** A compiled application (all kernels optimized under one
    configuration), reusable across simulation runs. *)

val compile :
  ?target:loop_ref ->
  ?timeout:float ->
  Uu_benchmarks.App.t ->
  Pipelines.config ->
  compiled
(** [timeout] is a wall-clock budget in seconds covering the whole
    compilation (all kernels), enforced cooperatively between passes —
    see [Uu_opt.Pass.Timeout]. *)

val make_compiled :
  ?target:loop_ref ->
  ?compile_seconds:float ->
  ?remarks:Uu_support.Remark.t list ->
  ?stats:(string * int) list ->
  app:Uu_benchmarks.App.t ->
  config:Pipelines.config ->
  Uu_ir.Func.modul ->
  compiled
(** Wrap an already-optimized module as a {!compiled} application so
    hand-rolled transforms (the ablation variants) go through the same
    simulation, measurement, and caching path as stock pipeline
    configurations. [config] is recorded in the resulting measurements;
    extra [stats] entries ride along in [measurement.stats]. *)

val compiled_remarks : compiled -> Uu_support.Remark.t list
val compiled_stats : compiled -> (string * int) list
(** The remark stream / statistic deltas of a compilation, without
    simulating (used by the [experiments remarks] subcommand). *)

val simulate :
  ?noise_seed:int64 ->
  ?engine:Uu_gpusim.Kernel.engine ->
  ?sim_jobs:int ->
  compiled ->
  measurement
(** Simulate a previously compiled application; used by Table I's 20-run
    protocol to avoid recompiling per run. [engine] defaults to
    [Kernel.Decoded]; each {!compiled} carries its own decode cache, so
    repeated simulations decode every kernel exactly once. [sim_jobs]
    (default 1) shards each launch's blocks over that many domains —
    measurements are byte-identical for any value (see
    [Kernel.exec]). *)

val race_audit :
  ?engine:Uu_gpusim.Kernel.engine ->
  compiled ->
  (string * Uu_gpusim.Racecheck.t) list
(** Replay the app's launch schedule with a write-set collector attached
    to each launch — one [(kernel, collector)] pair per launch, in
    schedule order. Empty [Racecheck.overlaps] on every collector means
    block-order independence of final memory holds for this workload
    (the assumption the parallel shard rests on). Always serial. *)

val run :
  ?noise_seed:int64 ->
  ?engine:Uu_gpusim.Kernel.engine ->
  ?sim_jobs:int ->
  ?target:loop_ref ->
  Uu_benchmarks.App.t ->
  Pipelines.config ->
  measurement
(** Compile + simulate one configuration. [noise_seed] enables the memory
    jitter model (used for Table I's 20-run statistics); without it the
    simulation is deterministic. When [target] is set, the transform is
    applied to that single loop only. *)

val run_exn :
  ?noise_seed:int64 ->
  ?engine:Uu_gpusim.Kernel.engine ->
  ?sim_jobs:int ->
  ?target:loop_ref ->
  Uu_benchmarks.App.t ->
  Pipelines.config ->
  measurement
(** Like {!run} but raises [Failure] if the oracle check fails. *)

(** {1 The request funnel}

    Every compile-and-simulate entry point — [uu run], [uu compile],
    [uu request], and the serve daemon — builds a
    [Uu_serve.Request.t] and comes through here. The split mirrors
    {!compile}/{!simulate}: a request is compiled once (expensive,
    cacheable by [Request.compile_key]) and responded to per request
    identity (shape, races, noise). *)

type request_compiled
(** An optimized module plus its compile report and warm decode cache,
    reusable across every request sharing one
    [Uu_serve.Request.compile_key]. The decode cache inside is
    single-domain: callers sharing a [request_compiled] across domains
    must serialize their {!respond} calls (the serve daemon holds a
    per-entry lock). *)

val compile_request :
  Uu_serve.Request.t -> (request_compiled, string) result
(** Resolve the source (registry app or inline text), lower, and
    optimize under the request's config and target loop. All frontend
    and pipeline failures come back as [Error] text, never exceptions. *)

val respond :
  ?default_sim_jobs:int ->
  Uu_serve.Request.t ->
  request_compiled ->
  Uu_serve.Response.t
(** Answer one request from its compiled module: print IR for [Compile]
    mode, simulate every kernel with the synthetic-buffer protocol for
    [Run] mode. A simulator failure or a rejected launch (e.g. a
    non-positive grid or block) is an [Error], never an exception.
    [default_sim_jobs] (default 1) applies only when the request leaves
    [sim_jobs] unset; it cannot change a response byte. *)

val run_request :
  ?default_sim_jobs:int -> Uu_serve.Request.t -> Uu_serve.Response.t
(** [compile_request] + {!respond} — the single funnel. *)
