(** The one executor. Every compile-and-simulate entry point — [uu run],
    [uu compile], [uu request], the serve daemon and the experiment job
    graph behind Table I, the sweep, the ablations and the counters —
    builds a [Uu_serve.Request.t] and comes through {!run_request}: the
    request's bounds are checked, its source is compiled under its
    configuration and target loop ({!compile_request}), and the compiled
    module answers it ({!respond}): printed IR, synthetic-buffer runs,
    or the bundled app's own launch schedule under its host oracle (the
    paper's per-loop measurements, §IV-B). *)

open Uu_core

type loop_ref = {
  kernel : string;
  loop_id : int;       (** deterministic id within the kernel *)
  header : Uu_ir.Value.label;
}

val loop_inventory : Uu_benchmarks.App.t -> loop_ref list
(** All loops of all kernels, after the pipeline's early phase (so headers
    match what the transform sees). Order: kernels in source order, loops
    by id. {!compile_request} resolves a request's loop id the same way. *)

val cycles_per_ms : float
(** Conversion between simulated cycles and reported milliseconds. *)

(** {1 The request funnel} *)

type compiled
(** An optimized module plus its compile report and warm decode cache,
    reusable across every request sharing one
    [Uu_serve.Request.compile_key]. The decode cache inside is
    single-domain: callers sharing a [compiled] across domains must
    serialize their {!respond} calls (the serve daemon holds a per-entry
    lock). *)

val compile_request :
  ?timeout:float -> Uu_serve.Request.t -> (compiled, string) result
(** Resolve the source (registry app or inline text), lower, resolve the
    request's loop id per kernel in scope after the early phase, and
    optimize every kernel: loop [N] of each kernel in scope gets the
    transform, once; kernels out of scope get none. [timeout] is a
    wall-clock budget in seconds for the whole module, enforced
    cooperatively between passes (see [Uu_opt.Pass.Timeout]). All
    frontend, pipeline and timeout failures come back as [Error] text,
    never exceptions, as does a request naming a [variant] (no pipeline
    can build one). *)

val modul : compiled -> Uu_ir.Func.modul
(** The optimized module, for callers that need the IR values (CFG dot
    rendering, provenance). *)

val make_compiled : ?stats:(string * int) list -> Uu_ir.Func.modul -> compiled
(** Wrap a module optimized by hand (the ablation variants) so it goes
    through {!respond}'s schedule arm and the result cache like a
    pipeline compile. [stats] ride along in the response; the modeled
    compile time is zero. *)

val respond :
  ?default_sim_jobs:int ->
  Uu_serve.Request.t ->
  compiled ->
  Uu_serve.Response.t
(** Answer one request from its compiled module: print IR for [Compile],
    simulate every kernel with the synthetic-buffer protocol for [Run],
    walk the bundled app's launch schedule for [Schedule] — fresh
    workload from a fixed seed, every launch in order, then the host
    oracle. Run [i] of a [Noisy] schedule is jittered with
    [Request.noise_seed ~key:(Request.key r) i]; noise reaches only
    time, so all runs share one simulation of the schedule
    ({!Uu_gpusim.Kernel.exec_runs}) and one oracle check, and each run's
    bytes equal simulating its seed alone. A simulator
    failure, a rejected launch or an oracle mismatch is an [Error],
    never an exception. [default_sim_jobs] (default 1) applies only when
    the request leaves [sim_jobs] unset; it cannot change a response
    byte. *)

val run_request :
  ?default_sim_jobs:int ->
  ?compile:(Uu_serve.Request.t -> (compiled, string) result) ->
  Uu_serve.Request.t ->
  Uu_serve.Response.t
(** The single funnel: [Request.check] the bounds, compile ([compile]
    defaults to {!compile_request}; the daemon passes its module memo,
    the job graph its budget or a hand-built variant), {!respond}. *)

(** {1 Schedule measurements} *)

type measurement = {
  config : Pipelines.config;
  kernel_ms : float;               (** simulated kernel time *)
  transfer_ms : float;             (** modeled host-transfer time *)
  code_bytes : int;                (** kernel code plus the app's rest-of-binary *)
  compile_seconds : float;
  metrics : Uu_gpusim.Metrics.t;
  stats : (string * int) list;
      (** statistic-counter deltas of the compilation, summed over kernels *)
}
(** One run of a schedule response, flattened with its compile report:
    the read-only view Table I, the sweep, the ablations and the
    counters take. *)

val measurements : Uu_serve.Response.ok -> measurement list
(** One per run of a [Scheduled] response; [[]] for the other bodies. *)

val schedule_request :
  ?protocol:Uu_serve.Request.protocol ->
  ?target:loop_ref ->
  Uu_benchmarks.App.t ->
  Pipelines.config ->
  Uu_serve.Request.t
(** The [Schedule] request for one app under one configuration
    ([protocol] defaults to [Once]), restricted to [target]'s loop when
    given — one job of the experiment graph. *)

val run_exn :
  ?noise_seed:int64 ->
  ?engine:Uu_gpusim.Kernel.engine ->
  ?sim_jobs:int ->
  ?target:loop_ref ->
  Uu_benchmarks.App.t ->
  Pipelines.config ->
  measurement
(** One [Schedule Once] request through {!run_request}, restricted to
    [target]'s loop when given. [noise_seed] enables the jitter model.
    @raise Failure with the [Error] text (e.g. an oracle mismatch). *)
