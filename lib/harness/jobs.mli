(** The experiment job graph.

    Every measurement the harness produces — sweep points, Table I rows,
    ablation variants, the §V counters — is one {e job}: a [Schedule]
    request ([Uu_serve.Request]) for one application under one
    configuration, optionally restricted to one loop, under a run
    protocol. [Sweep], [Table1], [Ablation] and [Counters] describe their
    work as job lists and hand them to {!run_all}, which answers them by
    the daemon's rules: a cache entry counts only under
    [Uu_serve.Response.of_cached], each request goes through
    [Runner.run_request], and requests that share a
    [Uu_serve.Request.compile_key] share one compile. Results come back
    in input order.

    {b Determinism.} Results are ordered by job, never by completion;
    compilation and noise-free simulation are pure functions of the
    request; and noisy protocols derive their per-run seeds from the
    request's content-hash key ([Uu_serve.Request.noise_seed]), not from
    scheduling order. Running with 1 domain, N domains, or a warm cache
    therefore yields byte-identical responses.

    {b Fault isolation.} A job whose response is an [Error] (a pass bug,
    an oracle mismatch, an out-of-range request) becomes a structured {!failure} record in that job's
    result, is never cached, and the remaining jobs are unaffected. It
    is not retried: a response is a function of its request, so a rerun
    would compute the same [Error]. *)

open Uu_core

type protocol = Uu_serve.Request.protocol =
  | Once  (** one deterministic simulation, no latency jitter *)
  | Noisy of { runs : int }
      (** compile once, simulate [runs] times with per-run noise seeds —
          the paper's 20-run Table I protocol (§IV-B) *)

type job = {
  request : Uu_serve.Request.t;  (** a [Schedule] request *)
  target : Runner.loop_ref option;  (** the loop [request] is restricted to *)
}

val job :
  ?target:Runner.loop_ref ->
  ?protocol:protocol ->
  Uu_benchmarks.App.t ->
  Pipelines.config ->
  job
(** The job's [Schedule] request ([Runner.schedule_request]);
    [protocol] defaults to {!Once}. *)

val label : job -> string
(** Human-readable identifier, e.g. ["rainflow/u&u-4@kernel#2"]. *)

val key : job -> string
(** [Uu_serve.Request.key] of the job's request: the cache key and the
    root of its noise seeds. *)

val noise_seed : key:string -> int -> int64
(** [Uu_serve.Request.noise_seed]: the seed of run [i] of the job with
    the given key. *)

type failure = {
  job_label : string;
  job_key : string;
  message : string;  (** the response's [Error] text *)
}

type result = {
  rjob : job;
  outcome : (Uu_serve.Response.ok, failure) Stdlib.result;
  from_cache : bool;
}

val run_all :
  ?jobs:int ->
  ?sim_jobs:int ->
  ?cache:Result_cache.t ->
  ?engine:Uu_gpusim.Kernel.engine ->
  ?compile:(Uu_serve.Request.t -> (Runner.compiled, string) Stdlib.result) ->
  job list ->
  result list
(** Execute a job list. Cache misses are grouped by
    [Uu_serve.Request.compile_key], in first-appearance order, and the
    groups go to the pool by the u&u factor of their first request,
    largest first: u&u-8, then u&u-4, then u&u-2, then every other group
    in first-appearance order. A batch without u&u-N groups (Table I)
    dispatches in first-appearance order. The rule is fixed: neither
    wall-clock time nor an option chooses the order. Its basis, measured
    serially on a 2-vCPU VM: the sweep's 52 u&u-4 and u&u-8 jobs take
    2.8 of its 4.2 s, in each of the 15 apps whose longest job exceeds
    20 ms that job is one of them, and the sweep emits them last for
    each loop.
    On two workers, with each app's batch on its own as perfbench runs
    it, first-appearance order models 3.15 s, this order 2.71 s,
    longest-first 2.71 s and the lower bound 2.69 s. One pool task per
    group compiles once, with [compile] (default
    [Runner.compile_request]; a test can count or fail compiles through
    it), and answers the group's requests in order through
    [Runner.run_request]; the module is dropped when the task returns.
    [jobs] is the domain-pool size (default
    [Parallel.available_domains ()]); [sim_jobs] is each request's
    intra-launch block-shard width. When [sim_jobs] is omitted it is
    budgeted from the cores the pool leaves over: a full queue runs its
    groups with [sim_jobs = 1] (group-level parallelism already
    saturates the machine), while fewer uncached groups than cores split
    the remainder evenly — the two levels compose instead of
    oversubscribing. Neither [jobs] nor [sim_jobs] can change any
    response byte. [engine] selects the simulator execution engine
    (default [Kernel.Decoded]) — engines are metric-identical, so it
    does not enter the key.

    Responses are serialized only when [cache] is given. Lookups and
    stores happen on the calling domain, stores in input order. A
    request [Uu_serve.Request.check] refuses is never looked up: it is
    answered with that [Error]. A hit counts only when
    [Uu_serve.Response.of_cached] accepts the entry; one it rejects is
    dropped with [Result_cache.reject] and recomputed. Results are in
    input order. *)

val measurements_exn : result -> Runner.measurement list
(** The job's measurements, one per protocol run. @raise Failure with
    the failure message when the job failed — for callers (Table I,
    ablations) that keep the fail-fast behaviour. *)
