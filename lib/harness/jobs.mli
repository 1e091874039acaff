(** The experiment job graph.

    Every measurement the harness produces — sweep points, Table I rows,
    ablation variants, the §V counters — is one {e job}: a [Schedule]
    request ([Uu_serve.Request]) for one application under one
    configuration, optionally restricted to one loop, under a run
    protocol. [Sweep], [Table1], [Ablation] and [Counters] describe their
    work as job lists and hand them to {!run_all}, which executes them
    through [Runner.run_request] on a [Uu_support.Parallel] domain pool,
    serves repeats from the on-disk [Result_cache], isolates faults, and
    returns results in input order.

    {b Determinism.} Results are ordered by job, never by completion;
    compilation and noise-free simulation are pure functions of the
    request; and noisy protocols derive their per-run seeds from the
    request's content-hash key ([Uu_serve.Request.noise_seed]), not from
    scheduling order. Running with 1 domain, N domains, or a warm cache
    therefore yields byte-identical responses.

    {b Fault isolation.} A job whose response is an [Error] (a pass bug,
    an oracle mismatch, a [Uu_opt.Pass.Timeout]) or whose hand-built
    module raises is retried once; a second failure becomes a structured
    {!failure} record in that job's result, is never cached, and the
    remaining jobs are unaffected. *)

open Uu_core

type protocol = Uu_serve.Request.protocol =
  | Once  (** one deterministic simulation, no latency jitter *)
  | Noisy of { runs : int }
      (** compile once, simulate [runs] times with per-run noise seeds —
          the paper's 20-run Table I protocol (§IV-B) *)

type job = {
  request : Uu_serve.Request.t;  (** a [Schedule] request *)
  target : Runner.loop_ref option;  (** the loop [request] is restricted to *)
  custom : (unit -> Runner.compiled) option;
      (** a hand-built module standing in for the pipeline (the ablation
          variants, named by [request.variant]) *)
}

val job :
  ?target:Runner.loop_ref ->
  ?protocol:protocol ->
  Uu_benchmarks.App.t ->
  Pipelines.config ->
  job
(** A standard pipeline job ([Runner.schedule_request]); [protocol]
    defaults to {!Once}. *)

val custom :
  name:string ->
  compile:(unit -> Runner.compiled) ->
  ?protocol:protocol ->
  Uu_benchmarks.App.t ->
  Pipelines.config ->
  job
(** A custom-transform job; [name] must uniquely and stably identify the
    transform — it becomes the request's [variant], which substitutes
    for the pipeline in the key. [config] is what the response reports
    (typically [Baseline] for ablations). *)

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
  message : string;  (** the final attempt's [Error] text *)
  attempts : int;
}

type result = {
  rjob : job;
  rkey : string;
  outcome : (Uu_serve.Response.ok, failure) Stdlib.result;
  from_cache : bool;
}

val run_all :
  ?jobs:int ->
  ?sim_jobs:int ->
  ?cache:Result_cache.t ->
  ?timeout:float ->
  ?engine:Uu_gpusim.Kernel.engine ->
  ?retries:int ->
  job list ->
  result list
(** Execute a job list. [jobs] is the domain-pool size (default
    [Parallel.available_domains ()]); [sim_jobs] is each job's
    intra-launch block-shard width. When [sim_jobs] is omitted it is
    budgeted from the cores the pool leaves over: a full queue runs its
    jobs with [sim_jobs = 1] (job-level parallelism already saturates
    the machine), while a queue that fans out fewer uncached jobs than
    there are cores splits the remainder evenly — the two levels compose
    instead of oversubscribing. Neither [jobs] nor [sim_jobs] can change
    any response byte. [timeout] is a per-attempt compilation budget in
    seconds; [engine] selects the simulator execution engine (default
    [Kernel.Decoded]) — engines are metric-identical, so it does not
    enter the key; [retries] (default 1) is how many times a failed job
    is re-attempted before a {!failure} is recorded. Responses are
    serialized only when [cache] is given: lookups and stores of
    [Response.to_string] bytes happen on the calling domain only. A
    cached entry that does not decode to an [Ok] response is dropped
    with [Result_cache.reject] and recomputed.
    Results are in input order. *)

val measurements_exn : result -> Runner.measurement list
(** The job's measurements, one per protocol run. @raise Failure with
    the failure message when the job failed — for callers (Table I,
    ablations) that keep the fail-fast behaviour. *)
