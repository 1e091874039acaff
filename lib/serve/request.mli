(** The one request type every compile-and-simulate entry point consumes.

    [uu run], [uu compile], [uu request], the serve daemon and the
    experiment job graph all build a {!t} and hand it to
    [Uu_harness.Runner.run_request]; the daemon additionally ships it
    over the wire (see {!Protocol}). A request fully describes one unit
    of work: a MiniCUDA source (bundled app by name, or inline text), a
    pipeline configuration, an optional target loop, how to run it, and
    the simulation knobs.

    Three run shapes ({!mode}): print the optimized IR, run every kernel
    once on synthetic buffers, or run a bundled application's own launch
    schedule with its host oracle and transfer model — once, or under
    the paper's noisy repeated-run protocol. The last is what the
    experiments (Table I, the per-loop sweep, the ablations) are made of.

    Identity: {!spec} is the human-readable one-line description of
    everything the response depends on, and {!key} its content hash,
    under which responses are cached in [Uu_harness.Result_cache].
    [engine] and [sim_jobs] are deliberately absent from the spec: both
    are metric-identical by the simulator's determinism contract, so
    they can never change a response byte. *)

open Uu_core

type source =
  | App of string  (** a bundled benchmark, by registry name *)
  | Inline of { name : string; text : string }
      (** MiniCUDA source shipped with the request *)

type protocol =
  | Once  (** one simulation; jittered only when [noise_seed] is set *)
  | Noisy of { runs : int }
      (** compile once, simulate [runs] times; run [i] is jittered with
          [noise_seed ~key:(key r) i] — the paper's 20-run Table I
          protocol (§IV-B) *)

type mode =
  | Compile  (** optimize and return the IR *)
  | Run  (** optimize, then simulate every kernel with synthetic buffers *)
  | Schedule of protocol
      (** optimize, then run the bundled app's launch schedule, check its
          host oracle (a mismatch is an [Error] response) and model its
          transfers *)

type t = {
  mode : mode;
  source : source;
  config : Pipelines.config;
  kernel : string option;
      (** scope the transform to this kernel: every other kernel is
          compiled without it, and [loop] names a loop of this kernel *)
  loop : int option;
      (** restrict the transform to loop [N] of each kernel in scope —
          ids as [uu loops] prints them, after the pipeline's early
          phase *)
  grid_dim : int;
  block_dim : int;
  elems : int;  (** elements in synthetic buffer arguments *)
  check_races : bool;
  trace : bool;
      (** record and return the SIMT schedule of every launch *)
  noise_seed : int64 option;
      (** enable the memory-jitter model with this seed *)
  variant : string option;
      (** a hand-built transform standing in for [config]'s pipeline
          (the ablation variants), named so it enters the identity. No
          pipeline can build it: its caller supplies the compiled module
          (see [Uu_harness.Runner.run_request]). *)
  engine : Uu_gpusim.Kernel.engine;  (** not part of the request identity *)
  sim_jobs : int option;  (** not part of the request identity *)
}

val make :
  ?mode:mode ->
  ?kernel:string ->
  ?loop:int ->
  ?grid_dim:int ->
  ?block_dim:int ->
  ?elems:int ->
  ?check_races:bool ->
  ?trace:bool ->
  ?noise_seed:int64 ->
  ?variant:string ->
  ?engine:Uu_gpusim.Kernel.engine ->
  ?sim_jobs:int ->
  source ->
  Pipelines.config ->
  t
(** Defaults mirror [uu run]: mode [Run], grid 4, block 128, elems 1024,
    no race check, no trace, no noise, [Decoded] engine, server-chosen
    [sim_jobs]. *)

val source_name : source -> string

(** {1 Bounds} *)

val max_grid : int
val max_block : int
val max_elems : int
val max_runs : int

val check : t -> (unit, string) result
(** The bounds a request may ask for: grid [1..max_grid], block
    [1..max_block] (CUDA's per-block limit) and elems [1..max_elems] for
    a [Run], runs [1..max_runs] for a [Noisy] schedule. Only the fields
    the mode uses are checked. The [Error] names the field and its
    limit. *)

(** {1 Identity} *)

val spec : ?version:string -> ?sim_version:string -> t -> string
(** One line. A schedule request spells the experiment job graph's
    ["v<version>;sim=<sim>;app=...;target=...;protocol=...;work=..."]
    form, so Table I's keys — and the noise seeds derived from them —
    are those of the job specs that came before it; the other modes
    spell a ["serve;"]-prefixed form. [version] defaults to
    [Pipelines.version] and [sim_version] to
    [Uu_gpusim.Kernel.semantics_version]; both are exposed so tests can
    assert that bumping either changes the key. *)

val key : ?version:string -> ?sim_version:string -> t -> string
(** [Digest.to_hex (Digest.string (spec t))] — the response-cache key. *)

val compile_key : t -> string
(** Identity of the compiled module only (source, config, kernel, loop,
    variant, pipeline version) — what two requests must share to reuse
    one compilation and its warm decode cache. Mode, shape, races,
    noise, and the simulator version are deliberately absent. *)

val noise_seed : key:string -> int -> int64
(** The canonical seed derivation for run [i] of a noisy protocol: the
    first 8 digest bytes of ["<key>#run<i>"] folded into an int64. *)

(** {1 Wire codec} *)

val to_json : t -> Uu_support.Json.t

val of_json : Uu_support.Json.t -> (t, string) result
(** Total inverse of {!to_json}: every malformed shape is an [Error],
    never an exception — the daemon feeds it untrusted bytes. Bounds are
    {!check}'s business, not the codec's. *)
