(** The five compilation configurations of the paper's evaluation
    (§IV-B), as concrete pass pipelines:

    - [Baseline] — the -O3 analogue: SSA construction, cleanup, constant
      propagation, GVN, condition propagation, baseline full unrolling,
      and if-conversion to selects (the [selp] predication of the PTX
      backend).
    - [Unroll u] — baseline plus plain loop unrolling with factor [u]
      (LLVM's existing unroll pass in the paper), inserted early.
    - [Unmerge] — baseline plus unmerging only (u&u with factor 1).
    - [Uu u] — baseline plus unroll-and-unmerge with factor [u].
    - [Uu_heuristic] — baseline plus the §III-C heuristic
      ([c = 1024], [u_max = 8]).
    - [Uu_heuristic_divergence] — the paper's proposed future-work
      extension: the heuristic plus thread-id divergence avoidance (§V).

    [target_headers] restricts the transform to specific loops — the
    paper applies its pass "to one loop at a time to precisely measure the
    effect" (§IV-B); the empty list means all eligible loops. *)

open Uu_ir

type config =
  | Baseline
  | Unroll of int
  | Unmerge
  | Uu of int
  | Uu_heuristic
  | Uu_heuristic_divergence
  | Uu_selective of int
      (** extension (SVI future work): u&u duplicating only phi-carrying
          merges *)

val version : string
(** Pipeline-behaviour version; bump when a change invalidates previously
    measured results. Folded into every [Uu_harness] result-cache key. *)

val config_name : config -> string

val config_to_string : config -> string
(** Canonical, round-trippable spelling; identical to {!config_name}
    (e.g. ["u&u-4"], ["baseline"], ["u&u-heuristic+div"]). *)

val config_of_string : ?default_factor:int -> string -> (config, string) result
(** Inverse of {!config_to_string}; also accepts the CLI aliases
    ([unroll], [uu], [uu-selective], [heuristic], [heuristic-div]) with
    an optional [-N] or [:N] factor suffix. A factor-carrying name
    without a suffix gets [default_factor] (default 2).
    [config_of_string (config_to_string c) = Ok c] for every [c]. *)

val all_standard : config list
(** The five configurations evaluated in the paper, with unroll factors
    2, 4, 8 for [Unroll] and [Uu]. *)

type targets =
  | All_loops                     (** transform every eligible loop *)
  | Only of Value.label list      (** transform just these loop headers;
                                      [Only []] applies the configuration's
                                      transform to nothing (pure baseline
                                      for this function) *)

val pipeline : ?targets:targets -> config -> Uu_opt.Pass.t list

val transform : targets:targets -> config -> Uu_opt.Pass.t list
(** The configuration's structural transform alone: the part of
    {!pipeline} between {!early_passes} and the late cleanup. *)

val optimize :
  ?targets:targets ->
  ?options:Uu_opt.Pass.options ->
  config ->
  Func.t ->
  Uu_opt.Pass.report
(** Run the configuration's pipeline on a function under the given
    manager options (verification, remark sink, timeout — see
    [Uu_opt.Pass.options]); the report's [stats] field carries the
    statistic-counter deltas either way. *)

val optimize_module :
  ?targets:targets ->
  ?options:Uu_opt.Pass.options ->
  config ->
  Func.modul ->
  Uu_opt.Pass.report

val early_passes : Uu_opt.Pass.t list
(** The pipeline prefix run before the structural transform; apply these
    to a freshly lowered function before enumerating loop headers so the
    labels line up with what the transform will see. *)
