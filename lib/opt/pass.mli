(** Passes and the pass manager.

    A pass is a named function-level transform reporting whether it
    changed anything. That report must be honest: the manager verifies
    only after a pass that reports a change, and {!fixpoint} skips a pass
    that reported none until another pass changes the IR. The manager
    runs a pipeline, counts the work of every pass (the basis of the
    paper's compile-time measurements, Fig. 6c), and — unless
    disabled — verifies structural, type, and SSA-dominance well-formedness
    after each changing pass, failing fast on the first broken invariant.

    Analyses: {!exec} runs the pipeline under [Func.with_analyses], so
    predecessor maps, dominator trees and loop forests are built once
    per CFG generation and shared by passes and checks alike. A pass
    declares nothing: one that does not touch the CFG keeps the cache
    valid by not bumping the generation. The cache is dropped when
    {!exec} returns.

    Observability: the manager snapshots the (domain-local)
    [Uu_support.Statistic] registry around the run and reports the
    per-counter increase, and — when given a [Uu_support.Remark] sink —
    installs it for the duration of the run so instrumented passes can
    report every transform they applied or missed.

    Manager knobs travel in one {!options} record rather than a growing
    surface of optional arguments. (The deprecated [run]/[run_module]
    optional-argument wrappers were kept for one release after the
    {!options} switch and have since been deleted.) *)

open Uu_support
open Uu_ir

type t = { name : string; run : Func.t -> bool }

type report = {
  work : int;
      (** deterministic compile-cost metric: instructions walked, summed
          over executed passes. Unlike wall-clock time it is identical
          across machines, domains, and reruns — the harness's
          compile-time ratios (Fig. 6c) are computed from it so parallel
          and serial sweeps agree bit for bit *)
  changed : bool;
  stats : (string * int) list;
      (** statistic-counter increases during this run, sorted by name *)
}

type options = {
  verify : bool;
      (** check IR well-formedness after every changing pass (default true) *)
  remarks : Remark.sink option;
      (** when set, the active optimization-remark sink for the whole run *)
  timeout : float option;
      (** budget in seconds for the whole pipeline, measured on the
          monotonic [Uu_support.Clock] and checked cooperatively between
          passes; exceeding it raises {!Timeout} *)
}

val default_options : options
(** [{ verify = true; remarks = None; timeout = None }]. *)

val options :
  ?verify:bool -> ?remarks:Remark.sink -> ?timeout:float -> unit -> options
(** Builder over {!default_options} for call sites that set one knob. *)

val unverified : options
(** [options ~verify:false ()] — the common fast path for analyses that
    re-run a known-good pipeline prefix. *)

exception Timeout of { pipeline : string; elapsed : float; budget : float }
(** Raised between passes when [options.timeout] is exhausted. [pipeline]
    names the pass about to be skipped. The check is cooperative: a
    single pass that never returns is not interrupted. *)

val exec : ?options:options -> t list -> Func.t -> report
(** Run the pipeline once, in order, under the given options (default
    {!default_options}). *)

val fixpoint : ?max_rounds:int -> string -> t list -> t
(** A pass that repeats the given sub-pipeline until no sub-pass changes
    anything (or [max_rounds], default 8, is hit). Within one run, a
    sub-pass that reported no change is not run again until another
    sub-pass reports one: passes are deterministic, so the rerun could
    only report no change again. Verification and [work] happen at the
    granularity of the combined pass. *)

val verify_now : Func.t -> unit
(** The checks the manager runs between passes.
    @raise Failure on a violation. *)
