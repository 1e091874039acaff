(** Control-flow unmerging (paper §III-A.1, Fig. 2).

    Unmerging eliminates merge points inside a region by tail duplication:
    a block with several predecessors is cloned so that each predecessor
    gets a private copy, whose phis collapse to the values flowing from
    that predecessor. Iterated over a loop body this turns the body into a
    tree of paths, so that in every block it is statically known how each
    dominating condition evaluated — the information the subsequent
    optimizations consume.

    Loop headers (of the target loop and of any nested loop) are never
    duplicated: duplicating a header would unroll the loop instead, and
    keeping headers intact guarantees termination (the rest of the region
    is acyclic). A loop containing a convergent operation ([syncthreads])
    is left as canonicalizing left it, as u&u leaves it (§III-C).

    Unmerging plans before it copies: the rounds that pick which merges
    and nested loops to duplicate run on the region's original blocks,
    counting copies without making them, and the copies are then made by
    following the plan.

    A block budget bounds the worst-case exponential duplication; hitting
    it stands in for the compile-time timeouts the paper reports (§IV-C,
    RQ2). The plan finds out before a single block is copied. Among the
    bundled apps, u&u-8 on bezier-surface, mandelbrot, qtclustering and
    rainflow, and whole-app u&u-4 and u&u-8 on ccs and contract, run out
    of budget and are rolled back. *)

open Uu_ir

type outcome = {
  changed : bool;  (** a merge was duplicated *)
  edited : bool;
      (** the function changed: [changed], or canonicalizing the loop
          (see [Uu_opt.Loop_utils.canonicalize]) edited it *)
  duplicated_blocks : int;
      (** blocks created; on exhaustion, the blocks the plan counted
          before the step that did not fit *)
  budget_exhausted : bool;  (** the paper's "compilation timed out" analogue *)
}

val unmerge_loop :
  ?selective:bool -> Func.t -> header:Value.label -> budget:int -> outcome
(** Unmerge the body of the loop with the given header (the paper's
    [unmerge] configuration — u&u with unroll factor 1): duplicate every
    merge of the body except loop headers, cascading into the copies,
    until none remains or the budget (in created blocks) runs out. A
    nested loop entered from several predecessors is duplicated whole.
    On exhaustion nothing is copied: the function is exactly as
    canonicalizing the loop left it, while [duplicated_blocks], the
    [unmerge.paths_duplicated] statistic and the [missed] remark report
    what the plan counted. [selective]
    implements the paper's proposed future-work refinement (SVI): only
    merge blocks carrying phis — the ones whose duplication can expose
    value-flow to later passes — are duplicated, trading optimization
    opportunities for code size. *)

val dbds_unmerge_loop : Func.t -> header:Value.label -> budget:int -> outcome
(** Ablation: duplicate merge blocks one level only, without cascading
    into the copies, as in dominance-based duplication simulation (DBDS,
    §II-d) — the less aggressive prior technique the paper contrasts
    with. Restricted to merges whose definitions do not escape past their
    successors' phis (one-level duplication cannot repair downstream
    references once the original is removed). The blocks it creates
    count in [unmerge.paths_duplicated], as unmerging's do. *)
