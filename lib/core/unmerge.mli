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
    is acyclic).

    A block budget bounds the worst-case exponential duplication; hitting
    it stands in for the compile-time timeouts the paper reports (§IV-C,
    RQ2). Among the bundled apps, u&u-8 on bezier-surface, mandelbrot,
    qtclustering and rainflow, and whole-app u&u-4 and u&u-8 on ccs and
    contract, run out of budget and are rolled back. *)

open Uu_ir

type outcome = {
  changed : bool;
  duplicated_blocks : int;
  budget_exhausted : bool;  (** the paper's "compilation timed out" analogue *)
}

val unmerge_region :
  ?selective:bool -> Func.t -> region:Value.Label_set.t -> budget:int -> outcome
(** Duplicate every multi-predecessor non-header block of [region] until
    none remains or the budget (in created blocks) is exhausted. Blocks
    created by duplication join the region. *)

val unmerge_loop :
  ?selective:bool -> Func.t -> header:Value.label -> budget:int -> outcome
(** Unmerge the body of the loop with the given header (the paper's
    [unmerge] configuration — u&u with unroll factor 1). [selective]
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
    references once the original is removed). *)
