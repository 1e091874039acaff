(** Dominator and post-dominator trees (Cooper–Harvey–Kennedy).

    Unmerging changes which facts hold on which paths; everything
    downstream — condition propagation, GVN, the SSA checker, and the
    simulator's reconvergence points — is phrased in terms of dominance
    computed here. A tree holds no edges of its own: it is built from
    [Cfg.preds_of], and once built it describes the CFG of that moment. *)

open Uu_ir

type t
(** A dominator tree over the reachable blocks of a function. *)

val compute : Func.t -> t
(** Forward dominator tree rooted at the entry block; cached while the
    CFG generation holds (see [Func.with_analyses]). *)

val compute_post : Func.t -> t
(** Post-dominator tree over the reverse CFG, rooted at a virtual exit
    that all [Ret]/[Unreachable] blocks reach. [idom] of a block whose
    immediate post-dominator is the virtual exit is [None]. *)

val idom : t -> Value.label -> Value.label option
(** Immediate (post-)dominator; [None] for the root, the virtual exit, or
    an unreachable block. *)

val dominates : t -> Value.label -> Value.label -> bool
(** [dominates t a b] — every path from the root to [b] passes through
    [a]. Reflexive. False if either block is not in the tree. *)

val strictly_dominates : t -> Value.label -> Value.label -> bool

val children : t -> Value.label -> Value.label list
(** Immediate children in the tree, sorted. *)

val frontier : t -> Func.t -> (Value.label, Value.Label_set.t) Hashtbl.t
(** [frontier t f]: dominance frontiers of [f] under its forward tree
    [t], used for phi placement in mem2reg. The edges are [f]'s current
    predecessor lists, so [t] must describe the CFG as it is now. *)

val mem : t -> Value.label -> bool
(** Is the block part of the tree (reachable)? *)
