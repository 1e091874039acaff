(** Control-flow graph queries over a function.

    Predecessors are kept by the function itself ([Func.set_term] and
    the block writers keep them current), so {!preds_of} is a lookup.
    Inside [Func.with_analyses] the reverse postorder and reachable set
    are cached on the function until its CFG generation moves; outside
    it every query recomputes. Either way a result is shared and must
    not be mutated. Orders are deterministic, and a cached result is the
    one a fresh build gives. *)

val preds_of : Func.t -> Value.label -> Value.label list
(** The predecessors of a block, in sorted order, as the function keeps
    them ([Func.preds_of]): current after every CFG write. *)

val pred_set : Func.t -> Value.label -> Value.Label_set.t
(** The same predecessors as a set ([Func.pred_set]), for membership
    tests. *)

val reverse_postorder : Func.t -> Value.label list
(** Reverse postorder from the entry block, visiting [Cond_br] true
    successors first. Unreachable blocks are excluded. *)

val postorder : Func.t -> Value.label list
val reachable : Func.t -> Value.Label_set.t

val rounds :
  Func.t ->
  ((Value.label, unit) Hashtbl.t -> Block.t -> Value.label list) ->
  Value.label list ->
  unit
(** [rounds f visit labels] rewrites in rounds: each calls [visit
    touched b] on the blocks of [labels] still in [f], in order, sharing
    one [touched] table, in which [visit] marks what it rewrote so that
    an overlapping rewrite waits. The labels [visit] returns, sorted and
    distinct, are the next round's; the rounds end when none are. *)

val remove_unreachable : Func.t -> bool
(** Delete blocks not reachable from entry and prune phi entries for
    removed predecessors. Returns true if anything changed. *)
