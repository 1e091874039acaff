(** Control-flow graph queries over a function.

    Inside [Func.with_analyses] the predecessor map, reverse postorder
    and reachable set are cached on the function until its CFG
    generation moves; outside it every query recomputes. Either way a
    result is shared and must not be mutated: a pass that rewrites many
    edges takes a [Hashtbl.copy] of {!predecessors} and keeps the copy
    current with {!set_term}. Orders are deterministic, and a cached
    result is the one a fresh build gives. *)

val predecessors : Func.t -> (Value.label, Value.label list) Hashtbl.t
(** Map from each block to its predecessors, in sorted order. Blocks with
    no predecessors map to []. Shared: do not mutate. *)

val preds_of : Func.t -> Value.label -> Value.label list
(** Predecessors of one block, from {!predecessors}. *)

val set_term :
  ?preds:(Value.label, Value.label list) Hashtbl.t ->
  Func.t ->
  Block.t ->
  Instr.terminator ->
  unit
(** [set_term ?preds f b term] replaces [b]'s terminator: the one way to
    write a terminator whose successors may differ. When they do, it
    bumps [f]'s CFG generation and updates [preds], a caller's own copy
    of {!predecessors}: [b] leaves the lists of the targets it no longer
    reaches and joins, in sorted position, those it now reaches. Before
    deleting a block, set its terminator to [Unreachable] so it leaves
    its successors' lists. *)

val reverse_postorder : Func.t -> Value.label list
(** Reverse postorder from the entry block, visiting [Cond_br] true
    successors first. Unreachable blocks are excluded. *)

val postorder : Func.t -> Value.label list
val reachable : Func.t -> Value.Label_set.t

val remove_unreachable : Func.t -> bool
(** Delete blocks not reachable from entry and prune phi entries for
    removed predecessors. Returns true if anything changed. *)
