(** Control-flow graph queries over a function.

    Every query recomputes its result from the function. A pass that
    rewrites many edges builds one {!predecessors} map and keeps it
    current with {!set_term} instead of re-querying. Orders are
    deterministic. *)

val predecessors : Func.t -> (Value.label, Value.label list) Hashtbl.t
(** Map from each block to its predecessors, in sorted order. Blocks with
    no predecessors map to []. *)

val preds_of : Func.t -> Value.label -> Value.label list
(** Predecessors of one block (recomputes the full map; use
    {!predecessors} in loops). *)

val set_term :
  (Value.label, Value.label list) Hashtbl.t -> Block.t -> Instr.terminator -> unit
(** [set_term preds b term] replaces [b]'s terminator and updates a
    {!predecessors} map to match: [b] leaves the lists of the targets it
    no longer reaches and joins, in sorted position, those it now
    reaches. Before deleting a block, set its terminator to
    [Unreachable] so it leaves its successors' lists. *)

val reverse_postorder : Func.t -> Value.label list
(** Reverse postorder from the entry block, visiting [Cond_br] true
    successors first. Unreachable blocks are excluded. *)

val postorder : Func.t -> Value.label list
val reachable : Func.t -> Value.Label_set.t

val remove_unreachable : Func.t -> bool
(** Delete blocks not reachable from entry and prune phi entries for
    removed predecessors. Returns true if anything changed. *)
