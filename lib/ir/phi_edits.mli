(** Batched phi-entry edits at joins.

    A pass that moves edges into a wide join (simplify-cfg's forwarding,
    if-convert's collapse) would otherwise rewrite every phi of the join,
    all of its entries, once per edge it moves. A batch instead loads a
    join's phis once, on the first edit, and edits them at O(1) per
    entry touched; {!flush} then writes each edited phi back once.

    The written lists are exactly those the same edits make as list
    rewrites, one at a time: {!drop} is [List.filter (fun (l', _) -> l'
    <> l)], {!append} is [incoming @ [ (l, v) ]] and {!first} is
    [List.assoc_opt l incoming], duplicate and stale entries included.

    A batch belongs to one pass call and to the function it edits:
    create it in the call and flush it before the call returns. Until
    then a loaded join's [Block.phis] still hold their old entries, so
    the pass must read them only through the batch. *)

type t

type phi
(** One phi of a loaded join, with the edits made to it so far. *)

val create : unit -> t

val phis : t -> Block.t -> phi list
(** The block's phis, in order, loaded on the first call for the block. *)

val phi : phi -> Instr.phi
(** The phi as loaded: its [dst] and [ty] hold, its [incoming] is the
    list before the batch's edits. *)

val first : phi -> Value.label -> Value.t option
(** The value of the first entry from the label, as the edits so far
    leave the list. *)

val drop : t -> phi -> Value.label -> unit
(** Remove every entry from the label. *)

val append : t -> phi -> Value.label -> Value.t -> unit
(** Add an entry at the end. *)

val flush : t -> unit
(** Write every edited phi back to its block, and empty the batch. *)
