(** Natural-loop detection and the loop forest.

    Loops are discovered from back edges (an edge [n -> h] where [h]
    dominates [n]); multiple back edges to the same header form one loop.
    Each loop gets a deterministic id (position of its header in reverse
    postorder) — the paper's pass exposes exactly such stable ids so users
    can select loops from the command line (§III-C). *)

open Uu_ir

type loop = {
  id : int;                       (** deterministic, per function *)
  header : Value.label;
  blocks : Value.Label_set.t;     (** header included *)
  latches : Value.label list;     (** in-loop predecessors of the header *)
  exits : (Value.label * Value.label) list;
      (** (inside block, outside successor) edges, deduplicated, sorted *)
  mutable parent : int option;    (** id of the immediately enclosing loop *)
  mutable children : int list;    (** ids of directly nested loops *)
  mutable depth : int;            (** 1 for top-level loops *)
}

type forest

val analyze : Func.t -> forest
val loops : forest -> loop list
(** All loops ordered by id. *)

val find : forest -> int -> loop option
val top_level : forest -> loop list

val innermost_first : forest -> loop list
(** Post-order over the forest: children before parents — the order the
    u&u heuristic visits loops in (§III-C). *)

val preheader : Func.t -> loop -> Value.label option
(** The unique out-of-loop predecessor of the header, if the header has
    exactly one and it branches only to the header. *)

val contains_convergent : Func.t -> loop -> bool
(** Does any block of the loop contain a convergent operation
    ([syncthreads])? Such loops are never unmerged (§III-C). *)
