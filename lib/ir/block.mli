(** Basic blocks: a phi list, a straight-line instruction list, and a
    terminator. Blocks are mutable so passes can rewrite them in place. *)

type t = {
  label : Value.label;
  mutable phis : Instr.phi list;
  mutable instrs : Instr.t list;
  mutable term : Instr.terminator;
  mutable hint : string;  (** name hint for printing ("header", "then", ...) *)
}

val create : ?hint:string -> Value.label -> t
(** A fresh block terminated by [Unreachable]. *)

val successors : t -> Value.label list

val defs : t -> Value.var list
(** Registers defined by the block's phis and instructions, in order. *)

val map_values : (Value.t -> Value.t) -> t -> unit
(** Rewrite every operand in phis, instructions, and the terminator. *)

val map_term_values : (Value.t -> Value.t) -> t -> unit
(** Rewrite the terminator's operands. Successors cannot change, so this
    is the one terminator write outside [Cfg.set_term]. *)

val remove_incoming : Value.label -> t -> unit
(** Drop phi incoming entries for a predecessor that no longer branches
    here. *)

val has_convergent : t -> bool
