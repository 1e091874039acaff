(** Imperative IR construction, in the style of LLVM's IRBuilder.

    A builder holds a current insertion block; each emission helper
    appends an instruction there and returns the defined value. *)

type t

val create : Func.t -> t
(** Positioned at the function's entry block. *)

val func : t -> Func.t
val position : t -> Block.t
val set_position : t -> Block.t -> unit
val append_block : ?hint:string -> t -> Block.t
(** A fresh block (not yet reachable); does not move the builder. *)

(** {1 Emission} All of these append to the current block. *)

val binop : ?hint:string -> t -> Instr.binop -> Types.t -> Value.t -> Value.t -> Value.t
val cmp : ?hint:string -> t -> Instr.cmpop -> Types.t -> Value.t -> Value.t -> Value.t
val unop : ?hint:string -> t -> Instr.unop -> Value.t -> Value.t
val select : ?hint:string -> t -> Types.t -> cond:Value.t -> if_true:Value.t -> if_false:Value.t -> Value.t
val alloca : ?hint:string -> t -> Types.t -> Value.t
val load : ?hint:string -> t -> Types.t -> Value.t -> Value.t
val store : t -> Types.t -> addr:Value.t -> value:Value.t -> unit
val gep : ?hint:string -> t -> Types.t -> base:Value.t -> index:Value.t -> Value.t
val intrinsic : ?hint:string -> t -> Instr.intrinsic -> Value.t list -> Value.t
val special : ?hint:string -> t -> Instr.special -> Value.t
val atomic_add : ?hint:string -> t -> Types.t -> addr:Value.t -> value:Value.t -> Value.t
val syncthreads : t -> unit

val phi : ?hint:string -> t -> Types.t -> (Value.label * Value.t) list -> Value.t
(** Appends a phi to the current block's phi list. *)

(** {1 Terminators} These set the current block's terminator. *)

val br : t -> Block.t -> unit
val cond_br : t -> Value.t -> Block.t -> Block.t -> unit
val ret : t -> Value.t option -> unit
