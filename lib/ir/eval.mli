(** Pure operational semantics of IR operations, shared by the constant
    folder and the GPU simulator's interpreter so the two can never
    disagree.

    Integer semantics: values are stored as int64; results are normalized
    to the operation type (I1 masks to one bit, I32 sign-extends the low
    32 bits, I64 is untouched). Shift amounts are masked to the type
    width. Division or remainder by zero yields 0 — the IR has no traps,
    and the folder and interpreter must behave identically. *)

type rvalue =
  | Int of int64
  | Float of float
  | Ptr of { buffer : int; offset : int }
      (** a pointer into simulated memory: buffer id + element offset *)

val normalize : Types.t -> int64 -> int64
(** Truncate/sign-extend an int64 to the given integer type's range. *)

val expect_int : rvalue -> int64
(** @raise Invalid_argument on non-[Int] values. *)

val binop : Instr.binop -> Types.t -> rvalue -> rvalue -> rvalue
val cmp : Instr.cmpop -> rvalue -> rvalue -> rvalue
(** Result is [Int 0L] or [Int 1L]. *)

val unop : Instr.unop -> rvalue -> rvalue
val intrinsic : Instr.intrinsic -> rvalue list -> rvalue

val of_value : Value.t -> rvalue option
(** Immediates to runtime values; [None] for variables and [Undef]. *)

val to_value : Types.t -> rvalue -> Value.t option
(** Back to an immediate of the given type; [None] for pointers. *)

val is_true : rvalue -> bool
val equal : rvalue -> rvalue -> bool
val pp : Format.formatter -> rvalue -> unit
