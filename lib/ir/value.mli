(** SSA values: virtual registers and immediates.

    Variables and block labels are small integers allocated per function
    (see {!Func}); name hints for printing live in side tables. *)

type var = int
(** An SSA virtual register. *)

type label = int
(** A basic-block identifier. *)

type t =
  | Var of var
  | Imm_int of int64 * Types.t  (** integer immediate carrying its type (I1/I32/I64) *)
  | Imm_float of float          (** F64 immediate *)
  | Undef of Types.t            (** an unconstrained value of the given type *)

val i1 : bool -> t
val i32 : int -> t
val i64 : int64 -> t
val f64 : float -> t

val equal : t -> t -> bool

val is_const : t -> bool
(** True for immediates and [Undef]. *)

val as_var : t -> var option

module Var_map : Map.S with type key = var
module Var_set : Set.S with type elt = var
module Label_map : Map.S with type key = label
module Label_set : Set.S with type elt = label
