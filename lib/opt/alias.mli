(** A light may-alias analysis over pointer values.

    Pointers in kernels are parameter arrays indexed by [Gep]. Two
    addresses are disjoint when they index different [__restrict__]
    parameters, or the same base at provably different constant offsets.
    Everything else conservatively may alias. This is what lets GVN keep
    a load available across a store to a different restrict array — the
    rainflow pattern the paper analyzes in §V. *)

open Uu_ir

type t

val create : Func.t -> t
(** Snapshot the function's definitions (call again after passes that
    change address computations). *)

val may_alias : t -> Value.t -> Value.t -> bool
