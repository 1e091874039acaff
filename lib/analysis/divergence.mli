(** Thread-divergence analysis: which values may differ between threads of
    a warp, and which branches may therefore diverge.

    The paper suggests (§V, "complex") extending the heuristic with "a
    taint analysis that checks whether a condition depends on the values
    of e.g. threadIdx" to avoid slowing down thread-id-divergent loops.
    This module implements that taint: [Thread_idx] (and values derived
    from it, including loads through divergent addresses, atomics, and
    phis whose incoming values differ or that sync-depend on a divergent
    branch) are divergent; parameters, other special registers, and
    constants are uniform. The analysis over-approximates. *)

open Uu_ir

type t

val analyze : Func.t -> t

val value_divergent : t -> Value.t -> bool
(** Constants are uniform. *)

val loop_has_divergent_branch : t -> Func.t -> Loops.loop -> bool
(** Does any block of the loop end in a possibly-divergent branch? Used by
    the divergence-aware heuristic extension. *)
