(** Loop unrolling by whole-body cloning (paper Fig. 3).

    Unrolling with factor [u] creates [u-1] copies of the entire loop —
    header and exit checks included — and chains them: the latches of copy
    [i] branch to the header of copy [i+1], and the last copy's latches
    form the back edge to the original header. Because every copy keeps
    its exit check, the transform is correct for any trip count (no
    prologue/epilogue needed); redundant checks in later copies are folded
    by the cleanup pipeline when provable.

    This module also provides the baseline pipeline's full-unroll
    heuristic: loops with a small, known constant trip count are unrolled
    by their trip count (the behaviour whose interaction with u&u the
    paper observes on [coordinates], §IV-C). *)

open Uu_ir

type outcome = {
  unrolled : bool;
  edited : bool;
      (** the function changed: [unrolled], or the loop was canonicalized
          (see [Loop_utils.canonicalize]) before unrolling declined *)
}

val unroll_loop : ?exact:bool -> Func.t -> header:Value.label -> factor:int -> outcome
(** Unroll the loop whose header is [header]. Declines when [factor < 2]
    or the header heads no loop (the function is untouched), or when the
    loop contains convergent operations (after canonicalizing it). With
    [exact] (the trip count is known to equal [factor]) the never-taken
    back edge is redirected to the header's exit, letting the cleanup
    pipeline dissolve the loop entirely — true full unrolling. *)

val baseline_full_unroll :
  ?max_trip:int -> ?size_budget:int -> unit -> Pass.t
(** Full-unroll pass for the baseline pipeline: innermost-first, unrolls
    loops with constant trip count in [2, max_trip] (default 16) whose
    unrolled cost-model size stays within [size_budget] (default 320).
    Loops whose header carries [Pragma_nounroll] are skipped — the u&u
    pass sets that pragma on loops it has transformed. *)
