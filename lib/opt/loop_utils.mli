(** Loop canonicalization: preheaders, dedicated exits, and LCSSA.

    Unrolling (and unmerging) assume the canonical shape LLVM's
    loop-simplify establishes:

    - a {e preheader}: the header's unique out-of-loop predecessor,
      ending in an unconditional branch;
    - {e dedicated exits}: every block targeted by a loop exit edge has
      all of its predecessors inside the loop;
    - {e LCSSA}: every value defined in the loop and used outside flows
      through a phi in an exit block, so cloning the loop body only has to
      patch exit-block phis. *)

open Uu_ir
open Uu_analysis

val canonicalize : Func.t -> Value.label -> (Loops.loop * Value.label) option
(** Give the loop with the given header a preheader, dedicated exits, and
    LCSSA phis. Returns the loop and its preheader, or [None] if the
    header no longer heads a loop. The function's loops are analyzed
    once, before any change; the returned loop is what a fresh analysis
    would find (only its exit edges move).
    @raise Failure if a value is used outside a loop with multiple
    distinct exit targets (not needed by any kernel in this project; see
    DESIGN.md). *)
