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

type canonical = {
  loop : Loops.loop;
      (** what a fresh analysis would find (only its exit edges move) *)
  preheader : Value.label;
  edited : bool;
      (** a preheader, dedicated exit or LCSSA phi was added: the caller's
          pass must report a change even if it then declines *)
}

val canonicalize : Func.t -> Value.label -> canonical option
(** Give the loop with the given header a preheader, dedicated exits, and
    LCSSA phis, or return [None] if the header no longer heads a loop.
    The function's loops are analyzed once, before any change.
    @raise Failure if a value is used outside a loop with multiple
    distinct exit targets (not needed by any kernel in this project; see
    DESIGN.md). *)
