(** Structural and type well-formedness checks, in the spirit of LLVM's
    IR verifier. Run by the pass manager after every pass so that a
    transform bug fails fast with a precise message instead of corrupting
    downstream results.

    Checked here: every branch target exists; every register has exactly
    one definition; every use refers to a definition or parameter; phi
    incoming labels agree exactly with CFG predecessors (for reachable
    blocks); every block's kept predecessor list ([Cfg.preds_of]) equals
    a fresh build from the terminators, so a CFG write that bypassed
    [Func.set_term] fails at the pass that made it; entry has no phis
    and no predecessors; operand and result types are consistent; [Ret]
    agrees with the function's return type.
    The dominance property of SSA (defs dominate uses) is checked
    separately by [Uu_analysis.Ssa_check], which has the dominator tree. *)

val check : Func.t -> (unit, string list) result
(** All violations found, or [Ok ()]. *)

val check_exn : Func.t -> unit
(** @raise Failure with a readable message on the first violation. *)
