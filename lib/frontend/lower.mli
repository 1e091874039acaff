(** Lowering MiniCUDA to the IR.

    Locals (and mutable scalar parameters) become [Alloca] slots with
    explicit loads and stores — mem2reg promotes them to SSA registers at
    the head of every pipeline. [int] is I64, [float] is F64, [bool] is
    I1; thread builtins are I32 specials sign-extended to I64. Arithmetic
    promotes int operands to float when mixed. Conditions may be [bool]
    or [int] (compared against zero, C-style). [&&]/[||] evaluate both
    operands (no short-circuit; kernel conditions here are pure).

    Loop pragmas ([#pragma unroll N], [#pragma nounroll]) are recorded on
    the loop header in [Func.pragmas]; the u&u heuristic refuses to touch
    annotated loops (§III-C). *)

exception Error of string * Ast.pos

val lower_kernel : Ast.kernel -> Uu_ir.Func.t

val compile : name:string -> string -> Uu_ir.Func.modul
(** Parse and lower a source string.
    @raise Error (or [Parser.Error], [Lexer.Error]) on bad input. *)
