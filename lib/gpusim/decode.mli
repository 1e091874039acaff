(** Pre-decoded warp programs: the simulator's fast execution path.

    [decode] compiles a function once per (function, device) into a flat
    program — dense int block ids, operands resolved to register slots or
    pre-normalized immediates, instructions specialized by value class
    (float / int / pointer), phi incomings as per-predecessor arrays, the
    immediate post-dominator relation and the per-block icache line
    extents baked into int arrays. {!Decoded_warp} executes this
    representation over unboxed register files; [Kernel.exec] selects
    between it and the reference interpreter.

    Decode invariants (what makes the decoded engine cycle-identical to
    the reference interpreter):
    - code addresses and icache line extents come from {!Layout}, as for
      the reference engine, so fetch misses are line-for-line identical;
    - binop issue costs are {!Cost.binop_cost}, baked per instruction;
    - immediates are pre-normalized with [Eval.normalize]; integer
      registers keep values sign-extended exactly as the interpreter's
      [Int64]s, with [Int64] fallbacks where a 63-bit native int could
      diverge;
    - [ipdom] is the same relation [Dominance.compute_post] yields, so
      reconvergence stacks evolve identically;
    - a decoded function must not be mutated and re-launched through the
      same {!cache} (the harness optimizes first, then freezes). *)

open Uu_ir

(** Operands, resolved per value class: a register slot in that class's
    file, or an immediate. *)
type fop = F_reg of int | F_imm of float

type iop = I_reg of int | I_imm of int
type pop = P_reg of int | P_imm of int * int  (** buffer, offset *)

type ity = W1 | W32 | W64  (** integer width tag, for normalization *)

type dphi =
  | Phi_f of { dst : int; inc : fop option array }
  | Phi_i of { dst : int; inc : iop option array }
  | Phi_p of { dst : int; inc : pop option array }
      (** [inc] is indexed by dense predecessor id; [None] replicates the
          interpreter's missing-incoming failure. *)

type dinstr =
  | D_ibin of { dst : int; op : Instr.binop; w : ity; a : iop; b : iop; cost : int }
  | D_fbin of { dst : int; op : Instr.binop; a : fop; b : fop; cost : int }
  | D_icmp of { dst : int; op : Instr.cmpop; a : iop; b : iop }
  | D_fcmp of { dst : int; op : Instr.cmpop; a : fop; b : fop }
  | D_pcmp of { dst : int; negate : bool; a : pop; b : pop }
  | D_iunop of { dst : int; op : Instr.unop; src : iop }
  | D_sitofp of { dst : int; src : iop }
  | D_fptosi of { dst : int; src : fop }
  | D_fneg of { dst : int; src : fop }
  | D_iselect of { dst : int; cond : iop; t : iop; f : iop }
  | D_fselect of { dst : int; cond : iop; t : fop; f : fop }
  | D_pselect of { dst : int; cond : iop; t : pop; f : pop }
  | D_gep of { dst : int; base : pop; index : iop }
  | D_iload of { dst : int; addr : pop; bytes : int }
  | D_fload of { dst : int; addr : pop; bytes : int }
  | D_pload of { dst : int; addr : pop; bytes : int }
  | D_istore of { addr : pop; value : iop; bytes : int }
  | D_fstore of { addr : pop; value : fop; bytes : int }
  | D_pstore of { addr : pop; value : pop; bytes : int }
  | D_iatomic of { dst : int; addr : pop; value : iop }
  | D_fatomic of { dst : int; addr : pop; value : fop }
  | D_fintrinsic of { dst : int; op : Instr.intrinsic; args : fop array }
  | D_iintrinsic of { dst : int; op : Instr.intrinsic; args : iop array }
  | D_special of { dst : int; op : Instr.special }
  | D_alloca of { dst : int; ty : Types.t }
  | D_sync

type dterm =
  | T_ret
  | T_br of int
  | T_cbr of { cond : iop; if_true : int; if_false : int }
  | T_unreachable

type dblock = {
  orig : Value.label;  (** original label, for traces and error messages *)
  phis : dphi array;
  instrs : dinstr array;
  term : dterm;
  line_first : int;  (** icache lines this block's code occupies *)
  line_last : int;
}

type t = {
  fn_name : string;
  device : Device.t;
  entry : int;
  blocks : dblock array;  (** indexed by dense block id *)
  ipdom : int array;  (** dense immediate post-dominator; -1 = virtual exit *)
  code_bytes : int;
  n_f : int;  (** register slots per class *)
  n_i : int;
  n_p : int;
  cls : int array;  (** variable -> class (0 int, 1 float, 2 pointer) *)
  slot : int array;  (** variable -> slot within its class *)
  max_phis : int;  (** widest phi row, sizes the executor's scratch *)
}

val code_bytes : t -> int

val decode : Device.t -> Uu_ir.Func.t -> t
(** Decode a function for a device. @raise Failure on IR the interpreter
    could not execute either (class-confused operands, unknown branch
    targets). *)

type cache
(** Memoizes {!decode} by physical equality of the (function, device)
    pair, so repeated launches (and the job graph's repeated simulations
    of one compiled module) decode once. Single-domain use only. *)

val create_cache : unit -> cache
val decode_cached : cache -> Device.t -> Uu_ir.Func.t -> t
