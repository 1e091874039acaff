(** Pre-decoded warp programs: the simulator's fast execution path.

    [decode] compiles a function once per (function, device) into a flat
    program — dense int block ids, every operand resolved to a register
    row (immediates included: each distinct immediate owns a constant row
    of pre-normalized values), instructions specialized by value class
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

(** A register operand: the index of lane 0's cell in its value class's
    register file ([slot * warp_size]); lane [l] is at [row + l]. Every
    operand is a row — variables and immediates alike. *)
type row = int

(** A constant row's contents, the same in every lane. The executor
    writes these once per launch, as it writes the parameters. *)
type const =
  | C_int of { row : row; value : int }
  | C_float of { row : row; value : float }
  | C_ptr of { row : row; buffer : int; offset : int }

type ity = W1 | W32 | W64  (** integer width tag, for normalization *)

type dphi =
  | Phi_f of { dst : row; inc : row array }
  | Phi_i of { dst : row; inc : row array }
  | Phi_p of { dst : row; inc : row array }
      (** [inc] is indexed by dense predecessor id; [-1] replicates the
          interpreter's missing-incoming failure. *)

type dinstr =
  | D_ibin of { dst : row; op : Instr.binop; w : ity; a : row; b : row; cost : int }
  | D_fbin of { dst : row; op : Instr.binop; a : row; b : row; cost : int }
  | D_icmp of { dst : row; op : Instr.cmpop; a : row; b : row }
  | D_fcmp of { dst : row; op : Instr.cmpop; a : row; b : row }
  | D_pcmp of { dst : row; negate : bool; a : row; b : row }
  | D_iunop of { dst : row; op : Instr.unop; src : row }
  | D_sitofp of { dst : row; src : row }
  | D_fptosi of { dst : row; src : row }
  | D_fneg of { dst : row; src : row }
  | D_iselect of { dst : row; cond : row; t : row; f : row }
  | D_fselect of { dst : row; cond : row; t : row; f : row }
  | D_pselect of { dst : row; cond : row; t : row; f : row }
  | D_gep of { dst : row; base : row; index : row }
  | D_iload of { dst : row; addr : row; bytes : int }
  | D_fload of { dst : row; addr : row; bytes : int }
  | D_pload of { dst : row; addr : row; bytes : int }
  | D_istore of { addr : row; value : row; bytes : int }
  | D_fstore of { addr : row; value : row; bytes : int }
  | D_pstore of { addr : row; value : row; bytes : int }
  | D_iatomic of { dst : row; addr : row; value : row }
  | D_fatomic of { dst : row; addr : row; value : row }
  | D_fintrinsic of { dst : row; op : Instr.intrinsic; args : row array }
  | D_iintrinsic of { dst : row; op : Instr.intrinsic; args : row array }
  | D_special of { dst : row; op : Instr.special }
  | D_alloca of { dst : row; ty : Types.t }
  | D_sync

type dterm =
  | T_ret
  | T_br of int
  | T_cbr of { cond : row; if_true : int; if_false : int }
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
  n_f : int;  (** register slots per class, constants included *)
  n_i : int;
  n_p : int;
  row : row array;  (** variable -> its row in its class's file *)
  consts : const list;  (** every constant row, filled once per launch *)
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
