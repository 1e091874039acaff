(** Abstract syntax of MiniCUDA, the small C-like kernel language the
    benchmarks are written in. It covers the constructs the paper's
    evaluation loops use: scalar locals, global arrays, [if]/[while]/
    [for] with [break]/[continue], CUDA thread builtins, [__syncthreads],
    [atomicAdd], math intrinsics, and [#pragma unroll]/[nounroll] loop
    annotations. *)

type pos = { line : int; col : int }

type ty = Tint | Tfloat | Tbool | Tptr of ty

type builtin =
  | Thread_idx | Block_idx | Block_dim | Grid_dim

type unop = Neg | Not | Bnot

type binop =
  | Add | Sub | Mul | Div | Rem
  | Shl | Shr                     (** [>>] is arithmetic on ints *)
  | Band | Bor | Bxor
  | Land | Lor                    (** non-short-circuit; operands must be bool *)
  | Lt | Le | Gt | Ge | Eq | Ne

type expr = { desc : expr_desc; pos : pos }

and expr_desc =
  | Int_lit of int64
  | Float_lit of float
  | Bool_lit of bool
  | Var of string
  | Index of expr * expr          (** [a[i]] *)
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Ternary of expr * expr * expr
  | Cast of ty * expr
  | Call of string * expr list    (** intrinsics: sqrt, min, atomicAdd, ... *)
  | Builtin of builtin
  | Addr_of_index of expr * expr  (** [&a[i]], only as an atomic's target *)

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Decl of ty * string * expr
  | Shared_decl of ty * string * int
      (** [__shared__ float tile[64]] — element type, name, element
          count; only at a kernel body's top level *)
  | Assign of string * expr
  | Store_stmt of expr * expr * expr  (** [a[i] = e] — array, index, value *)
  | If of expr * stmt list * stmt list
  | While of pragma option * expr * stmt list
  | For of pragma option * stmt option * expr * stmt option * stmt list
  | Break
  | Continue
  | Return
  | Expr_stmt of expr                 (** a call evaluated for effect *)
  | Sync

and pragma = Unroll_pragma of int | Nounroll_pragma

type param = { p_ty : ty; p_name : string; p_const : bool; p_restrict : bool }

type kernel = { k_name : string; k_params : param list; k_body : stmt list }

type program = kernel list
