type pos = { line : int; col : int }

type ty = Tint | Tfloat | Tbool | Tptr of ty

type builtin =
  | Thread_idx | Block_idx | Block_dim | Grid_dim

type unop = Neg | Not | Bnot

type binop =
  | Add | Sub | Mul | Div | Rem
  | Shl | Shr
  | Band | Bor | Bxor
  | Land | Lor
  | Lt | Le | Gt | Ge | Eq | Ne

type expr = { desc : expr_desc; pos : pos }

and expr_desc =
  | Int_lit of int64
  | Float_lit of float
  | Bool_lit of bool
  | Var of string
  | Index of expr * expr
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Ternary of expr * expr * expr
  | Cast of ty * expr
  | Call of string * expr list
  | Builtin of builtin
  | Addr_of_index of expr * expr

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Decl of ty * string * expr
  | Shared_decl of ty * string * int
  | Assign of string * expr
  | Store_stmt of expr * expr * expr
  | If of expr * stmt list * stmt list
  | While of pragma option * expr * stmt list
  | For of pragma option * stmt option * expr * stmt option * stmt list
  | Break
  | Continue
  | Return
  | Expr_stmt of expr
  | Sync

and pragma = Unroll_pragma of int | Nounroll_pragma

type param = { p_ty : ty; p_name : string; p_const : bool; p_restrict : bool }

type kernel = { k_name : string; k_params : param list; k_body : stmt list }

type program = kernel list
