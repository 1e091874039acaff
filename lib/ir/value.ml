type var = int
type label = int

type t =
  | Var of var
  | Imm_int of int64 * Types.t
  | Imm_float of float
  | Undef of Types.t

let i1 b = Imm_int ((if b then 1L else 0L), Types.I1)
let i32 n = Imm_int (Int64.of_int n, Types.I32)
let i64 n = Imm_int (n, Types.I64)
let f64 x = Imm_float x

let equal a b =
  match a, b with
  | Var x, Var y -> x = y
  | Imm_int (x, tx), Imm_int (y, ty) -> Int64.equal x y && Types.equal tx ty
  | Imm_float x, Imm_float y -> Float.equal x y
  | Undef tx, Undef ty -> Types.equal tx ty
  | (Var _ | Imm_int _ | Imm_float _ | Undef _), _ -> false

let is_const = function
  | Var _ -> false
  | Imm_int _ | Imm_float _ | Undef _ -> true

let as_var = function Var v -> Some v | Imm_int _ | Imm_float _ | Undef _ -> None

module Int_ord = struct
  type t = int

  let compare = Int.compare
end

module Var_map = Map.Make (Int_ord)
module Var_set = Set.Make (Int_ord)
module Label_map = Map.Make (Int_ord)
module Label_set = Set.Make (Int_ord)
