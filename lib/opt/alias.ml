open Uu_ir

type base =
  | Param of Value.var * bool  (* restrict? *)
  | Alloca_base of Value.var
  | Unknown

type t = {
  defs : (Value.var, Instr.t) Hashtbl.t;
  params : (Value.var, bool) Hashtbl.t;  (* pointer params, restrict flag *)
}

let create f =
  let defs = Hashtbl.create 64 in
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match Instr.def i with
          | Some d -> Hashtbl.replace defs d i
          | None -> ())
        b.Block.instrs)
    f;
  let params = Hashtbl.create 8 in
  List.iter
    (fun (p : Func.param) ->
      if Types.is_pointer p.pty then Hashtbl.replace params p.pvar p.restrict)
    f.Func.params;
  { defs; params }

(* Decompose an address into (base, index). A raw pointer is (base, 0). *)
let rec decompose t v =
  match v with
  | Value.Var x -> (
    match Hashtbl.find_opt t.params x with
    | Some restrict -> (Param (x, restrict), Value.i64 0L)
    | None -> (
      match Hashtbl.find_opt t.defs x with
      | Some (Instr.Gep { base; index; _ }) ->
        let b, _ = decompose t base in
        (b, index)
      | Some (Instr.Alloca _) -> (Alloca_base x, Value.i64 0L)
      | Some _ | None -> (Unknown, Value.i64 0L)))
  | Value.Imm_int _ | Value.Imm_float _ | Value.Undef _ -> (Unknown, Value.i64 0L)

let const_index = function
  | Value.Imm_int (n, _) -> Some n
  | Value.Var _ | Value.Imm_float _ | Value.Undef _ -> None

let may_alias t a b =
  if Value.equal a b then true
  else begin
    let base_a, idx_a = decompose t a in
    let base_b, idx_b = decompose t b in
    match base_a, base_b with
    | Param (p, rp), Param (q, rq) when p <> q ->
      (* Distinct parameters are disjoint if either is restrict. *)
      not (rp || rq)
    | Alloca_base x, Alloca_base y when x <> y -> false
    | (Alloca_base _, Param _) | (Param _, Alloca_base _) -> false
    | (Param _ | Alloca_base _ | Unknown), _ ->
      let same_base =
        match base_a, base_b with
        | Param (p, _), Param (q, _) -> p = q
        | Alloca_base x, Alloca_base y -> x = y
        | (Param _ | Alloca_base _ | Unknown), _ -> false
      in
      if same_base then (
        match const_index idx_a, const_index idx_b with
        | Some i, Some j -> Int64.equal i j
        | (Some _ | None), _ -> true)
      else true
  end
