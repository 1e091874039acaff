open Uu_ir

(* Pre-decoded warp programs.

   [decode] compiles a [Func.t] once per (function, device) into a flat
   representation the warp executor can run without touching the IR:

   - blocks are densely renumbered, each with the icache line extent
     [Layout] gives the reference engine, so fetch behaviour matches it
     line for line;
   - every operand is resolved to a register row: variables get a slot
     in their value class's file, and each distinct immediate gets a
     constant row that the executor fills once per launch, as it does
     for parameters; every instruction is specialized by value class
     (float / int / pointer) so the executor keeps registers in unboxed
     [float array] / [int array] lanes and never asks which shape an
     operand has;
   - phi incomings become per-predecessor arrays indexed by dense block
     id;
   - the immediate post-dominator relation is baked into an int array
     (-1 = reconverges at the virtual exit), so launches stop
     recomputing [Layout.compute] + [Dominance.compute_post].

   Integer registers hold OCaml native ints (63-bit) rather than boxed
   [int64]s. Values are kept sign-extended exactly as [Eval.normalize]
   keeps them, so every operation the benchmarks exercise is
   observationally identical to the reference interpreter's [Int64]
   semantics; the executor falls back to [Int64] arithmetic for the few
   corner cases (I64 unsigned division / logical shifts of negative
   values, shift counts of 63) where the 63-bit word would diverge. *)

type row = int

type const =
  | C_int of { row : row; value : int }
  | C_float of { row : row; value : float }
  | C_ptr of { row : row; buffer : int; offset : int }

type ity = W1 | W32 | W64

type dphi =
  | Phi_f of { dst : row; inc : row array }
  | Phi_i of { dst : row; inc : row array }
  | Phi_p of { dst : row; inc : row array }

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
  orig : Value.label;
  phis : dphi array;
  instrs : dinstr array;
  term : dterm;
  line_first : int;
  line_last : int;
}

type t = {
  fn_name : string;
  device : Device.t;
  entry : int;
  blocks : dblock array;
  ipdom : int array;
  code_bytes : int;
  n_f : int;
  n_i : int;
  n_p : int;
  row : row array;
  consts : const list;
  max_phis : int;
}

let code_bytes p = p.code_bytes

(* Value classes. *)
let cls_i = 0
let cls_f = 1
let cls_p = 2

let cls_of_ty = function
  | Types.I1 | Types.I32 | Types.I64 | Types.Void -> cls_i
  | Types.F64 -> cls_f
  | Types.Ptr _ -> cls_p

let ity_of_ty name = function
  | Types.I1 -> W1
  | Types.I32 -> W32
  | Types.I64 -> W64
  | (Types.F64 | Types.Ptr _ | Types.Void) as ty ->
    failwith
      (Printf.sprintf "decode(@%s): %s in an integer-op position" name
         (Types.to_string ty))

let fail name fmt = Printf.ksprintf (fun s -> failwith ("decode(@" ^ name ^ "): " ^ s)) fmt

let decode (device : Device.t) (fn : Func.t) : t =
  let name = fn.Func.name in
  (* Dense block numbering: reverse postorder, then unreachable blocks. *)
  let order =
    let rpo = Cfg.reverse_postorder fn in
    let seen = Hashtbl.create 32 in
    List.iter (fun l -> Hashtbl.replace seen l ()) rpo;
    rpo @ List.filter (fun l -> not (Hashtbl.mem seen l)) (Func.labels fn)
  in
  let labels = Array.of_list order in
  let n_blocks = Array.length labels in
  let dense = Hashtbl.create n_blocks in
  Array.iteri (fun i l -> Hashtbl.replace dense l i) labels;
  let dense_of l =
    match Hashtbl.find_opt dense l with
    | Some i -> i
    | None -> fail name "branch to unknown bb%d" l
  in
  (* Class and slot assignment for every variable. *)
  let nvars = fn.Func.next_var in
  let cls = Array.make nvars (-1) in
  let assign v c =
    if v >= 0 && v < nvars then begin
      if cls.(v) >= 0 && cls.(v) <> c then
        fail name "variable v%d defined with conflicting value classes" v;
      cls.(v) <- c
    end
  in
  List.iter (fun (p : Func.param) -> assign p.Func.pvar (cls_of_ty p.Func.pty)) fn.Func.params;
  (* Shared arrays are bound like pointer params: no defining
     instruction, so class them explicitly or [popv] rejects them. *)
  List.iter (fun (s : Func.shared) -> assign s.Func.s_var cls_p) fn.Func.shared;
  Array.iter
    (fun l ->
      let b = Func.block fn l in
      List.iter (fun (p : Instr.phi) -> assign p.Instr.dst (cls_of_ty p.Instr.ty)) b.Block.phis;
      List.iter
        (fun i ->
          match Instr.def_ty i with
          | Some (dst, ty) -> assign dst (cls_of_ty ty)
          | None -> ())
        b.Block.instrs)
    labels;
  (* Undefined-but-used variables behave like the interpreter's initial
     [Int 0L] registers: class int, initial value 0. *)
  Array.iteri (fun v c -> if c < 0 then cls.(v) <- cls_i) cls;
  (* Rows: slot [s] of a class's file holds lanes [s * ws .. s * ws + ws - 1].
     Variables take the first slots; constants are appended as operand
     resolution meets them. *)
  let ws = device.Device.warp_size in
  let counts = [| 0; 0; 0 |] in
  let new_row c =
    let s = counts.(c) in
    counts.(c) <- s + 1;
    s * ws
  in
  let row = Array.map new_row cls in
  let consts = ref [] in
  let const_row tbl c key mk =
    match Hashtbl.find_opt tbl key with
    | Some r -> r
    | None ->
      let r = new_row c in
      Hashtbl.replace tbl key r;
      consts := mk r :: !consts;
      r
  in
  let ints = Hashtbl.create 16 and floats = Hashtbl.create 16 and ptrs = Hashtbl.create 1 in
  let int_row n = const_row ints cls_i n (fun row -> C_int { row; value = n }) in
  (* Keyed by bit pattern, so 0.0 and -0.0 keep separate rows. *)
  let float_row x =
    const_row floats cls_f (Int64.bits_of_float x) (fun row -> C_float { row; value = x })
  in
  let ptr_row buffer offset =
    const_row ptrs cls_p (buffer, offset) (fun row -> C_ptr { row; buffer; offset })
  in
  (* Operand resolution. *)
  let cls_of_value = function
    | Value.Var x -> cls.(x)
    | Value.Imm_int _ -> cls_i
    | Value.Imm_float _ -> cls_f
    | Value.Undef ty -> cls_of_ty ty
  in
  let iopv = function
    | Value.Var x ->
      if cls.(x) <> cls_i then fail name "v%d used as an integer but holds %s" x
          (if cls.(x) = cls_f then "a float" else "a pointer");
      row.(x)
    | Value.Imm_int (n, ty) -> int_row (Int64.to_int (Eval.normalize ty n))
    | Value.Imm_float _ -> fail name "float immediate in an integer position"
    | Value.Undef _ -> int_row 0
  in
  let fopv = function
    | Value.Var x ->
      if cls.(x) <> cls_f then fail name "v%d used as a float but holds %s" x
          (if cls.(x) = cls_i then "an integer" else "a pointer");
      row.(x)
    | Value.Imm_float x -> float_row x
    | Value.Imm_int _ -> fail name "integer immediate in a float position"
    | Value.Undef _ -> float_row 0.0
  in
  let popv = function
    | Value.Var x ->
      if cls.(x) <> cls_p then fail name "v%d used as a pointer but holds %s" x
          (if cls.(x) = cls_i then "an integer" else "a float");
      row.(x)
    | Value.Undef _ -> ptr_row (-1) 0
    | Value.Imm_int _ | Value.Imm_float _ ->
      fail name "immediate in a pointer position"
  in
  let decode_instr = function
    | Instr.Binop { dst; op; ty; lhs; rhs } -> (
      let cost = Cost.binop_cost device op in
      match op with
      | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv ->
        D_fbin { dst = row.(dst); op; a = fopv lhs; b = fopv rhs; cost }
      | _ ->
        D_ibin
          { dst = row.(dst); op; w = ity_of_ty name ty; a = iopv lhs; b = iopv rhs; cost })
    | Instr.Cmp { dst; op; lhs; rhs; _ } -> (
      match op with
      | Instr.Foeq | Instr.Fone | Instr.Folt | Instr.Fole | Instr.Fogt | Instr.Foge ->
        D_fcmp { dst = row.(dst); op; a = fopv lhs; b = fopv rhs }
      | Instr.Eq | Instr.Ne
        when cls_of_value lhs = cls_p || cls_of_value rhs = cls_p ->
        D_pcmp { dst = row.(dst); negate = op = Instr.Ne; a = popv lhs; b = popv rhs }
      | _ -> D_icmp { dst = row.(dst); op; a = iopv lhs; b = iopv rhs })
    | Instr.Unop { dst; op; src } -> (
      match op with
      | Instr.Sitofp -> D_sitofp { dst = row.(dst); src = iopv src }
      | Instr.Fptosi -> D_fptosi { dst = row.(dst); src = fopv src }
      | Instr.Fneg -> D_fneg { dst = row.(dst); src = fopv src }
      | Instr.Trunc_i32 | Instr.Sext_i64 | Instr.Zext_i64 | Instr.Not ->
        D_iunop { dst = row.(dst); op; src = iopv src })
    | Instr.Select { dst; ty; cond; if_true; if_false } -> (
      let cond = iopv cond in
      match cls_of_ty ty with
      | c when c = cls_f ->
        D_fselect { dst = row.(dst); cond; t = fopv if_true; f = fopv if_false }
      | c when c = cls_p ->
        D_pselect { dst = row.(dst); cond; t = popv if_true; f = popv if_false }
      | _ -> D_iselect { dst = row.(dst); cond; t = iopv if_true; f = iopv if_false })
    | Instr.Alloca { dst; ty } -> D_alloca { dst = row.(dst); ty }
    | Instr.Load { dst; ty; addr } -> (
      let addr = popv addr and bytes = Types.size_bytes ty in
      match cls_of_ty ty with
      | c when c = cls_f -> D_fload { dst = row.(dst); addr; bytes }
      | c when c = cls_p -> D_pload { dst = row.(dst); addr; bytes }
      | _ -> D_iload { dst = row.(dst); addr; bytes })
    | Instr.Store { ty; addr; value } -> (
      let addr = popv addr and bytes = Types.size_bytes ty in
      match cls_of_ty ty with
      | c when c = cls_f -> D_fstore { addr; value = fopv value; bytes }
      | c when c = cls_p -> D_pstore { addr; value = popv value; bytes }
      | _ -> D_istore { addr; value = iopv value; bytes })
    | Instr.Gep { dst; base; index; _ } ->
      D_gep { dst = row.(dst); base = popv base; index = iopv index }
    | Instr.Intrinsic { dst; op; args } -> (
      let arity = match op with Instr.Pow | Instr.Fmin | Instr.Fmax | Instr.Imin | Instr.Imax -> 2 | _ -> 1 in
      if List.length args <> arity then fail name "intrinsic arity mismatch";
      match op with
      | Instr.Imin | Instr.Imax | Instr.Iabs ->
        D_iintrinsic { dst = row.(dst); op; args = Array.of_list (List.map iopv args) }
      | _ ->
        D_fintrinsic { dst = row.(dst); op; args = Array.of_list (List.map fopv args) })
    | Instr.Special { dst; op } -> D_special { dst = row.(dst); op }
    | Instr.Atomic_add { dst; ty; addr; value } -> (
      let addr = popv addr in
      match cls_of_ty ty with
      | c when c = cls_f -> D_fatomic { dst = row.(dst); addr; value = fopv value }
      | c when c = cls_p -> fail name "atomic_add on a pointer type"
      | _ -> D_iatomic { dst = row.(dst); addr; value = iopv value })
    | Instr.Syncthreads -> D_sync
  in
  let decode_phi (p : Instr.phi) =
    let with_inc mk conv =
      let inc = Array.make n_blocks (-1) in
      List.iter
        (fun (pred, v) ->
          match Hashtbl.find_opt dense pred with
          | Some pi -> inc.(pi) <- conv v
          | None -> ())  (* stale edge: never a runtime predecessor *)
        p.Instr.incoming;
      mk inc
    in
    match cls_of_ty p.Instr.ty with
    | c when c = cls_f -> with_inc (fun inc -> Phi_f { dst = row.(p.Instr.dst); inc }) fopv
    | c when c = cls_p -> with_inc (fun inc -> Phi_p { dst = row.(p.Instr.dst); inc }) popv
    | _ -> with_inc (fun inc -> Phi_i { dst = row.(p.Instr.dst); inc }) iopv
  in
  let decode_term = function
    | Instr.Ret _ -> T_ret
    | Instr.Unreachable -> T_unreachable
    | Instr.Br l -> T_br (dense_of l)
    | Instr.Cond_br { cond; if_true; if_false } ->
      T_cbr { cond = iopv cond; if_true = dense_of if_true; if_false = dense_of if_false }
  in
  (* Code layout and icache extents come from [Layout], as for the
     reference engine. *)
  let layout = Layout.compute device fn in
  let blocks =
    Array.map
      (fun l ->
        let b = Func.block fn l in
        let line_first, line_last = Layout.lines layout l in
        {
          orig = l;
          phis = Array.of_list (List.map decode_phi b.Block.phis);
          instrs = Array.of_list (List.map decode_instr b.Block.instrs);
          term = decode_term b.Block.term;
          line_first;
          line_last;
        })
      labels
  in
  let post = Uu_analysis.Dominance.compute_post fn in
  let ipdom =
    Array.map
      (fun l ->
        match Uu_analysis.Dominance.idom post l with
        | Some r -> dense_of r
        | None -> -1)
      labels
  in
  let max_phis =
    Array.fold_left (fun acc b -> max acc (Array.length b.phis)) 0 blocks
  in
  {
    fn_name = name;
    device;
    entry = dense_of fn.Func.entry;
    blocks;
    ipdom;
    code_bytes = Layout.code_bytes layout;
    n_f = counts.(cls_f);
    n_i = counts.(cls_i);
    n_p = counts.(cls_p);
    row;
    consts = List.rev !consts;
    max_phis;
  }

(* Decode cache, keyed by physical equality of the (function, device)
   pair. Sound because the harness freezes functions after optimization:
   a function mutated after its first launch must not be re-launched
   through the same cache. Not shared across domains: each compiled
   application (and its cache) runs on a single domain at a time. *)
type cache = { mutable entries : (Func.t * Device.t * t) list }

let create_cache () = { entries = [] }

let decode_cached c device fn =
  let rec find = function
    | [] -> None
    | (f, d, p) :: rest -> if f == fn && d == device then Some p else find rest
  in
  match find c.entries with
  | Some p -> p
  | None ->
    let p = decode device fn in
    c.entries <- (fn, device, p) :: c.entries;
    p
