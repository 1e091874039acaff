open Uu_ir

(* Pre-decoded warp programs.

   [decode] compiles a [Func.t] once per (function, device) into a flat
   representation the warp executor can run without touching the IR:

   - blocks are densely renumbered, each with the icache line extent
     [Layout] gives the reference engine, so fetch behaviour matches it
     line for line;
   - operands are resolved to a register slot or a pre-normalized
     immediate, and every instruction is specialized by value class
     (float / int / pointer) so the executor keeps registers in unboxed
     [float array] / [int array] lanes;
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

type fop = F_reg of int | F_imm of float
type iop = I_reg of int | I_imm of int
type pop = P_reg of int | P_imm of int * int  (* buffer, offset *)

type ity = W1 | W32 | W64

type dphi =
  | Phi_f of { dst : int; inc : fop option array }
  | Phi_i of { dst : int; inc : iop option array }
  | Phi_p of { dst : int; inc : pop option array }

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
  cls : int array;
  slot : int array;
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
  let slot = Array.make nvars 0 in
  let counts = [| 0; 0; 0 |] in
  Array.iteri
    (fun v c ->
      slot.(v) <- counts.(c);
      counts.(c) <- counts.(c) + 1)
    cls;
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
      I_reg slot.(x)
    | Value.Imm_int (n, ty) -> I_imm (Int64.to_int (Eval.normalize ty n))
    | Value.Imm_float _ -> fail name "float immediate in an integer position"
    | Value.Undef _ -> I_imm 0
  in
  let fopv = function
    | Value.Var x ->
      if cls.(x) <> cls_f then fail name "v%d used as a float but holds %s" x
          (if cls.(x) = cls_i then "an integer" else "a pointer");
      F_reg slot.(x)
    | Value.Imm_float x -> F_imm x
    | Value.Imm_int _ -> fail name "integer immediate in a float position"
    | Value.Undef _ -> F_imm 0.0
  in
  let popv = function
    | Value.Var x ->
      if cls.(x) <> cls_p then fail name "v%d used as a pointer but holds %s" x
          (if cls.(x) = cls_i then "an integer" else "a float");
      P_reg slot.(x)
    | Value.Undef _ -> P_imm (-1, 0)
    | Value.Imm_int _ | Value.Imm_float _ ->
      fail name "immediate in a pointer position"
  in
  let opv_of_cls c v =
    if c = cls_f then `F (fopv v) else if c = cls_p then `P (popv v) else `I (iopv v)
  in
  let decode_instr = function
    | Instr.Binop { dst; op; ty; lhs; rhs } -> (
      let cost = Cost.binop_cost device op in
      match op with
      | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv ->
        D_fbin { dst = slot.(dst); op; a = fopv lhs; b = fopv rhs; cost }
      | _ ->
        D_ibin
          { dst = slot.(dst); op; w = ity_of_ty name ty; a = iopv lhs; b = iopv rhs; cost })
    | Instr.Cmp { dst; op; lhs; rhs; _ } -> (
      match op with
      | Instr.Foeq | Instr.Fone | Instr.Folt | Instr.Fole | Instr.Fogt | Instr.Foge ->
        D_fcmp { dst = slot.(dst); op; a = fopv lhs; b = fopv rhs }
      | Instr.Eq | Instr.Ne
        when cls_of_value lhs = cls_p || cls_of_value rhs = cls_p ->
        D_pcmp { dst = slot.(dst); negate = op = Instr.Ne; a = popv lhs; b = popv rhs }
      | _ -> D_icmp { dst = slot.(dst); op; a = iopv lhs; b = iopv rhs })
    | Instr.Unop { dst; op; src } -> (
      match op with
      | Instr.Sitofp -> D_sitofp { dst = slot.(dst); src = iopv src }
      | Instr.Fptosi -> D_fptosi { dst = slot.(dst); src = fopv src }
      | Instr.Fneg -> D_fneg { dst = slot.(dst); src = fopv src }
      | Instr.Trunc_i32 | Instr.Sext_i64 | Instr.Zext_i64 | Instr.Not ->
        D_iunop { dst = slot.(dst); op; src = iopv src })
    | Instr.Select { dst; ty; cond; if_true; if_false } -> (
      let cond = iopv cond in
      match cls_of_ty ty with
      | c when c = cls_f ->
        D_fselect { dst = slot.(dst); cond; t = fopv if_true; f = fopv if_false }
      | c when c = cls_p ->
        D_pselect { dst = slot.(dst); cond; t = popv if_true; f = popv if_false }
      | _ -> D_iselect { dst = slot.(dst); cond; t = iopv if_true; f = iopv if_false })
    | Instr.Alloca { dst; ty } -> D_alloca { dst = slot.(dst); ty }
    | Instr.Load { dst; ty; addr } -> (
      let addr = popv addr and bytes = Types.size_bytes ty in
      match cls_of_ty ty with
      | c when c = cls_f -> D_fload { dst = slot.(dst); addr; bytes }
      | c when c = cls_p -> D_pload { dst = slot.(dst); addr; bytes }
      | _ -> D_iload { dst = slot.(dst); addr; bytes })
    | Instr.Store { ty; addr; value } -> (
      let addr = popv addr and bytes = Types.size_bytes ty in
      match opv_of_cls (cls_of_ty ty) value with
      | `F v -> D_fstore { addr; value = v; bytes }
      | `P v -> D_pstore { addr; value = v; bytes }
      | `I v -> D_istore { addr; value = v; bytes })
    | Instr.Gep { dst; base; index; _ } ->
      D_gep { dst = slot.(dst); base = popv base; index = iopv index }
    | Instr.Intrinsic { dst; op; args } -> (
      let arity = match op with Instr.Pow | Instr.Fmin | Instr.Fmax | Instr.Imin | Instr.Imax -> 2 | _ -> 1 in
      if List.length args <> arity then fail name "intrinsic arity mismatch";
      match op with
      | Instr.Imin | Instr.Imax | Instr.Iabs ->
        D_iintrinsic { dst = slot.(dst); op; args = Array.of_list (List.map iopv args) }
      | _ ->
        D_fintrinsic { dst = slot.(dst); op; args = Array.of_list (List.map fopv args) })
    | Instr.Special { dst; op } -> D_special { dst = slot.(dst); op }
    | Instr.Atomic_add { dst; ty; addr; value } -> (
      let addr = popv addr in
      match cls_of_ty ty with
      | c when c = cls_f -> D_fatomic { dst = slot.(dst); addr; value = fopv value }
      | c when c = cls_p -> fail name "atomic_add on a pointer type"
      | _ -> D_iatomic { dst = slot.(dst); addr; value = iopv value })
    | Instr.Syncthreads -> D_sync
  in
  let decode_phi (p : Instr.phi) =
    let with_inc mk conv =
      let inc = Array.make n_blocks None in
      List.iter
        (fun (pred, v) ->
          match Hashtbl.find_opt dense pred with
          | Some pi -> inc.(pi) <- Some (conv v)
          | None -> ())  (* stale edge: never a runtime predecessor *)
        p.Instr.incoming;
      mk inc
    in
    match cls_of_ty p.Instr.ty with
    | c when c = cls_f -> with_inc (fun inc -> Phi_f { dst = slot.(p.Instr.dst); inc }) fopv
    | c when c = cls_p -> with_inc (fun inc -> Phi_p { dst = slot.(p.Instr.dst); inc }) popv
    | _ -> with_inc (fun inc -> Phi_i { dst = slot.(p.Instr.dst); inc }) iopv
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
    cls;
    slot;
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
