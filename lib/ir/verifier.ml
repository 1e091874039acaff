let value_ty tys v =
  match v with
  | Value.Var x -> Hashtbl.find_opt tys x
  | Value.Imm_int (_, ty) -> Some ty
  | Value.Imm_float _ -> Some Types.F64
  | Value.Undef ty -> Some ty

let check f =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  (* [where] names the site of an error; a block's name is formatted
     only when one is reported. *)
  let block_where l () = Format.asprintf "%a" (Printer.pp_label f) l in
  (* Collect definitions and check uniqueness. *)
  let tys : (Value.var, Types.t) Hashtbl.t = Hashtbl.create 64 in
  let define where v ty =
    if Hashtbl.mem tys v then err "%s: register %%%d defined more than once" (where ()) v
    else Hashtbl.replace tys v ty
  in
  List.iter (fun (p : Func.param) -> define (fun () -> "param") p.pvar p.pty) f.Func.params;
  List.iter
    (fun (s : Func.shared) ->
      if s.s_size <= 0 then
        err "shared: array %s has non-positive size %d" s.s_name s.s_size;
      (match s.s_elt with
      | Types.F64 | Types.I64 -> ()
      | other ->
        err "shared: array %s has element type %s (only f64/i64 are bankable)"
          s.s_name (Types.to_string other));
      define (fun () -> "shared") s.s_var (Types.Ptr s.s_elt))
    f.Func.shared;
  Func.iter_blocks
    (fun b ->
      let where = block_where b.Block.label in
      List.iter (fun (p : Instr.phi) -> define where p.dst p.ty) b.Block.phis;
      List.iter
        (fun i ->
          match Instr.def_ty i with
          | Some (v, ty) -> define where v ty
          | None -> ())
        b.Block.instrs)
    f;
  (* Structural checks. *)
  (match Func.find_block f f.Func.entry with
  | None -> err "entry block bb%d does not exist" f.Func.entry
  | Some b ->
    if b.Block.phis <> [] then err "entry block has phi nodes");
  let preds = Cfg.predecessors f in
  let reachable = Cfg.reachable f in
  Func.iter_blocks
    (fun b ->
      let where = block_where b.Block.label in
      List.iter
        (fun s ->
          if Func.find_block f s = None then
            err "%s: branch to nonexistent block bb%d" (where ()) s)
        (Block.successors b);
      if Value.Label_set.mem b.Block.label reachable then begin
        let ps = try Hashtbl.find preds b.Block.label with Not_found -> [] in
        let ps = List.filter (fun p -> Value.Label_set.mem p reachable) ps in
        List.iter
          (fun (p : Instr.phi) ->
            let inc = List.map fst p.incoming in
            let inc_sorted = List.sort_uniq compare inc in
            if List.length inc <> List.length inc_sorted then
              err "%s: phi %%%d has duplicate incoming labels" (where ()) p.dst;
            (* Entries from unreachable predecessors are tolerated (branch
               folding leaves them; simplify-cfg prunes them); every
               reachable predecessor must be covered exactly. *)
            let live_inc =
              List.filter (fun l -> Value.Label_set.mem l reachable) inc_sorted
            in
            if live_inc <> ps then
              err "%s: phi %%%d incoming %s do not match predecessors %s" (where ()) p.dst
                (String.concat "," (List.map string_of_int live_inc))
                (String.concat "," (List.map string_of_int ps)))
          b.Block.phis
      end)
    f;
  (* Use/type checks. *)
  let expect where what want v =
    match value_ty tys v with
    | None -> (
      match v with
      | Value.Var x -> err "%s: use of undefined register %%%d in %s" (where ()) x what
      | Value.Imm_int _ | Value.Imm_float _ | Value.Undef _ -> ())
    | Some got ->
      if not (Types.equal got want) then
        err "%s: %s has type %s, expected %s" (where ()) what (Types.to_string got)
          (Types.to_string want)
  in
  let expect_int where what v =
    match value_ty tys v with
    | None -> (
      match v with
      | Value.Var x -> err "%s: use of undefined register %%%d in %s" (where ()) x what
      | Value.Imm_int _ | Value.Imm_float _ | Value.Undef _ -> ())
    | Some (Types.I1 | Types.I32 | Types.I64) -> ()
    | Some got ->
      err "%s: %s has type %s, expected an integer" (where ()) what (Types.to_string got)
  in
  let is_float_binop (op : Instr.binop) =
    match op with
    | Fadd | Fsub | Fmul | Fdiv -> true
    | Add | Sub | Mul | Sdiv | Udiv | Srem | Shl | Lshr | Ashr | And | Or | Xor ->
      false
  in
  let is_float_cmp (op : Instr.cmpop) =
    match op with
    | Foeq | Fone | Folt | Fole | Fogt | Foge -> true
    | Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge -> false
  in
  let check_instr where (i : Instr.t) =
    match i with
    | Instr.Binop { op; ty; lhs; rhs; _ } ->
      if is_float_binop op && not (Types.equal ty Types.F64) then
        err "%s: float binop on %s" (where ()) (Types.to_string ty);
      if (not (is_float_binop op)) && not (Types.is_int ty) then
        err "%s: integer binop on %s" (where ()) (Types.to_string ty);
      expect where "binop lhs" ty lhs;
      expect where "binop rhs" ty rhs
    | Instr.Cmp { op; ty; lhs; rhs; _ } ->
      if is_float_cmp op && not (Types.equal ty Types.F64) then
        err "%s: float cmp on %s" (where ()) (Types.to_string ty);
      if (not (is_float_cmp op)) && not (Types.is_int ty || Types.is_pointer ty) then
        err "%s: integer cmp on %s" (where ()) (Types.to_string ty);
      expect where "cmp lhs" ty lhs;
      expect where "cmp rhs" ty rhs
    | Instr.Unop { op; src; _ } -> (
      match op with
      | Instr.Sitofp -> expect_int where "sitofp src" src
      | Instr.Fptosi | Instr.Fneg -> expect where "unop src" Types.F64 src
      | Instr.Trunc_i32 -> expect where "trunc src" Types.I64 src
      | Instr.Sext_i64 | Instr.Zext_i64 -> expect_int where "ext src" src
      | Instr.Not -> expect where "not src" Types.I64 src)
    | Instr.Select { ty; cond; if_true; if_false; _ } ->
      expect where "select cond" Types.I1 cond;
      expect where "select true" ty if_true;
      expect where "select false" ty if_false
    | Instr.Alloca _ -> ()
    | Instr.Load { ty; addr; _ } -> expect where "load addr" (Types.Ptr ty) addr
    | Instr.Store { ty; addr; value } ->
      expect where "store addr" (Types.Ptr ty) addr;
      expect where "store value" ty value
    | Instr.Gep { elt; base; index; _ } ->
      expect where "gep base" (Types.Ptr elt) base;
      expect_int where "gep index" index
    | Instr.Intrinsic { op; args; _ } ->
      let want =
        match op with
        | Instr.Imin | Instr.Imax | Instr.Iabs -> Types.I64
        | Instr.Sqrt | Instr.Exp | Instr.Log | Instr.Sin | Instr.Cos | Instr.Fabs
        | Instr.Pow | Instr.Fmin | Instr.Fmax ->
          Types.F64
      in
      List.iter (expect where "intrinsic arg" want) args
    | Instr.Special _ -> ()
    | Instr.Atomic_add { ty; addr; value; _ } ->
      expect where "atomic addr" (Types.Ptr ty) addr;
      expect where "atomic value" ty value
    | Instr.Syncthreads -> ()
  in
  Func.iter_blocks
    (fun b ->
      let where = block_where b.Block.label in
      List.iter
        (fun (p : Instr.phi) ->
          List.iter (fun (_, v) -> expect where "phi incoming" p.ty v) p.incoming)
        b.Block.phis;
      List.iter (check_instr where) b.Block.instrs;
      match b.Block.term with
      | Instr.Br _ | Instr.Unreachable -> ()
      | Instr.Cond_br { cond; _ } -> expect where "branch cond" Types.I1 cond
      | Instr.Ret None ->
        if not (Types.equal f.Func.ret_ty Types.Void) then
          err "%s: ret void in non-void function" (where ())
      | Instr.Ret (Some v) -> expect where "ret value" f.Func.ret_ty v)
    f;
  match !errs with [] -> Ok () | es -> Error (List.rev es)

let check_exn f =
  match check f with
  | Ok () -> ()
  | Error (e :: _ as all) ->
    failwith
      (Printf.sprintf "IR verification failed in @%s: %s (%d issue(s))" f.Func.name e
         (List.length all))
  | Error [] -> assert false
