exception Error of string * int

let fail line fmt = Format.kasprintf (fun s -> raise (Error (s, line))) fmt

(* ---- token helpers (the printed syntax is line-oriented) ---- *)

let split_commas s =
  (* Top-level comma split; brackets group (phi incoming lists). *)
  let out = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '[' ->
        incr depth;
        Buffer.add_char buf c
      | ']' ->
        decr depth;
        Buffer.add_char buf c
      | ',' when !depth = 0 ->
        out := Buffer.contents buf :: !out;
        Buffer.clear buf
      | c -> Buffer.add_char buf c)
    s;
  out := Buffer.contents buf :: !out;
  List.rev_map String.trim !out

let parse_ty line s =
  let s = String.trim s in
  let stars = ref 0 in
  let base = ref s in
  while String.length !base > 0 && !base.[String.length !base - 1] = '*' do
    incr stars;
    base := String.sub !base 0 (String.length !base - 1)
  done;
  let t =
    match !base with
    | "i1" -> Types.I1
    | "i32" -> Types.I32
    | "i64" -> Types.I64
    | "f64" -> Types.F64
    | "void" -> Types.Void
    | other -> fail line "unknown type %s" other
  in
  let rec wrap t n = if n = 0 then t else wrap (Types.Ptr t) (n - 1) in
  wrap t !stars

(* "%hint.7" or "%7" -> (7, Some "hint") *)
let parse_reg line s =
  let s = String.trim s in
  if String.length s < 2 || s.[0] <> '%' then fail line "expected a register, found %s" s;
  let body = String.sub s 1 (String.length s - 1) in
  match String.rindex_opt body '.' with
  | Some i -> (
    let hint = String.sub body 0 i in
    let id = String.sub body (i + 1) (String.length body - i - 1) in
    match int_of_string_opt id with
    | Some n -> (n, Some hint)
    | None -> fail line "bad register %s" s)
  | None -> (
    match int_of_string_opt body with
    | Some n -> (n, None)
    | None -> fail line "bad register %s (hints need a trailing .id)" s)

(* "bb7" or "bb7.hint" -> (7, hint) *)
let parse_label line s =
  let s = String.trim s in
  if String.length s < 3 || not (String.length s >= 2 && s.[0] = 'b' && s.[1] = 'b') then
    fail line "expected a label, found %s" s;
  let body = String.sub s 2 (String.length s - 2) in
  let num, hint =
    match String.index_opt body '.' with
    | Some i ->
      (String.sub body 0 i, String.sub body (i + 1) (String.length body - i - 1))
    | None -> (body, "")
  in
  match int_of_string_opt num with
  | Some n -> (n, hint)
  | None -> fail line "bad label %s" s

let parse_value fn line s =
  let s = String.trim s in
  if s = "" then fail line "empty value"
  else if s.[0] = '%' then begin
    let id, hint = parse_reg line s in
    Func.note_var ?hint fn id;
    Value.Var id
  end
  else if s = "true" then Value.i1 true
  else if s = "false" then Value.i1 false
  else if String.length s > 6 && String.sub s 0 6 = "undef:" then
    Value.Undef (parse_ty line (String.sub s 6 (String.length s - 6)))
  else
    match String.index_opt s ':' with
    | Some i -> (
      let num = String.sub s 0 i in
      let ty = parse_ty line (String.sub s (i + 1) (String.length s - i - 1)) in
      match Int64.of_string_opt num with
      | Some n -> Value.Imm_int (n, ty)
      | None -> fail line "bad integer immediate %s" s)
    | None -> (
      match float_of_string_opt s with
      | Some f -> Value.Imm_float f
      | None -> fail line "unrecognized value %s" s)

let binops =
  [
    ("add", Instr.Add); ("sub", Instr.Sub); ("mul", Instr.Mul); ("sdiv", Instr.Sdiv);
    ("udiv", Instr.Udiv); ("srem", Instr.Srem); ("shl", Instr.Shl);
    ("lshr", Instr.Lshr); ("ashr", Instr.Ashr); ("and", Instr.And); ("or", Instr.Or);
    ("xor", Instr.Xor); ("fadd", Instr.Fadd); ("fsub", Instr.Fsub);
    ("fmul", Instr.Fmul); ("fdiv", Instr.Fdiv);
  ]

let cmpops =
  [
    ("eq", Instr.Eq); ("ne", Instr.Ne); ("slt", Instr.Slt); ("sle", Instr.Sle);
    ("sgt", Instr.Sgt); ("sge", Instr.Sge); ("ult", Instr.Ult); ("ule", Instr.Ule);
    ("ugt", Instr.Ugt); ("uge", Instr.Uge); ("foeq", Instr.Foeq); ("fone", Instr.Fone);
    ("folt", Instr.Folt); ("fole", Instr.Fole); ("fogt", Instr.Fogt);
    ("foge", Instr.Foge);
  ]

let unops =
  [
    ("sitofp", Instr.Sitofp); ("fptosi", Instr.Fptosi); ("trunc.i32", Instr.Trunc_i32);
    ("sext.i64", Instr.Sext_i64); ("zext.i64", Instr.Zext_i64); ("fneg", Instr.Fneg);
    ("not", Instr.Not);
  ]

let intrinsics =
  [
    ("sqrt", Instr.Sqrt); ("exp", Instr.Exp); ("log", Instr.Log); ("sin", Instr.Sin);
    ("cos", Instr.Cos); ("fabs", Instr.Fabs); ("pow", Instr.Pow); ("fmin", Instr.Fmin);
    ("fmax", Instr.Fmax); ("imin", Instr.Imin); ("imax", Instr.Imax);
    ("iabs", Instr.Iabs);
  ]

let specials =
  [
    ("thread_idx", Instr.Thread_idx); ("block_idx", Instr.Block_idx);
    ("block_dim", Instr.Block_dim); ("grid_dim", Instr.Grid_dim);
  ]

let words s =
  String.split_on_char ' ' (String.trim s) |> List.filter (fun w -> w <> "")

(* "[bb0.entry: 0:i64]" -> (label, value) *)
let parse_incoming fn line s =
  let s = String.trim s in
  if String.length s < 2 || s.[0] <> '[' || s.[String.length s - 1] <> ']' then
    fail line "expected a phi incoming [..], found %s" s;
  let inner = String.sub s 1 (String.length s - 2) in
  match String.index_opt inner ':' with
  | Some i ->
    let lbl, _ = parse_label line (String.sub inner 0 i) in
    let v = parse_value fn line (String.sub inner (i + 1) (String.length inner - i - 1)) in
    (lbl, v)
  | None -> fail line "bad phi incoming %s" s

(* The right-hand side of "%d = <rhs>". *)
let parse_def_rhs fn line dst rhs =
  let head, rest =
    match String.index_opt rhs ' ' with
    | Some i ->
      (String.sub rhs 0 i, String.sub rhs (i + 1) (String.length rhs - i - 1))
    | None -> (rhs, "")
  in
  let value = parse_value fn line in
  match head with
  | "phi" -> (
    match words rest with
    | ty :: _ -> (
      let ty = parse_ty line ty in
      match String.index_opt rest '[' with
      | Some i ->
        let chunks = split_commas (String.sub rest i (String.length rest - i)) in
        `Phi { Instr.dst; ty; incoming = List.map (parse_incoming fn line) chunks }
      | None -> fail line "phi needs incoming [..] entries")
    | [] -> fail line "phi needs a type")
  | "cmp" -> (
    match words rest with
    | op :: ty :: _ -> (
      let op =
        match List.assoc_opt op cmpops with
        | Some o -> o
        | None -> fail line "unknown comparison %s" op
      in
      let ty = parse_ty line ty in
      let after = String.concat " " (List.tl (List.tl (words rest))) in
      match split_commas after with
      | [ lhs; rhs ] -> `Instr (Instr.Cmp { dst; op; ty; lhs = value lhs; rhs = value rhs })
      | _ -> fail line "cmp expects two operands")
    | _ -> fail line "malformed cmp")
  | "select" -> (
    match words rest with
    | ty :: _ -> (
      let ty = parse_ty line ty in
      let after = String.concat " " (List.tl (words rest)) in
      match split_commas after with
      | [ c; t; f ] ->
        `Instr
          (Instr.Select { dst; ty; cond = value c; if_true = value t; if_false = value f })
      | _ -> fail line "select expects three operands")
    | [] -> fail line "malformed select")
  | "alloca" -> `Instr (Instr.Alloca { dst; ty = parse_ty line rest })
  | "load" -> (
    match split_commas rest with
    | [ ty; addr ] -> `Instr (Instr.Load { dst; ty = parse_ty line ty; addr = value addr })
    | _ -> fail line "malformed load")
  | "gep" -> (
    (* "f64, %base[%idx]" *)
    match split_commas rest with
    | [ ty; indexed ] -> (
      match String.index_opt indexed '[' with
      | Some i when indexed.[String.length indexed - 1] = ']' ->
        let base = String.sub indexed 0 i in
        let idx = String.sub indexed (i + 1) (String.length indexed - i - 2) in
        `Instr
          (Instr.Gep { dst; elt = parse_ty line ty; base = value base; index = value idx })
      | Some _ | None -> fail line "malformed gep operand %s" indexed)
    | _ -> fail line "malformed gep")
  | "call" -> (
    match String.index_opt rhs '(' with
    | Some i when rhs.[String.length rhs - 1] = ')' -> (
      let callee = String.trim (String.sub rhs 5 (i - 5)) in
      let callee =
        if String.length callee > 0 && callee.[0] = '@' then
          String.sub callee 1 (String.length callee - 1)
        else callee
      in
      let args_s = String.sub rhs (i + 1) (String.length rhs - i - 2) in
      let args = if String.trim args_s = "" then [] else split_commas args_s in
      match List.assoc_opt callee intrinsics with
      | Some op -> `Instr (Instr.Intrinsic { dst; op; args = List.map value args })
      | None -> fail line "unknown intrinsic @%s" callee)
    | Some _ | None -> fail line "malformed call")
  | "special" -> (
    match List.assoc_opt (String.trim rest) specials with
    | Some op -> `Instr (Instr.Special { dst; op })
    | None -> fail line "unknown special register %s" rest)
  | "atomic_add" -> (
    match words rest with
    | ty :: _ -> (
      let ty = parse_ty line ty in
      let after = String.concat " " (List.tl (words rest)) in
      match split_commas after with
      | [ addr; v ] -> `Instr (Instr.Atomic_add { dst; ty; addr = value addr; value = value v })
      | _ -> fail line "malformed atomic_add")
    | [] -> fail line "malformed atomic_add")
  | op when List.mem_assoc op unops && String.trim rest <> "" ->
    `Instr (Instr.Unop { dst; op = List.assoc op unops; src = value rest })
  | op -> (
    match List.assoc_opt op binops, words rest with
    | Some bop, ty :: _ -> (
      let ty = parse_ty line ty in
      let after = String.concat " " (List.tl (words rest)) in
      match split_commas after with
      | [ lhs; rhs ] -> `Instr (Instr.Binop { dst; op = bop; ty; lhs = value lhs; rhs = value rhs })
      | _ -> fail line "binop expects two operands")
    | _, _ -> fail line "unknown instruction %s" op)

let parse_statement fn line s =
  let value = parse_value fn line in
  match words s with
  | "store" :: ty :: _ -> (
    let ty = parse_ty line ty in
    let after = String.concat " " (List.tl (List.tl (words s))) in
    match split_commas after with
    | [ v; addr ] -> `Instr (Instr.Store { ty; addr = value addr; value = value v })
    | _ -> fail line "malformed store")
  | [ "syncthreads" ] -> `Instr Instr.Syncthreads
  | "br" :: target :: [] -> `Term (Instr.Br (fst (parse_label line target)))
  | "condbr" :: _ -> (
    let after = String.sub s 7 (String.length s - 7) in
    match split_commas after with
    | [ c; t; f ] ->
      `Term
        (Instr.Cond_br
           {
             cond = value c;
             if_true = fst (parse_label line t);
             if_false = fst (parse_label line f);
           })
    | _ -> fail line "malformed condbr")
  | [ "ret" ] -> `Term (Instr.Ret None)
  | "ret" :: v -> `Term (Instr.Ret (Some (value (String.concat " " v))))
  | [ "unreachable" ] -> `Term Instr.Unreachable
  | _ -> (
    (* "%dst = rhs" *)
    match String.index_opt s '=' with
    | Some i ->
      let lhs = String.trim (String.sub s 0 i) in
      let rhs = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      let dst, hint = parse_reg line lhs in
      Func.note_var ?hint fn dst;
      parse_def_rhs fn line dst rhs
    | None -> fail line "unrecognized statement: %s" s)

let parse_header line s =
  (* func @name(%p: ty restrict, ...) -> ty { *)
  let get_between c1 c2 =
    match String.index_opt s c1, String.rindex_opt s c2 with
    | Some i, Some j when j > i -> String.sub s (i + 1) (j - i - 1)
    | _ -> fail line "malformed function header"
  in
  let name =
    match String.index_opt s '@', String.index_opt s '(' with
    | Some i, Some j when j > i -> String.sub s (i + 1) (j - i - 1)
    | _ -> fail line "missing function name"
  in
  let params_s = get_between '(' ')' in
  let params =
    if String.trim params_s = "" then []
    else
      List.map
        (fun p ->
          match String.index_opt p ':' with
          | Some i ->
            let pname = String.trim (String.sub p 0 i) in
            let pname =
              if String.length pname > 0 && pname.[0] = '%' then
                String.sub pname 1 (String.length pname - 1)
              else pname
            in
            let rest = words (String.sub p (i + 1) (String.length p - i - 1)) in
            (match rest with
            | [ ty ] -> (pname, parse_ty line ty, false)
            | [ ty; "restrict" ] -> (pname, parse_ty line ty, true)
            | _ -> fail line "malformed parameter %s" p)
          | None -> fail line "malformed parameter %s" p)
        (split_commas params_s)
  in
  let ret_ty =
    match String.index_opt s '>' with
    | Some i -> (
      let after = String.sub s (i + 1) (String.length s - i - 1) in
      match String.index_opt after '{' with
      | Some j -> parse_ty line (String.sub after 0 j)
      | None -> parse_ty line after)
    | None -> fail line "missing return type"
  in
  Func.create ~name ~params ~ret_ty

let parse_func_lines lines start =
  let fn = ref None in
  let current : Block.t option ref = ref None in
  let first_block = ref None in
  let i = ref start in
  let n = Array.length lines in
  let finished = ref false in
  while (not !finished) && !i < n do
    let lineno = !i + 1 in
    let raw = String.trim lines.(!i) in
    incr i;
    if raw = "" || raw.[0] = ';' then ()
    else if String.length raw >= 5 && String.sub raw 0 5 = "func " then begin
      if !fn <> None then fail lineno "nested function";
      let f = parse_header lineno raw in
      (* Drop the auto-created entry block; blocks come from the text. *)
      Func.remove_block f f.Func.entry;
      fn := Some f
    end
    else
      match !fn with
      | None -> fail lineno "statement outside a function"
      | Some f ->
        if raw = "}" then finished := true
        else if String.length raw >= 7 && String.sub raw 0 7 = "shared " then begin
          (* "shared %tile.5: f64[64]" — before any block, slot order is
             declaration order. *)
          if !current <> None then fail lineno "shared declaration after a block label";
          let rest = String.sub raw 7 (String.length raw - 7) in
          match String.index_opt rest ':' with
          | None -> fail lineno "malformed shared declaration: %s" raw
          | Some i -> (
            let var, hint = parse_reg lineno (String.sub rest 0 i) in
            let tail = String.trim (String.sub rest (i + 1) (String.length rest - i - 1)) in
            match String.index_opt tail '[' with
            | Some j when tail.[String.length tail - 1] = ']' -> (
              let elt = parse_ty lineno (String.sub tail 0 j) in
              let size_s = String.sub tail (j + 1) (String.length tail - j - 2) in
              match int_of_string_opt (String.trim size_s) with
              | Some size when size <= 0 ->
                fail lineno "shared array size must be positive, got %d" size
              | Some size ->
                ignore
                  (Func.declare_shared ~var f
                     ~name:(match hint with Some h -> h | None -> Printf.sprintf "shared%d" var)
                     ~elt ~size)
              | None -> fail lineno "bad shared array size %s" size_s)
            | Some _ | None -> fail lineno "malformed shared declaration: %s" raw)
        end
        else if raw.[String.length raw - 1] = ':' then begin
          let lbl, hint = parse_label lineno (String.sub raw 0 (String.length raw - 1)) in
          let b =
            match Func.find_block f lbl with
            | Some b -> fail lineno "duplicate block bb%d" b.Block.label
            | None -> Func.insert_block ~hint f lbl
          in
          if !first_block = None then first_block := Some lbl;
          current := Some b
        end
        else begin
          match !current with
          | None -> fail lineno "instruction before any block label"
          | Some b -> (
            match parse_statement f lineno raw with
            | `Phi p -> b.Block.phis <- b.Block.phis @ [ p ]
            | `Instr ins -> b.Block.instrs <- b.Block.instrs @ [ ins ]
            | `Term t -> Func.set_term f b t)
        end
  done;
  match !fn, !first_block with
  | Some f, Some entry ->
    Func.set_entry f entry;
    (match Verifier.check f with
    | Ok () -> ()
    | Error errors ->
      fail start "IR verification failed in @%s: %s" f.Func.name (String.concat "; " errors));
    (f, !i)
  | Some _, None -> fail start "function has no blocks"
  | None, _ -> fail start "no function found"

let parse src =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let m = Func.create_module "parsed" in
  let i = ref 0 in
  let n = Array.length lines in
  while !i < n do
    let raw = String.trim lines.(!i) in
    if raw = "" || raw.[0] = ';' then incr i
    else begin
      let f, next = parse_func_lines lines !i in
      Func.add_func m f;
      i := next
    end
  done;
  if m.Func.funcs = [] then fail 1 "no function found";
  m

let parse_func src =
  match (parse src).Func.funcs with
  | [ f ] -> f
  | fs -> fail 1 "expected exactly one function, found %d" (List.length fs)
