(* Tests for the IR core: types, values, instructions, blocks, functions,
   the builder, the verifier, cloning, and operation semantics (Eval). *)

open Uu_ir

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let test_types () =
  check bool "equal ptr" true (Types.equal (Types.Ptr Types.F64) (Types.Ptr Types.F64));
  check bool "unequal ptr" false (Types.equal (Types.Ptr Types.F64) (Types.Ptr Types.I64));
  check bool "is_int i1" true (Types.is_int Types.I1);
  check bool "is_int f64" false (Types.is_int Types.F64);
  check bool "is_pointer" true (Types.is_pointer (Types.Ptr Types.I32));
  check int "size f64" 8 (Types.size_bytes Types.F64);
  check int "size i32" 4 (Types.size_bytes Types.I32);
  check string "pp nested ptr" "i64**" (Types.to_string (Types.Ptr (Types.Ptr Types.I64)));
  Alcotest.check_raises "pointee of int" (Invalid_argument "Types.pointee: not a pointer")
    (fun () -> ignore (Types.pointee Types.I64))

let test_values () =
  check bool "imm equal" true (Value.equal (Value.i64 3L) (Value.i64 3L));
  check bool "imm type distinguishes" false (Value.equal (Value.i64 1L) (Value.i1 true));
  check bool "var vs imm" false (Value.equal (Value.Var 0) (Value.i64 0L));
  check bool "is_const var" false (Value.is_const (Value.Var 3));
  check bool "is_const undef" true (Value.is_const (Value.Undef Types.I64));
  check (Alcotest.option int) "as_var" (Some 7) (Value.as_var (Value.Var 7))

let test_instr_structure () =
  let add = Instr.Binop { dst = 5; op = Instr.Add; ty = Types.I64; lhs = Value.Var 1; rhs = Value.i64 2L } in
  check (Alcotest.option int) "def" (Some 5) (Instr.def add);
  check int "uses" 2 (List.length (Instr.uses add));
  check bool "pure" true (Instr.is_pure add);
  let store = Instr.Store { ty = Types.I64; addr = Value.Var 1; value = Value.Var 2 } in
  check (Alcotest.option int) "store no def" None (Instr.def store);
  check bool "store side effect" true (Instr.has_side_effect store);
  check bool "sync convergent" true (Instr.is_convergent Instr.Syncthreads);
  check bool "load not convergent" false
    (Instr.is_convergent (Instr.Load { dst = 1; ty = Types.I64; addr = Value.Var 0 }));
  let mapped = Instr.map_values (fun _ -> Value.i64 9L) add in
  check bool "map_values hits all operands" true
    (List.for_all (Value.equal (Value.i64 9L)) (Instr.uses mapped));
  let remapped = Instr.map_def (fun d -> d + 100) add in
  check (Alcotest.option int) "map_def" (Some 105) (Instr.def remapped)

let test_terminators () =
  let cb = Instr.Cond_br { cond = Value.Var 0; if_true = 1; if_false = 2 } in
  check (Alcotest.list int) "condbr succs" [ 1; 2 ] (Instr.successors cb);
  let same = Instr.Cond_br { cond = Value.Var 0; if_true = 3; if_false = 3 } in
  check (Alcotest.list int) "dedup equal succs" [ 3 ] (Instr.successors same);
  check (Alcotest.list int) "ret no succs" [] (Instr.successors (Instr.Ret None));
  let mapped = Instr.term_map_labels (fun l -> l + 10) cb in
  check (Alcotest.list int) "label map" [ 11; 12 ] (Instr.successors mapped)

let test_size_units () =
  check bool "div costs more than add" true
    (Instr.size_units
       (Instr.Binop { dst = 0; op = Instr.Sdiv; ty = Types.I64; lhs = Value.Var 1; rhs = Value.Var 2 })
    > Instr.size_units
        (Instr.Binop { dst = 0; op = Instr.Add; ty = Types.I64; lhs = Value.Var 1; rhs = Value.Var 2 }));
  check int "alloca free" 0 (Instr.size_units (Instr.Alloca { dst = 0; ty = Types.I64 }))

let test_func_basics () =
  let fn = Func.create ~name:"f" ~params:[ ("a", Types.I64, false) ] ~ret_ty:Types.Void in
  check int "one param var" 1 (List.length (Func.param_vars fn));
  check bool "entry exists" true (Func.find_block fn fn.Func.entry <> None);
  let v = Func.fresh_var ~hint:"x" fn in
  check bool "fresh var distinct from params" true (not (List.mem v (Func.param_vars fn)));
  check (Alcotest.option string) "hint" (Some "x") (Func.var_hint fn v);
  let b2 = Func.fresh_block ~hint:"b" fn in
  check int "two blocks" 2 (List.length (Func.labels fn));
  Func.remove_block fn b2.Block.label;
  check int "one block" 1 (List.length (Func.labels fn))

let test_func_copy_isolation () =
  let fn, _ = Ir_helpers.diamond_loop () in
  let snapshot = Func.copy fn in
  let before = Printer.func_to_string fn in
  (* Mutate the original heavily. *)
  Func.iter_blocks (fun b -> b.Block.instrs <- []) fn;
  check bool "copy unaffected" true (Printer.func_to_string snapshot = before);
  Func.restore fn ~from_:snapshot;
  check string "restore round-trips" before (Printer.func_to_string fn)

let test_verifier_catches () =
  let fn = Func.create ~name:"bad" ~params:[] ~ret_ty:Types.Void in
  let entry = Func.block fn fn.Func.entry in
  entry.Block.instrs <-
    [ Instr.Binop { dst = 0; op = Instr.Add; ty = Types.I64; lhs = Value.Var 42; rhs = Value.i64 1L } ];
  entry.Block.term <- Instr.Ret None;
  (match Verifier.check fn with
  | Ok () -> Alcotest.fail "expected undefined-register error"
  | Error errs ->
    check bool "mentions undefined" true
      (List.exists (fun e -> Astring.String.is_infix ~affix:"undefined" e) errs))

let test_verifier_type_errors () =
  let fn = Func.create ~name:"bad2" ~params:[ ("x", Types.F64, false) ] ~ret_ty:Types.Void in
  let x = List.nth (Func.param_vars fn) 0 in
  let entry = Func.block fn fn.Func.entry in
  entry.Block.instrs <-
    [ Instr.Binop { dst = 10; op = Instr.Add; ty = Types.I64; lhs = Value.Var x; rhs = Value.i64 1L } ];
  entry.Block.term <- Instr.Ret None;
  (match Verifier.check fn with
  | Ok () -> Alcotest.fail "expected type error"
  | Error errs -> check bool "has errors" true (errs <> []))

let test_verifier_double_def () =
  let fn = Func.create ~name:"bad3" ~params:[] ~ret_ty:Types.Void in
  let entry = Func.block fn fn.Func.entry in
  let mk () = Instr.Binop { dst = 3; op = Instr.Add; ty = Types.I64; lhs = Value.i64 1L; rhs = Value.i64 2L } in
  entry.Block.instrs <- [ mk (); mk () ];
  entry.Block.term <- Instr.Ret None;
  (match Verifier.check fn with
  | Ok () -> Alcotest.fail "expected double-definition error"
  | Error errs ->
    check bool "mentions more than once" true
      (List.exists (fun e -> Astring.String.is_infix ~affix:"more than once" e) errs))

let test_verifier_phi_preds () =
  let fn, header = Ir_helpers.diamond_loop () in
  (* Break a phi by dropping an incoming entry. *)
  let hb = Func.block fn header in
  hb.Block.phis <-
    List.map
      (fun (p : Instr.phi) -> { p with incoming = [ List.hd p.incoming ] })
      hb.Block.phis;
  check bool "verifier rejects phi/pred mismatch" true
    (match Verifier.check fn with Ok () -> false | Error _ -> true)

let test_verifier_accepts_diamond () =
  let fn, _ = Ir_helpers.diamond_loop () in
  Verifier.check_exn fn;
  Uu_analysis.Ssa_check.check_exn fn

let test_printer_mentions_structure () =
  let fn, _ = Ir_helpers.diamond_loop () in
  let s = Printer.func_to_string fn in
  List.iter
    (fun needle ->
      check bool (Printf.sprintf "printer mentions %s" needle) true
        (Astring.String.is_infix ~affix:needle s))
    [ "func @diamond"; "phi"; "condbr"; "store"; "restrict"; "gep" ]

let test_cfg_dot () =
  let fn, _ = Ir_helpers.diamond_loop () in
  let s = Format.asprintf "%a" Printer.pp_cfg_dot fn in
  check bool "dot has digraph" true (Astring.String.is_prefix ~affix:"digraph" s);
  check bool "dot has edges" true (Astring.String.is_infix ~affix:"->" s)

let test_clone_region () =
  let fn, header = Ir_helpers.diamond_loop () in
  let before_blocks = List.length (Func.labels fn) in
  let forest = Uu_analysis.Loops.analyze fn in
  let loop = List.hd (Uu_analysis.Loops.loops forest) in
  let region = Value.Label_set.elements loop.Uu_analysis.Loops.blocks in
  let m = Clone.clone_region fn region in
  check int "blocks doubled by region size" (before_blocks + List.length region)
    (List.length (Func.labels fn));
  (* Clones are fresh labels and fresh vars. *)
  List.iter
    (fun l ->
      let cl = Clone.map_label m l in
      check bool "fresh label" true (cl <> l);
      let orig_defs = Block.defs (Func.block fn l) in
      let clone_defs = Block.defs (Func.block fn cl) in
      check int "same def count" (List.length orig_defs) (List.length clone_defs);
      List.iter2
        (fun a b -> check bool "defs renamed" true (a <> b))
        orig_defs clone_defs)
    region;
  check int "outside labels unchanged" header (Clone.map_label m (-99) |> fun _ -> header)

let test_apply_subst_chains () =
  let fn = Ir_helpers.straight_line () in
  (* x(param 1) <- y(param 2) via a chain through a fresh var. *)
  let x = List.nth (Func.param_vars fn) 1 in
  let y = List.nth (Func.param_vars fn) 2 in
  let subst =
    Value.Var_map.add x (Value.Var y) Value.Var_map.empty
  in
  Clone.apply_subst fn subst;
  let uses_x = ref false in
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          List.iter
            (fun v -> if Value.equal v (Value.Var x) then uses_x := true)
            (Instr.uses i))
        b.Block.instrs)
    fn;
  check bool "x fully substituted" false !uses_x

let feq = Alcotest.float 1e-12

let test_eval_int_ops () =
  let i n = Eval.Int n in
  let bin op ty a b =
    match Eval.binop op ty (i a) (i b) with Eval.Int r -> r | _ -> assert false
  in
  check Alcotest.int64 "add" 7L (bin Instr.Add Types.I64 3L 4L);
  check Alcotest.int64 "sub" (-1L) (bin Instr.Sub Types.I64 3L 4L);
  check Alcotest.int64 "mul wrap i32" (Eval.normalize Types.I32 (Int64.mul 70000L 70000L))
    (bin Instr.Mul Types.I32 70000L 70000L);
  check Alcotest.int64 "sdiv" (-2L) (bin Instr.Sdiv Types.I64 (-4L) 2L);
  check Alcotest.int64 "sdiv by zero is 0" 0L (bin Instr.Sdiv Types.I64 5L 0L);
  check Alcotest.int64 "srem by zero is 0" 0L (bin Instr.Srem Types.I64 5L 0L);
  check Alcotest.int64 "udiv treats as unsigned" 0x7FFFFFFFFFFFFFFFL
    (bin Instr.Udiv Types.I64 (-2L) 2L);
  check Alcotest.int64 "shl masks amount" 2L (bin Instr.Shl Types.I64 1L 65L);
  check Alcotest.int64 "ashr sign extends" (-1L) (bin Instr.Ashr Types.I64 (-2L) 1L);
  check Alcotest.int64 "lshr i32 uses 32-bit view" 0x7FFFFFFFL
    (bin Instr.Lshr Types.I32 (-1L) 1L);
  check Alcotest.int64 "xor" 6L (bin Instr.Xor Types.I64 5L 3L)

let test_eval_cmp () =
  let c op a b = Eval.is_true (Eval.cmp op (Eval.Int a) (Eval.Int b)) in
  check bool "slt" true (c Instr.Slt (-1L) 0L);
  check bool "ult treats sign" false (c Instr.Ult (-1L) 0L);
  check bool "sge" true (c Instr.Sge 3L 3L);
  check bool "ne" false (c Instr.Ne 3L 3L);
  let f op a b = Eval.is_true (Eval.cmp op (Eval.Float a) (Eval.Float b)) in
  check bool "folt" true (f Instr.Folt 1.0 2.0);
  check bool "foeq nan" false (f Instr.Foeq Float.nan Float.nan);
  check bool "fone nan is false (ordered)" false (f Instr.Fone Float.nan 1.0)

let test_eval_unop_intrinsic () =
  (match Eval.unop Instr.Sitofp (Eval.Int 3L) with
  | Eval.Float f -> check feq "sitofp" 3.0 f
  | _ -> Alcotest.fail "expected float");
  (match Eval.unop Instr.Trunc_i32 (Eval.Int 0x1_0000_0005L) with
  | Eval.Int n -> check Alcotest.int64 "trunc" 5L n
  | _ -> Alcotest.fail "expected int");
  (match Eval.intrinsic Instr.Imax [ Eval.Int 3L; Eval.Int 9L ] with
  | Eval.Int n -> check Alcotest.int64 "imax" 9L n
  | _ -> Alcotest.fail "expected int");
  (match Eval.intrinsic Instr.Sqrt [ Eval.Float 9.0 ] with
  | Eval.Float f -> check feq "sqrt" 3.0 f
  | _ -> Alcotest.fail "expected float")

let test_eval_value_round_trip () =
  check bool "of_value imm" true (Eval.of_value (Value.i64 5L) = Some (Eval.Int 5L));
  check bool "of_value var" true (Eval.of_value (Value.Var 0) = None);
  check bool "to_value ptr" true (Eval.to_value Types.I64 (Eval.Ptr { buffer = 0; offset = 0 }) = None);
  check bool "i1 normalized" true
    (Eval.to_value Types.I1 (Eval.Int 3L) = Some (Value.i1 true))

(* Random CFG edits. Block operands are indices into the function's
   current labels, taken modulo their count; the entry is never
   removed. *)
type cfg_op =
  | Set_br of int * int
  | Set_cond of int * int * int
  | Set_ret of int
  | Fresh
  | Remove of int
  | Remove_unreachable
  | Copy
  | Restore

let show_cfg_op = function
  | Set_br (i, j) -> Printf.sprintf "br %d->%d" i j
  | Set_cond (i, j, k) -> Printf.sprintf "condbr %d->%d,%d" i j k
  | Set_ret i -> Printf.sprintf "ret %d" i
  | Fresh -> "fresh"
  | Remove i -> Printf.sprintf "remove %d" i
  | Remove_unreachable -> "remove-unreachable"
  | Copy -> "copy"
  | Restore -> "restore"

let cfg_op_gen =
  QCheck2.Gen.(
    let i = int_bound 7 in
    frequency
      [
        (4, map2 (fun a b -> Set_br (a, b)) i i);
        (3, map3 (fun a b c -> Set_cond (a, b, c)) i i i);
        (1, map2 (fun a b -> Set_cond (a, b, b)) i i);
        (1, map (fun a -> Set_ret a) i);
        (2, return Fresh);
        (2, map (fun a -> Remove a) i);
        (1, return Remove_unreachable);
        (1, return Copy);
        (1, return Restore);
      ])

(* After every edit, each label's kept predecessor list equals a rebuild,
   in the original and in every copy taken. *)
let prop_kept_preds =
  QCheck2.Test.make ~name:"kept predecessors match a rebuild under random CFG edits"
    ~count:300
    ~print:(fun ops -> String.concat "; " (List.map show_cfg_op ops))
    QCheck2.Gen.(list_size (int_range 1 40) cfg_op_gen)
    (fun ops ->
      let fn = Func.create ~name:"g" ~params:[ ("c", Types.I1, false) ] ~ret_ty:Types.Void in
      let c = Value.Var (List.hd (Func.param_vars fn)) in
      for _ = 1 to 3 do
        ignore (Func.fresh_block fn)
      done;
      let snapshot = ref None in
      let ok g =
        match Ir_helpers.preds_drift g with
        | None -> true
        | Some (l, kept, rebuilt) ->
          QCheck2.Test.fail_reportf "bb%d: kept [%s], rebuilt [%s]" l
            (String.concat "," (List.map string_of_int kept))
            (String.concat "," (List.map string_of_int rebuilt))
      in
      List.for_all
        (fun op ->
          let labels = Array.of_list (Func.labels fn) in
          let pick i = labels.(i mod Array.length labels) in
          let set i term = Func.set_term fn (Func.block fn (pick i)) term in
          (match op with
          | Set_br (i, j) -> set i (Instr.Br (pick j))
          | Set_cond (i, j, k) ->
            set i (Instr.Cond_br { cond = c; if_true = pick j; if_false = pick k })
          | Set_ret i -> set i (Instr.Ret None)
          | Fresh -> ignore (Func.fresh_block fn)
          | Remove i -> if pick i <> fn.Func.entry then Func.remove_block fn (pick i)
          | Remove_unreachable -> ignore (Cfg.remove_unreachable fn)
          | Copy -> snapshot := Some (Func.copy fn)
          | Restore -> Option.iter (fun from_ -> Func.restore fn ~from_) !snapshot);
          ok fn && Option.fold ~none:true ~some:ok !snapshot)
        ops)

(* [n] fresh blocks join one label, in ascending label order, and then
   leave it: the minor words the predecessor edits allocate. *)
let pred_edit_words n =
  let fn = Func.create ~name:"g" ~params:[] ~ret_ty:Types.Void in
  let join = (Func.fresh_block fn).Block.label in
  let blocks = List.init n (fun _ -> Func.fresh_block fn) in
  let before = Gc.minor_words () in
  List.iter (fun b -> Func.set_term fn b (Instr.Br join)) blocks;
  List.iter (fun (b : Block.t) -> Func.remove_block fn b.Block.label) blocks;
  let words = Gc.minor_words () -. before in
  check (Alcotest.list int) "the join has no predecessors left" [] (Cfg.preds_of fn join);
  words

(* An edit at a join of n predecessors costs O(log n), so doubling the
   fan-in about doubles the words; sorted-list edits quadruple them. *)
let test_pred_edit_scaling () =
  let n = 1000 in
  let ratio = pred_edit_words (2 * n) /. pred_edit_words n in
  if ratio > 2.5 then
    Alcotest.failf "minor words at %d predecessors are %.2fx those at %d (limit 2.5x)" (2 * n)
      ratio n

(* Phi-entry edits, batched and as list rewrites. Labels 0-5 make
   repeats, absent labels and a label dropped then appended again
   common. *)
type phi_op = Drop of int * int | First of int * int | Append of int * int * int

let show_phi_op = function
  | Drop (i, l) -> Printf.sprintf "drop phi%d bb%d" i l
  | First (i, l) -> Printf.sprintf "first phi%d bb%d" i l
  | Append (i, l, v) -> Printf.sprintf "append phi%d bb%d %d" i l v

let phi_op_gen =
  QCheck2.Gen.(
    let i = int_bound 1 and l = int_bound 5 in
    frequency
      [
        (2, map2 (fun i l -> Drop (i, l)) i l);
        (2, map2 (fun i l -> First (i, l)) i l);
        (3, map3 (fun i l v -> Append (i, l, v)) i l (int_bound 99));
      ])

let incoming_gen =
  QCheck2.Gen.(list_size (int_bound 6) (pair (int_bound 5) (map (fun v -> 100 + v) (int_bound 99))))

let show_incoming inc =
  String.concat ", " (List.map (fun (l, v) -> Printf.sprintf "bb%d: %d" l v) inc)

let prop_phi_edits =
  QCheck2.Test.make ~name:"batched phi edits match list rewrites" ~count:500
    ~print:(fun ((a, b), ops) ->
      Printf.sprintf "phi0 [%s]; phi1 [%s]; %s" (show_incoming a) (show_incoming b)
        (String.concat "; " (List.map show_phi_op ops)))
    QCheck2.Gen.(pair (pair incoming_gen incoming_gen) (list_size (int_range 1 30) phi_op_gen))
    (fun ((a, b), ops) ->
      let imm = List.map (fun (l, v) -> (l, Value.i64 (Int64.of_int v))) in
      let phi dst inc = { Instr.dst; ty = Types.I64; incoming = imm inc } in
      let blk = Block.create 9 in
      blk.Block.phis <- [ phi 0 a; phi 1 b ];
      let model = [| imm a; imm b |] in
      let edits = Phi_edits.create () in
      let handles = Array.of_list (Phi_edits.phis edits blk) in
      let firsts_agree =
        List.for_all
          (fun op ->
            match op with
            | Drop (i, l) ->
              Phi_edits.drop edits handles.(i) l;
              model.(i) <- List.filter (fun (l', _) -> l' <> l) model.(i);
              true
            | First (i, l) ->
              Option.equal Value.equal (Phi_edits.first handles.(i) l) (List.assoc_opt l model.(i))
            | Append (i, l, v) ->
              let v = Value.i64 (Int64.of_int v) in
              Phi_edits.append edits handles.(i) l v;
              model.(i) <- model.(i) @ [ (l, v) ];
              true)
          ops
      in
      Phi_edits.flush edits;
      let same (p : Instr.phi) want =
        List.equal (fun (l, v) (l', v') -> l = l' && Value.equal v v') p.incoming want
      in
      firsts_agree
      && (match blk.Block.phis with [ p0; p1 ] -> same p0 model.(0) && same p1 model.(1) | _ -> false))

let suite =
  [
    ("types", `Quick, test_types);
    ("values", `Quick, test_values);
    ("instruction structure", `Quick, test_instr_structure);
    ("terminators", `Quick, test_terminators);
    ("size units", `Quick, test_size_units);
    ("function basics", `Quick, test_func_basics);
    ("function copy isolation", `Quick, test_func_copy_isolation);
    ("verifier: undefined register", `Quick, test_verifier_catches);
    ("verifier: type error", `Quick, test_verifier_type_errors);
    ("verifier: double definition", `Quick, test_verifier_double_def);
    ("verifier: phi/pred mismatch", `Quick, test_verifier_phi_preds);
    ("verifier: accepts diamond loop", `Quick, test_verifier_accepts_diamond);
    ("printer structure", `Quick, test_printer_mentions_structure);
    ("cfg dot output", `Quick, test_cfg_dot);
    ("clone region", `Quick, test_clone_region);
    ("apply_subst", `Quick, test_apply_subst_chains);
    ("eval int ops", `Quick, test_eval_int_ops);
    ("eval comparisons", `Quick, test_eval_cmp);
    ("eval unop/intrinsic", `Quick, test_eval_unop_intrinsic);
    ("eval value round trip", `Quick, test_eval_value_round_trip);
    Mutation.to_alcotest ~seed:2601 prop_kept_preds;
    ("predecessor edits at a wide join scale near-linearly", `Quick, test_pred_edit_scaling);
    Mutation.to_alcotest ~seed:2901 prop_phi_edits;
  ]
