(* Shared IR construction helpers for the test suites. *)

open Uu_ir

(* A canonical counted loop with a diamond in its body — the shape of the
   paper's Figure 1:

     entry -> header
     header: i = phi(0, i'); if (i < n) body else exit
     body:   c = (i & 1) == 0 ? ... ; if c then t else e
     t:      a_t = i * 2        e: a_e = i + 5
     merge:  a = phi(a_t, a_e); store out[i] = a; i' = i + 1 -> header
     exit:   ret *)
let diamond_loop () =
  let fn =
    Func.create ~name:"diamond"
      ~params:[ ("out", Types.Ptr Types.I64, true); ("n", Types.I64, false) ]
      ~ret_ty:Types.Void
  in
  let out = Value.Var (List.nth (Func.param_vars fn) 0) in
  let n = Value.Var (List.nth (Func.param_vars fn) 1) in
  let b = Builder.create fn in
  let header = Builder.append_block ~hint:"header" b in
  let body = Builder.append_block ~hint:"body" b in
  let then_b = Builder.append_block ~hint:"then" b in
  let else_b = Builder.append_block ~hint:"else" b in
  let merge = Builder.append_block ~hint:"merge" b in
  let exit_b = Builder.append_block ~hint:"exit" b in
  Builder.br b header;
  Builder.set_position b header;
  let entry_label = fn.Func.entry in
  let i = Builder.phi ~hint:"i" b Types.I64 [ (entry_label, Value.i64 0L) ] in
  let cond = Builder.cmp b Instr.Slt Types.I64 i n in
  Builder.cond_br b cond body exit_b;
  Builder.set_position b body;
  let bit = Builder.binop b Instr.And Types.I64 i (Value.i64 1L) in
  let c = Builder.cmp b Instr.Eq Types.I64 bit (Value.i64 0L) in
  Builder.cond_br b c then_b else_b;
  Builder.set_position b then_b;
  let a_t = Builder.binop b Instr.Mul Types.I64 i (Value.i64 2L) in
  Builder.br b merge;
  Builder.set_position b else_b;
  let a_e = Builder.binop b Instr.Add Types.I64 i (Value.i64 5L) in
  Builder.br b merge;
  Builder.set_position b merge;
  let a =
    Builder.phi ~hint:"a" b Types.I64
      [ (then_b.Block.label, a_t); (else_b.Block.label, a_e) ]
  in
  let slot = Builder.gep b Types.I64 ~base:out ~index:i in
  Builder.store b Types.I64 ~addr:slot ~value:a;
  let i' = Builder.binop ~hint:"inc" b Instr.Add Types.I64 i (Value.i64 1L) in
  Builder.br b header;
  Builder.set_position b exit_b;
  Builder.ret b None;
  (* Complete the header phi with the latch entry. *)
  let hb = Func.block fn header.Block.label in
  hb.Block.phis <-
    List.map
      (fun (p : Instr.phi) ->
        { p with incoming = p.incoming @ [ (merge.Block.label, i') ] })
      hb.Block.phis;
  Verifier.check_exn fn;
  (fn, header.Block.label)

(* Straight-line function: r = (x + y) - x; store it. *)
let straight_line () =
  let fn =
    Func.create ~name:"straight"
      ~params:
        [ ("out", Types.Ptr Types.I64, true); ("x", Types.I64, false); ("y", Types.I64, false) ]
      ~ret_ty:Types.Void
  in
  let out = Value.Var (List.nth (Func.param_vars fn) 0) in
  let x = Value.Var (List.nth (Func.param_vars fn) 1) in
  let y = Value.Var (List.nth (Func.param_vars fn) 2) in
  let b = Builder.create fn in
  let sum = Builder.binop b Instr.Add Types.I64 x y in
  let r = Builder.binop b Instr.Sub Types.I64 sum x in
  let slot = Builder.gep b Types.I64 ~base:out ~index:(Value.i64 0L) in
  Builder.store b Types.I64 ~addr:slot ~value:r;
  Builder.ret b None;
  Verifier.check_exn fn;
  fn

(* Run a function on the simulator with one i64 output buffer of [elems]
   cells and the given extra scalar arguments; returns the buffer and the
   launch's metrics. *)
let exec_kernel ?(grid = 1) ?(block = 32) ?(elems = 64) ?engine fn scalars =
  let mem = Uu_gpusim.Memory.create () in
  let out = Uu_gpusim.Memory.zeros_i64 mem elems in
  let args =
    Uu_gpusim.Kernel.Buf out :: List.map (fun v -> Uu_gpusim.Kernel.Int_arg v) scalars
  in
  let result =
    Uu_gpusim.Kernel.exec ~config:(Uu_gpusim.Kernel.config ?engine ()) mem fn ~grid_dim:grid
      ~block_dim:block ~args
  in
  (Uu_gpusim.Memory.read_i64 out, result.Uu_gpusim.Kernel.metrics)

(* [exec_kernel]'s buffer alone. *)
let run_kernel ?grid ?block ?elems fn scalars = fst (exec_kernel ?grid ?block ?elems fn scalars)

(* Compile MiniCUDA source to a single function. *)
let compile_one src =
  let m = Uu_frontend.Lower.compile ~name:"test" src in
  match m.Func.funcs with
  | [ f ] -> f
  | fs -> failwith (Printf.sprintf "expected 1 kernel, got %d" (List.length fs))

(* The first label, among every label the function ever allocated, whose
   kept predecessor list differs from one rebuilt from the blocks'
   terminators, with both lists. A removed label still counts: blocks
   that branch to it are its predecessors. *)
let preds_drift fn =
  let rebuilt = Hashtbl.create 16 in
  let rebuilt_of l = List.sort compare (Hashtbl.find_all rebuilt l) in
  Func.iter_blocks
    (fun b -> List.iter (fun s -> Hashtbl.add rebuilt s b.Block.label) (Block.successors b))
    fn;
  List.find_map
    (fun l ->
      let kept = Cfg.preds_of fn l in
      if kept = rebuilt_of l then None else Some (l, kept, rebuilt_of l))
    (List.init fn.Func.next_label Fun.id)
