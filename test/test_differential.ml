(* Differential testing: random MiniCUDA programs are compiled under every
   pipeline configuration and executed on the simulator; all configurations
   must produce exactly the outputs of the unoptimized program. This is
   the strongest whole-compiler property we have — it exercises lowering,
   every midend pass, unroll, unmerge, u&u, the heuristic, and the SIMT
   executor together. Integer-only programs keep equality exact.

   Every program and configuration also runs on both simulator engines,
   which must agree on memory and on every metric, at block 32 (one full
   warp) and block 48 (a second warp of 16 lanes, so the decoded engine's
   full-mask loops run over a warp narrower than [warp_size]). On each
   engine, three noise seeds timed in one pass ([Kernel.exec_runs]) must
   equal the three one-seed runs in metrics and memory.

   The generator builds structured programs: straight-line integer
   arithmetic over a pool of locals, data- and tid-dependent ifs, counted
   while loops (possibly nested, with optional break/continue), and reads
   from an input array. *)

open Uu_frontend.Ast

let check = Alcotest.check
let bool = Alcotest.bool

let pos = { line = 0; col = 0 }
let e desc = { desc; pos }
let s sdesc = { sdesc; spos = pos }
let ilit n = e (Int_lit (Int64.of_int n))
let var name = e (Var name)

type genv = {
  rng : Uu_support.Rng.t;
  mutable locals : string list;
  mutable fresh : int;
  depth : int;
}

let pick g xs = List.nth xs (Uu_support.Rng.int g.rng (List.length xs))

(* Integer expression over the locals, parameters, and tid. Division and
   remainder are guarded (|1) to avoid relying on div-by-zero semantics. *)
let rec gen_expr g budget =
  if budget <= 0 then gen_leaf g
  else
    match Uu_support.Rng.int g.rng 10 with
    | 0 | 1 | 2 ->
      let op = pick g [ Add; Sub; Mul ] in
      e (Binary (op, gen_expr g (budget - 1), gen_expr g (budget - 1)))
    | 3 ->
      let op = pick g [ Band; Bor; Bxor ] in
      e (Binary (op, gen_expr g (budget - 1), gen_expr g (budget - 1)))
    | 4 ->
      (* Bounded shift. *)
      e (Binary (pick g [ Shl; Shr ], gen_expr g (budget - 1), ilit (Uu_support.Rng.int g.rng 4)))
    | 5 ->
      (* Guarded division. *)
      let divisor = e (Binary (Bor, gen_leaf g, ilit 1)) in
      e (Binary (pick g [ Div; Rem ], gen_expr g (budget - 1), divisor))
    | 6 ->
      let c = gen_cond g (budget - 1) in
      e (Ternary (c, gen_expr g (budget - 1), gen_expr g (budget - 1)))
    | 7 -> e (Call ("min", [ gen_expr g (budget - 1); gen_expr g (budget - 1) ]))
    | _ -> gen_leaf g

and gen_leaf g =
  match Uu_support.Rng.int g.rng 5 with
  | 0 -> ilit (Uu_support.Rng.int g.rng 20 - 10)
  | 1 -> var "tid"
  | 2 -> var "p0"
  | 3 | _ -> (
    match g.locals with
    | [] -> ilit (Uu_support.Rng.int g.rng 7)
    | ls -> var (pick g ls))

and gen_cond g budget =
  let op = pick g [ Lt; Le; Gt; Ge; Eq; Ne ] in
  e (Binary (op, gen_expr g budget, gen_expr g budget))

let rec gen_stmts g n =
  List.concat (List.init n (fun _ -> gen_stmt g))

and gen_stmt g =
  match Uu_support.Rng.int g.rng (if g.depth >= 2 then 7 else 10) with
  | 0 | 1 ->
    (* Fresh local. *)
    let name = Printf.sprintf "v%d" g.fresh in
    g.fresh <- g.fresh + 1;
    let st = s (Decl (Tint, name, gen_expr g 2)) in
    g.locals <- name :: g.locals;
    [ st ]
  | 2 | 3 | 4 -> (
    match g.locals with
    | [] -> gen_stmt g
    | ls -> [ s (Assign (pick g ls, gen_expr g 3)) ])
  | 5 | 6 ->
    let then_ = gen_stmts { g with depth = g.depth + 1 } (1 + Uu_support.Rng.int g.rng 2) in
    let else_ =
      if Uu_support.Rng.bool g.rng then
        gen_stmts { g with depth = g.depth + 1 } (1 + Uu_support.Rng.int g.rng 2)
      else []
    in
    [ s (If (gen_cond g 2, then_, else_)) ]
  | _ ->
    (* A counted loop: for (iN = 0; iN < bound; iN++) body. The counter is
       never reassigned by the body (it is excluded from locals). *)
    let name = Printf.sprintf "i%d" g.fresh in
    g.fresh <- g.fresh + 1;
    let bound = 2 + Uu_support.Rng.int g.rng 6 in
    let inner = { g with depth = g.depth + 1 } in
    let saved_locals = g.locals in
    let body = gen_stmts inner (1 + Uu_support.Rng.int g.rng 3) in
    let body =
      if Uu_support.Rng.int g.rng 4 = 0 then
        body
        @ [ s (If (gen_cond g 1, [ s (if Uu_support.Rng.bool g.rng then Break else Continue) ], [])) ]
      else body
    in
    g.locals <- saved_locals;
    [
      s
        (For
           ( None,
             Some (s (Decl (Tint, name, ilit 0))),
             e (Binary (Lt, var name, ilit bound)),
             Some (s (Assign (name, e (Binary (Add, var name, ilit 1))))),
             body ));
    ]

let gen_kernel seed =
  let g =
    { rng = Uu_support.Rng.create (Int64.of_int (0xD1F * seed)); locals = []; fresh = 0; depth = 0 }
  in
  let body = gen_stmts g (3 + Uu_support.Rng.int g.rng 4) in
  (* Hash all locals into the output so nothing is dead. *)
  let result =
    List.fold_left
      (fun acc name -> e (Binary (Bxor, e (Binary (Mul, acc, ilit 31)), var name)))
      (var "tid") g.locals
  in
  {
    k_name = "fuzz";
    k_params =
      [
        { p_ty = Tptr Tint; p_name = "out"; p_const = false; p_restrict = true };
        { p_ty = Tint; p_name = "p0"; p_const = false; p_restrict = false };
      ];
    k_body =
      (s (Decl (Tint, "tid", e (Builtin Thread_idx)))
       :: body)
      @ [ s (Store_stmt (var "out", var "tid", result)) ];
  }

let blocks = [ 32; 48 ]

let noise_seeds = [ 11L; 22L; 33L ]

(* One launch over a fresh output buffer, timed under one noise stream
   per seed: the buffer and each run's metrics. *)
let exec_runs ~block ~engine fn seeds =
  let open Uu_gpusim in
  let mem = Memory.create () in
  let out = Memory.zeros_i64 mem 48 in
  let noises = Array.of_list (List.map (fun s -> Some (Uu_support.Rng.create s)) seeds) in
  let results =
    Kernel.exec_runs ~config:(Kernel.config ~engine ()) ~noises mem fn ~grid_dim:1
      ~block_dim:block ~args:[ Kernel.Buf out; Kernel.Int_arg 5L ]
  in
  ( Memory.read_i64 out,
    Array.to_list
      (Array.map
         (function
           | Ok (r : Kernel.result) -> Uu_support.Json.to_string (Metrics.to_json r.Kernel.metrics)
           | Error msg -> failwith msg)
         results) )

(* Print the offending program for reproduction, then fail. *)
let fail_on kernel what =
  let fn = Uu_frontend.Lower.lower_kernel kernel in
  Printf.printf "--- %s ---\n%s\n" what (Uu_ir.Printer.func_to_string fn);
  check bool what true false

(* The output buffer at each of [blocks], after checking that the
   reference and decoded engines agree on it and on the metrics. *)
let run_config ~what kernel config =
  let fn = Uu_frontend.Lower.lower_kernel kernel in
  (match config with
  | None -> () (* unoptimized reference *)
  | Some c -> ignore (Uu_core.Pipelines.optimize c fn));
  List.map
    (fun block ->
      let run engine = Ir_helpers.exec_kernel ~block ~elems:48 ~engine fn [ 5L ] in
      let out_r, m_r = run Uu_gpusim.Kernel.Reference in
      let out_d, m_d = run Uu_gpusim.Kernel.Decoded in
      let json m = Uu_support.Json.to_string (Uu_gpusim.Metrics.to_json m) in
      if out_r <> out_d || json m_r <> json m_d then
        fail_on kernel (Printf.sprintf "%s, block %d: engines disagree" what block);
      List.iter
        (fun engine ->
          let out, runs = exec_runs ~block ~engine fn noise_seeds in
          let one = List.map (fun seed -> exec_runs ~block ~engine fn [ seed ]) noise_seeds in
          if
            out <> out_d
            || List.exists (fun (o, _) -> o <> out) one
            || runs <> List.concat_map snd one
          then
            fail_on kernel
              (Printf.sprintf "%s, block %d: runs in one pass differ from one-seed runs" what
                 block))
        [ Uu_gpusim.Kernel.Reference; Uu_gpusim.Kernel.Decoded ];
      out_d)
    blocks

let configs_for seed =
  (* Factor-4 u&u is by far the most expensive configuration (its
     duplication cascades can run to the block budget); exercise it on a
     third of the seeds and the cheap configurations on all of them. *)
  Uu_core.Pipelines.(
    [ Baseline; Unroll 2; Unmerge; Uu 2; Uu_heuristic; Uu_heuristic_divergence;
      Uu_selective 2; Unmerge_then_unroll 2; Dbds ]
    @ (if seed mod 3 = 0 then [ Uu 4; Unroll 4 ] else []))

let test_differential_seed seed () =
  let kernel = gen_kernel seed in
  let reference = run_config ~what:(Printf.sprintf "seed %d unoptimized" seed) kernel None in
  List.iter
    (fun config ->
      let what =
        Printf.sprintf "seed %d under %s" seed (Uu_core.Pipelines.config_name config)
      in
      if run_config ~what kernel (Some config) <> reference then
        fail_on kernel (what ^ ": output differs from unoptimized"))
    (configs_for seed)

let suite =
  List.init 15 (fun seed ->
      ( Printf.sprintf "random program %d under all configs" seed,
        `Slow,
        test_differential_seed (seed + 1) ))
