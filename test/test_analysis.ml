(* Tests for the analysis layer: dominators (against a naive
   reachability-based oracle on random CFGs), post-dominators, loop
   detection, trip counts, divergence, and the paper's cost model. *)

open Uu_ir
open Uu_analysis

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* Build a function from an adjacency description: [terms.(i)] lists the
   successors of block i (0, 1, or 2 of them); block 0 is the entry. *)
let func_of_graph terms =
  let fn = Func.create ~name:"g" ~params:[ ("c", Types.I1, false) ] ~ret_ty:Types.Void in
  let c = Value.Var (List.hd (Func.param_vars fn)) in
  let labels =
    Array.init (Array.length terms) (fun i ->
        if i = 0 then fn.Func.entry else (Func.fresh_block fn).Block.label)
  in
  Array.iteri
    (fun i succs ->
      Func.set_term fn (Func.block fn labels.(i))
        (match succs with
        | [] -> Instr.Ret None
        | [ j ] -> Instr.Br labels.(j)
        | [ j; k ] -> Instr.Cond_br { cond = c; if_true = labels.(j); if_false = labels.(k) }
        | _ -> invalid_arg "func_of_graph"))
    terms;
  (fn, labels)

(* Naive dominance: a dominates b iff b is unreachable from the entry when
   traversal may not pass through a. *)
let naive_dominates fn a b =
  if a = b then true
  else begin
    let visited = Hashtbl.create 17 in
    let rec dfs l =
      if (not (Hashtbl.mem visited l)) && l <> a then begin
        Hashtbl.replace visited l ();
        match Func.find_block fn l with
        | Some blk -> List.iter dfs (Block.successors blk)
        | None -> ()
      end
    in
    dfs fn.Func.entry;
    not (Hashtbl.mem visited b)
  end

let test_dominance_diamond () =
  (* 0 -> 1,2 -> 3 -> ret *)
  let fn, l = func_of_graph [| [ 1; 2 ]; [ 3 ]; [ 3 ]; [] |] in
  let dom = Dominance.compute fn in
  check bool "entry dominates all" true (Dominance.dominates dom l.(0) l.(3));
  check bool "1 does not dominate 3" false (Dominance.dominates dom l.(1) l.(3));
  check (Alcotest.option int) "idom of 3 is 0" (Some l.(0)) (Dominance.idom dom l.(3));
  check (Alcotest.list int) "children of 0" [ l.(1); l.(2); l.(3) ]
    (List.sort compare (Dominance.children dom l.(0)))

let test_dominance_frontier () =
  let fn, l = func_of_graph [| [ 1; 2 ]; [ 3 ]; [ 3 ]; [] |] in
  let dom = Dominance.compute fn in
  let df = Dominance.frontier dom fn in
  let df_of x =
    match Hashtbl.find_opt df x with
    | Some s -> Value.Label_set.elements s
    | None -> []
  in
  check (Alcotest.list int) "DF(1) = {3}" [ l.(3) ] (df_of l.(1));
  check (Alcotest.list int) "DF(2) = {3}" [ l.(3) ] (df_of l.(2));
  check (Alcotest.list int) "DF(0) empty" [] (df_of l.(0))

let test_postdominance () =
  (* 0 -> 1,2; 1 -> 3; 2 -> 3; 3 -> ret. 3 post-dominates everything. *)
  let fn, l = func_of_graph [| [ 1; 2 ]; [ 3 ]; [ 3 ]; [] |] in
  let pdom = Dominance.compute_post fn in
  check bool "3 postdominates 0" true (Dominance.dominates pdom l.(3) l.(0));
  check bool "1 does not postdominate 0" false (Dominance.dominates pdom l.(1) l.(0));
  check (Alcotest.option int) "ipdom of 0 is 3" (Some l.(3)) (Dominance.idom pdom l.(0));
  (* Block whose ipdom is the virtual exit. *)
  let fn2, l2 = func_of_graph [| [ 1; 2 ]; []; [] |] in
  let pdom2 = Dominance.compute_post fn2 in
  check (Alcotest.option int) "two returns: no ipdom" None (Dominance.idom pdom2 l2.(0))

let random_graph_gen =
  QCheck2.Gen.(
    sized_size (int_range 2 12) (fun n ->
        let node = int_bound (n - 1) in
        map
          (fun succs -> Array.of_list succs)
          (list_repeat n
             (oneof [ return []; map (fun j -> [ j ]) node; map2 (fun j k -> [ j; k ]) node node ]))))

let dominance_props =
  [
    QCheck2.Test.make ~name:"dominance matches naive oracle on random CFGs" ~count:150
      random_graph_gen (fun terms ->
        let fn, labels = func_of_graph terms in
        let dom = Dominance.compute fn in
        let reachable = Cfg.reachable fn in
        Array.for_all
          (fun a ->
            Array.for_all
              (fun b ->
                if Value.Label_set.mem a reachable && Value.Label_set.mem b reachable
                then Dominance.dominates dom a b = naive_dominates fn a b
                else true)
              labels)
          labels);
    QCheck2.Test.make ~name:"idom strictly dominates its node" ~count:150 random_graph_gen
      (fun terms ->
        let fn, labels = func_of_graph terms in
        let dom = Dominance.compute fn in
        Array.for_all
          (fun b ->
            match Dominance.idom dom b with
            | Some a -> Dominance.strictly_dominates dom a b
            | None -> true)
          labels);
    QCheck2.Test.make ~name:"RPO visits defs before uses on acyclic graphs" ~count:100
      random_graph_gen (fun terms ->
        let fn, _ = func_of_graph terms in
        let order = Cfg.reverse_postorder fn in
        (* Sanity: RPO starts at entry and contains no duplicates. *)
        (match order with
        | first :: _ -> first = fn.Func.entry
        | [] -> false)
        && List.length order = List.length (List.sort_uniq compare order));
  ]

let test_loop_detection () =
  let fn, header = Ir_helpers.diamond_loop () in
  let forest = Loops.analyze fn in
  let loops = Loops.loops forest in
  check int "one loop" 1 (List.length loops);
  let l = List.hd loops in
  check int "header" header l.Loops.header;
  check int "depth" 1 l.Loops.depth;
  check int "five blocks" 5 (Value.Label_set.cardinal l.Loops.blocks);
  check int "one latch" 1 (List.length l.Loops.latches);
  check int "one exit" 1 (List.length l.Loops.exits);
  check bool "preheader is entry" true (Loops.preheader fn l = Some fn.Func.entry);
  check bool "not convergent" false (Loops.contains_convergent fn l)

let test_nested_loops () =
  let src =
    {|
kernel k(int* restrict out, int n) {
  int tid = threadIdx.x;
  int acc = 0;
  int i = 0;
  while (i < n) {
    int j = 0;
    while (j < n) {
      acc = acc + j;
      j = j + 1;
    }
    i = i + 1;
  }
  out[tid] = acc;
}
|}
  in
  let fn = Ir_helpers.compile_one src in
  ignore (Uu_opt.Pass.exec Uu_core.Pipelines.early_passes fn);
  let forest = Loops.analyze fn in
  check int "two loops" 2 (List.length (Loops.loops forest));
  let inner_first = Loops.innermost_first forest in
  check int "innermost first has depth 2" 2 (List.hd inner_first).Loops.depth;
  let outer = List.nth inner_first 1 in
  check int "outer depth 1" 1 outer.Loops.depth;
  check int "outer has one child" 1 (List.length outer.Loops.children);
  check int "top level count" 1 (List.length (Loops.top_level forest))

let test_trip_count () =
  let src =
    {|
kernel k(int* restrict out) {
  int acc = 0;
  int i = 0;
  while (i < 7) {
    acc = acc + i;
    i = i + 1;
  }
  out[0] = acc;
}
|}
  in
  let fn = Ir_helpers.compile_one src in
  ignore (Uu_opt.Pass.exec Uu_core.Pipelines.early_passes fn);
  let forest = Loops.analyze fn in
  let l = List.hd (Loops.loops forest) in
  check (Alcotest.option int) "trip count 7" (Some 7) (Trip_count.constant_trip_count fn l)

let test_trip_count_runtime () =
  let src =
    {|
kernel k(int* restrict out, int n) {
  int acc = 0;
  int i = 0;
  while (i < n) {
    acc = acc + i;
    i = i + 1;
  }
  out[0] = acc;
}
|}
  in
  let fn = Ir_helpers.compile_one src in
  ignore (Uu_opt.Pass.exec Uu_core.Pipelines.early_passes fn);
  let forest = Loops.analyze fn in
  let l = List.hd (Loops.loops forest) in
  check (Alcotest.option int) "runtime bound -> unknown" None
    (Trip_count.constant_trip_count fn l)

let test_cost_model_formula () =
  check int "f(1,s,u) = u*s" 40 (Cost_model.duplicated_size ~p:1 ~s:10 ~u:4);
  check int "f(2,10,3) = 10+20+40" 70 (Cost_model.duplicated_size ~p:2 ~s:10 ~u:3);
  check int "f(4,5,2) = 5+20" 25 (Cost_model.duplicated_size ~p:4 ~s:5 ~u:2);
  check bool "saturates" true
    (Cost_model.duplicated_size ~p:100_000 ~s:100_000 ~u:8 >= max_int / 2)

let test_choose_unroll_factor () =
  (* Paper defaults: c = 1024, u_max = 8. *)
  check (Alcotest.option int) "p=1 small: picks u_max" (Some 8)
    (Cost_model.choose_unroll_factor ~p:1 ~s:10 ~c:1024 ~u_max:8);
  check (Alcotest.option int) "p=2 s=20 picks 5" (Some 5)
    (Cost_model.choose_unroll_factor ~p:2 ~s:20 ~c:1024 ~u_max:8);
  check (Alcotest.option int) "too big: none" None
    (Cost_model.choose_unroll_factor ~p:8 ~s:200 ~c:1024 ~u_max:8)

let test_path_count () =
  let fn, header = Ir_helpers.diamond_loop () in
  let forest = Loops.analyze fn in
  let l = List.hd (Loops.loops forest) in
  ignore header;
  check int "diamond has 2 paths" 2 (Cost_model.path_count fn l);
  check bool "loop size positive" true (Cost_model.loop_size fn l > 0)

let test_divergence () =
  let src =
    {|
kernel k(int* restrict out, const int* restrict data, int n) {
  int tid = threadIdx.x;
  int uniform = n * 2;
  int tainted = tid * 2;
  int viaload = data[tid];
  out[tid] = uniform + tainted + viaload;
}
|}
  in
  let fn = Ir_helpers.compile_one src in
  ignore (Uu_opt.Pass.exec Uu_core.Pipelines.early_passes fn);
  let div = Divergence.analyze fn in
  (* Find vars by hint. *)
  let var_named name =
    let found = ref None in
    for v = 0 to fn.Func.next_var - 1 do
      if Func.var_hint fn v = Some name && !found = None then found := Some v
    done;
    match !found with Some v -> v | None -> Alcotest.fail ("no var " ^ name)
  in
  (* After mem2reg the slot names move to phis/values; check on uses. *)
  ignore var_named;
  let tid_like = Divergence.value_divergent div in
  (* The store's value should be divergent (depends on tid). *)
  let any_store_divergent = ref false in
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match i with
          | Instr.Store { value; _ } -> if tid_like value then any_store_divergent := true
          | _ -> ())
        b.Block.instrs)
    fn;
  check bool "stored value divergent" true !any_store_divergent

let test_divergent_loop_detection () =
  let complex = Uu_benchmarks.Complex_app.app in
  let m = Uu_frontend.Lower.compile ~name:"c" complex.Uu_benchmarks.App.source in
  let fn = List.hd m.Func.funcs in
  ignore (Uu_opt.Pass.exec Uu_core.Pipelines.early_passes fn);
  let forest = Loops.analyze fn in
  let div = Divergence.analyze fn in
  let l = List.hd (Loops.loops forest) in
  check bool "complex loop branch is divergent" true
    (Divergence.loop_has_divergent_branch div fn l);
  (* bezier's loop conditions do not depend on the thread id. *)
  let bez = Uu_benchmarks.Bezier_surface.app in
  let m2 = Uu_frontend.Lower.compile ~name:"b" bez.Uu_benchmarks.App.source in
  let fn2 = List.hd m2.Func.funcs in
  ignore (Uu_opt.Pass.exec Uu_core.Pipelines.early_passes fn2);
  let forest2 = Loops.analyze fn2 in
  let div2 = Divergence.analyze fn2 in
  let l2 = List.hd (Loops.loops forest2) in
  check bool "bezier loop branch is uniform" false
    (Divergence.loop_has_divergent_branch div2 fn2 l2)

let test_convergent_loop () =
  let src =
    {|
kernel k(int* restrict out, int n) {
  int tid = threadIdx.x;
  int i = 0;
  while (i < n) {
    __syncthreads();
    i = i + 1;
  }
  out[tid] = i;
}
|}
  in
  let fn = Ir_helpers.compile_one src in
  ignore (Uu_opt.Pass.exec Uu_core.Pipelines.early_passes fn);
  let forest = Loops.analyze fn in
  let l = List.hd (Loops.loops forest) in
  check bool "syncthreads loop is convergent" true (Loops.contains_convergent fn l)

(* The SSA check agrees with the verifier on phi entries from unreachable
   predecessors: such an entry is never taken, so its value need not be
   dominated. The same undominated value arriving from a reachable
   predecessor is still an error. *)
let test_ssa_unreachable_phi_entry () =
  let func ~from =
    Parser_ir.parse_func
      (Printf.sprintf
         {|
func @k(%%out: i64* restrict, %%n: i64) -> void {
bb0:
  %%c.2 = cmp slt i64 %%n.1, 0:i64
  condbr %%c.2, bb1, bb2
bb1:
  %%a.3 = add i64 %%n.1, 1:i64
  br bb3
bb2:
  br bb3
bb3:
  %%x.4 = phi i64 [bb1: %%a.3], [bb2: %s], [bb4: %s]
  store i64 %%x.4, %%out.0
  ret
bb4:
  br bb3
}
|}
         (if from = `Reachable then "%a.3" else "0:i64")
         (if from = `Unreachable then "%a.3" else "0:i64"))
  in
  check bool "undominated entry from an unreachable predecessor" true
    (Ssa_check.check (func ~from:`Unreachable) = Ok ());
  match Ssa_check.check (func ~from:`Reachable) with
  | Error [ e ] ->
    check bool "names the undominated use" true
      (Astring.String.is_infix ~affix:"use of %3 not dominated" e)
  | Error es -> Alcotest.failf "expected one error, got %d" (List.length es)
  | Ok () -> Alcotest.fail "undominated entry from a reachable predecessor accepted"

(* bezier-surface after the heuristic u&u, cleaned by simplify-cfg and
   cond-prop without a verify in between, keeps phi entries from
   predecessors cond-prop made unreachable: the verifier accepts the IR,
   and so must the SSA check. *)
let test_ssa_after_cond_prop () =
  let app = Option.get (Uu_benchmarks.Registry.find "bezier-surface") in
  let m = Uu_frontend.Lower.compile ~name:app.Uu_benchmarks.App.name app.Uu_benchmarks.App.source in
  List.iter
    (fun fn ->
      let exec passes = ignore (Uu_opt.Pass.exec ~options:Uu_opt.Pass.unverified passes fn) in
      exec Uu_core.Pipelines.early_passes;
      exec (Uu_core.Pipelines.transform ~targets:Uu_core.Pipelines.All_loops Uu_core.Pipelines.Uu_heuristic);
      exec [ Uu_opt.Simplify_cfg.pass; Uu_opt.Cond_prop.pass ];
      check bool (fn.Func.name ^ ": verifier") true (Verifier.check fn = Ok ());
      match Ssa_check.check fn with
      | Ok () -> ()
      | Error (e :: _ as es) ->
        Alcotest.failf "%s: %d SSA errors, first: %s" fn.Func.name (List.length es) e
      | Error [] -> Alcotest.fail "empty error list")
    m.Func.funcs

let suite =
  [
    ("dominance: diamond", `Quick, test_dominance_diamond);
    ("dominance: frontier", `Quick, test_dominance_frontier);
    ("post-dominance", `Quick, test_postdominance);
    ("loop detection", `Quick, test_loop_detection);
    ("nested loops", `Quick, test_nested_loops);
    ("constant trip count", `Quick, test_trip_count);
    ("runtime trip count", `Quick, test_trip_count_runtime);
    ("cost model f(p,s,u)", `Quick, test_cost_model_formula);
    ("heuristic factor choice", `Quick, test_choose_unroll_factor);
    ("path count", `Quick, test_path_count);
    ("divergence taint", `Quick, test_divergence);
    ("divergent loop detection", `Quick, test_divergent_loop_detection);
    ("convergent loop exclusion", `Quick, test_convergent_loop);
    ("ssa check skips unreachable phi entries", `Quick, test_ssa_unreachable_phi_entry);
    ("ssa check after unverified cond-prop", `Quick, test_ssa_after_cond_prop);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) dominance_props
