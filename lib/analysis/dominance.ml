open Uu_ir

(* The tree is computed once over an explicit graph (forward or reverse
   CFG) with the Cooper–Harvey–Kennedy iterative algorithm, then answers
   dominance queries in O(1) via Euler in/out numbering. The virtual exit
   used for post-dominators is the internal node [-1] and is never exposed. *)

type t = {
  idom_tbl : (Value.label, Value.label option) Hashtbl.t;
      (* None = root or virtual-exit parent *)
  children_tbl : (Value.label, Value.label list) Hashtbl.t;
  tin : (Value.label, int) Hashtbl.t;
  tout : (Value.label, int) Hashtbl.t;
  fpreds : (Value.label, Value.label list) Hashtbl.t;
      (* forward CFG preds, for frontiers; empty for post-dom trees *)
}

let virtual_exit = -1

(* [order]: nodes in reverse postorder, order.(0) = root.
   [preds]: graph predecessors of each node. *)
let compute_generic ~order ~preds ~fpreds =
  let n = Array.length order in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i l -> Hashtbl.replace index l i) order;
  let undefined = -2 in
  let idom = Array.make n undefined in
  if n > 0 then idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if a > b then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let ps =
        List.filter_map
          (fun p ->
            match Hashtbl.find_opt index p with
            | Some j when idom.(j) <> undefined -> Some j
            | Some _ | None -> None)
          (preds order.(i))
      in
      match ps with
      | [] -> ()
      | first :: rest ->
        let new_idom = List.fold_left intersect first rest in
        if idom.(i) <> new_idom then begin
          idom.(i) <- new_idom;
          changed := true
        end
    done
  done;
  let idom_tbl = Hashtbl.create (2 * n) in
  let children_tbl = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i l ->
      if i = 0 then Hashtbl.replace idom_tbl l None
      else if idom.(i) = -2 then () (* disconnected; not in tree *)
      else begin
        let parent = order.(idom.(i)) in
        Hashtbl.replace idom_tbl l (Some parent);
        let cur =
          match Hashtbl.find_opt children_tbl parent with Some c -> c | None -> []
        in
        Hashtbl.replace children_tbl parent (l :: cur)
      end)
    order;
  Hashtbl.iter
    (fun k v -> Hashtbl.replace children_tbl k (List.sort compare v))
    (Hashtbl.copy children_tbl);
  (* Euler numbering for O(1) dominance queries. *)
  let tin = Hashtbl.create (2 * n) and tout = Hashtbl.create (2 * n) in
  let clock = ref 0 in
  let rec dfs l =
    incr clock;
    Hashtbl.replace tin l !clock;
    let kids =
      match Hashtbl.find_opt children_tbl l with Some c -> c | None -> []
    in
    List.iter dfs kids;
    incr clock;
    Hashtbl.replace tout l !clock
  in
  if n > 0 then dfs order.(0);
  { idom_tbl; children_tbl; tin; tout; fpreds }

type Func.analysis += Dominators of t

let compute f =
  Func.cached f
    (function Dominators t -> Some t | _ -> None)
    (fun t -> Dominators t)
    (fun f ->
      let order = Array.of_list (Cfg.reverse_postorder f) in
      let preds_tbl = Cfg.predecessors f in
      let preds l = try Hashtbl.find preds_tbl l with Not_found -> [] in
      compute_generic ~order ~preds ~fpreds:preds_tbl)

let compute_post f =
  let reachable = Cfg.reverse_postorder f in
  let succs l = Block.successors (Func.block f l) in
  let exits =
    List.filter
      (fun l ->
        match (Func.block f l).Block.term with
        | Instr.Ret _ | Instr.Unreachable -> true
        | Instr.Br _ | Instr.Cond_br _ -> false)
      reachable
  in
  (* Reverse graph: preds of a node are its CFG successors (the virtual
     exit for Ret/Unreachable blocks); the virtual exit's reverse-preds
     are the exit blocks. Reverse-graph successors of a block are its CFG
     predecessors. *)
  let exit_set = Hashtbl.create 7 in
  List.iter (fun l -> Hashtbl.replace exit_set l ()) exits;
  let rev_preds l =
    if l = virtual_exit then exits
    else if Hashtbl.mem exit_set l then [ virtual_exit ]
    else succs l
  in
  let cfg_preds = Cfg.predecessors f in
  (* Reverse postorder of the reverse graph, rooted at the virtual exit. *)
  let visited = Hashtbl.create 64 in
  let post = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.replace visited l ();
      let nexts =
        if l = virtual_exit then exits
        else try Hashtbl.find cfg_preds l with Not_found -> []
      in
      List.iter dfs nexts;
      post := l :: !post
    end
  in
  dfs virtual_exit;
  let order = Array.of_list !post in
  let t = compute_generic ~order ~preds:rev_preds ~fpreds:(Hashtbl.create 1) in
  (* Hide the virtual exit: it is the root; mask it from idom answers. *)
  let idom_tbl = Hashtbl.copy t.idom_tbl in
  Hashtbl.iter
    (fun l p ->
      match p with
      | Some p when p = virtual_exit -> Hashtbl.replace idom_tbl l None
      | Some _ | None -> ())
    t.idom_tbl;
  Hashtbl.remove idom_tbl virtual_exit;
  { t with idom_tbl }

let idom t l = match Hashtbl.find_opt t.idom_tbl l with Some p -> p | None -> None
let mem t l = Hashtbl.mem t.tin l && l <> virtual_exit

let dominates t a b =
  match Hashtbl.find_opt t.tin a, Hashtbl.find_opt t.tin b with
  | Some ia, Some ib ->
    let oa = Hashtbl.find t.tout a and ob = Hashtbl.find t.tout b in
    ia <= ib && ob <= oa
  | (Some _ | None), _ -> false

let strictly_dominates t a b = a <> b && dominates t a b

let children t l =
  match Hashtbl.find_opt t.children_tbl l with
  | Some c -> List.filter (fun x -> x <> virtual_exit) c
  | None -> []

let frontier t =
  let df = Hashtbl.create 64 in
  let add l b =
    let cur =
      match Hashtbl.find_opt df l with Some s -> s | None -> Value.Label_set.empty
    in
    Hashtbl.replace df l (Value.Label_set.add b cur)
  in
  Hashtbl.iter
    (fun b preds ->
      match preds with
      | [] | [ _ ] -> ()
      | _ :: _ :: _ ->
        let stop = idom t b in
        List.iter
          (fun p ->
            if mem t p then begin
              let runner = ref (Some p) in
              let continue = ref true in
              while !continue do
                match !runner with
                | Some r when Some r <> stop ->
                  add r b;
                  runner := idom t r
                | Some _ | None -> continue := false
              done
            end)
          preds)
    t.fpreds;
  df
