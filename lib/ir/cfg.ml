type Func.analysis +=
  | Predecessors of (Value.label, Value.label list) Hashtbl.t
  | Reverse_postorder of Value.label list
  | Reachable of Value.Label_set.t

let build_predecessors f =
  let preds = Hashtbl.create 17 in
  Func.iter_blocks (fun b -> Hashtbl.replace preds b.Block.label []) f;
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun s ->
          let cur = try Hashtbl.find preds s with Not_found -> [] in
          Hashtbl.replace preds s (b.Block.label :: cur))
        (Block.successors b))
    f;
  Hashtbl.iter (fun l ps -> Hashtbl.replace preds l (List.sort compare ps)) preds;
  preds

let predecessors f =
  Func.cached f
    (function Predecessors p -> Some p | _ -> None)
    (fun p -> Predecessors p)
    build_predecessors

let preds_of f l = try Hashtbl.find (predecessors f) l with Not_found -> []

let set_term ?preds f b term =
  let before = Block.successors b in
  b.Block.term <- term;
  let after = Block.successors b in
  if before <> after then begin
    Func.cfg_changed f;
    match preds with
    | None -> ()
    | Some preds ->
      let l = b.Block.label in
      let update s g =
        Hashtbl.replace preds s (g (try Hashtbl.find preds s with Not_found -> []))
      in
      let rec insert = function
        | [] -> [ l ]
        | p :: rest as ps -> if l < p then l :: ps else p :: insert rest
      in
      List.iter
        (fun s -> if not (List.mem s after) then update s (List.filter (fun p -> p <> l)))
        before;
      List.iter (fun s -> if not (List.mem s before) then update s insert) after
  end

let postorder f =
  let visited = Hashtbl.create 17 in
  let order = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.replace visited l ();
      (match Func.find_block f l with
      | None -> ()
      | Some b -> List.iter dfs (Block.successors b));
      order := l :: !order
    end
  in
  dfs f.Func.entry;
  List.rev !order

let reverse_postorder f =
  Func.cached f
    (function Reverse_postorder o -> Some o | _ -> None)
    (fun o -> Reverse_postorder o)
    (fun f -> List.rev (postorder f))

let reachable f =
  Func.cached f
    (function Reachable r -> Some r | _ -> None)
    (fun r -> Reachable r)
    (fun f ->
      List.fold_left
        (fun acc l -> Value.Label_set.add l acc)
        Value.Label_set.empty
        (List.rev (reverse_postorder f)))

let remove_unreachable f =
  let live = reachable f in
  let dead =
    List.filter (fun l -> not (Value.Label_set.mem l live)) (Func.labels f)
  in
  List.iter (Func.remove_block f) dead;
  (* Phi entries may still name removed predecessors. *)
  Func.iter_blocks
    (fun b ->
      let prune (p : Instr.phi) =
        { p with
          incoming = List.filter (fun (l, _) -> Value.Label_set.mem l live) p.incoming
        }
      in
      b.Block.phis <- List.map prune b.Block.phis)
    f;
  dead <> []
