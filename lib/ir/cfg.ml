type Func.analysis +=
  | Reverse_postorder of Value.label list
  | Reachable of Value.Label_set.t

let preds_of = Func.preds_of
let pred_set = Func.pred_set

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

let rec rounds f visit = function
  | [] -> ()
  | labels ->
    let touched = Hashtbl.create 16 in
    let next = ref [] in
    List.iter
      (fun l ->
        match Func.find_block f l with
        | Some b -> next := visit touched b @ !next
        | None -> ())
      labels;
    rounds f visit (List.sort_uniq Int.compare !next)

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
