open Uu_ir

type loop = {
  id : int;
  header : Value.label;
  blocks : Value.Label_set.t;
  latches : Value.label list;
  exits : (Value.label * Value.label) list;
  mutable parent : int option;
  mutable children : int list;
  mutable depth : int;
}

type forest = { all : loop list }

let analyze f =
  let dom = Dominance.compute f in
  let rpo = Cfg.reverse_postorder f in
  let preds = Cfg.predecessors f in
  (* Back edges grouped by header, headers in RPO order for stable ids. *)
  let back_edges = Hashtbl.create 7 in
  List.iter
    (fun l ->
      let b = Func.block f l in
      List.iter
        (fun s ->
          if Dominance.dominates dom s l then begin
            let cur =
              match Hashtbl.find_opt back_edges s with Some x -> x | None -> []
            in
            Hashtbl.replace back_edges s (l :: cur)
          end)
        (Block.successors b))
    rpo;
  let headers = List.filter (Hashtbl.mem back_edges) rpo in
  let mk_loop id header =
    let latches = List.sort compare (Hashtbl.find back_edges header) in
    (* Loop body: header plus everything that reaches a latch backwards
       without passing through the header. *)
    let body = ref (Value.Label_set.singleton header) in
    let rec walk l =
      if not (Value.Label_set.mem l !body) then begin
        body := Value.Label_set.add l !body;
        let ps = try Hashtbl.find preds l with Not_found -> [] in
        List.iter walk ps
      end
    in
    List.iter walk latches;
    let blocks = !body in
    let exits =
      Value.Label_set.fold
        (fun l acc ->
          List.fold_left
            (fun acc s ->
              if Value.Label_set.mem s blocks then acc else (l, s) :: acc)
            acc
            (Block.successors (Func.block f l)))
        blocks []
      |> List.sort_uniq compare
    in
    { id; header; blocks; latches; exits; parent = None; children = []; depth = 1 }
  in
  let all = List.mapi mk_loop headers in
  (* Nesting: the parent of L is the smallest loop strictly containing it. *)
  let contains outer inner =
    outer.id <> inner.id && Value.Label_set.subset inner.blocks outer.blocks
  in
  List.iter
    (fun l ->
      let enclosing = List.filter (fun o -> contains o l) all in
      let parent =
        List.fold_left
          (fun best o ->
            match best with
            | None -> Some o
            | Some b ->
              if Value.Label_set.cardinal o.blocks < Value.Label_set.cardinal b.blocks
              then Some o
              else best)
          None enclosing
      in
      match parent with
      | Some p ->
        l.parent <- Some p.id;
        p.children <- List.sort compare (l.id :: p.children)
      | None -> ())
    all;
  let rec set_depth d l =
    l.depth <- d;
    List.iter
      (fun cid -> set_depth (d + 1) (List.nth all cid))
      l.children
  in
  List.iter (fun l -> if l.parent = None then set_depth 1 l) all;
  { all }

let loops forest = forest.all
let find forest id = List.find_opt (fun l -> l.id = id) forest.all
let top_level forest = List.filter (fun l -> l.parent = None) forest.all

let innermost_first forest =
  let rec post l =
    List.concat_map (fun cid -> post (List.nth forest.all cid)) l.children @ [ l ]
  in
  List.concat_map post (top_level forest)

let preheader f loop =
  let preds = Cfg.preds_of f loop.header in
  let outside = List.filter (fun p -> not (Value.Label_set.mem p loop.blocks)) preds in
  match outside with
  | [ p ] -> (
    match (Func.block f p).Block.term with
    | Instr.Br _ -> Some p
    | Instr.Cond_br _ | Instr.Ret _ | Instr.Unreachable -> None)
  | [] | _ :: _ :: _ -> None

let contains_convergent f loop =
  Value.Label_set.exists (fun l -> Block.has_convergent (Func.block f l)) loop.blocks
