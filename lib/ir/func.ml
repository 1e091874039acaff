type param = {
  pvar : Value.var;
  pty : Types.t;
  pname : string;
  restrict : bool;
}

type pragma = Pragma_unroll of int | Pragma_nounroll

(* A block-scoped shared array (`__shared__ float tile[64]`): one SSA
   pointer register per declaration, visible everywhere in the function,
   backed by a per-block scratchpad bank in the simulator. Declaration
   order is semantic — it assigns the shared slot the engines bind the
   register to. *)
type shared = {
  s_var : Value.var;
  s_elt : Types.t;
  s_size : int;  (** element count *)
  s_name : string;
}

type analysis = ..

(* Each label's predecessors as a set, and the sorted list [preds_of]
   last built from it, kept until the set changes; a label with no entry
   has none. *)
type pred_entry = { mutable set : Value.Label_set.t; mutable sorted : Value.label list option }
type preds = (Value.label, pred_entry) Hashtbl.t

type t = {
  name : string;
  params : param list;
  ret_ty : Types.t;
  mutable shared : shared list;
  mutable entry : Value.label;
  blocks : (Value.label, Block.t) Hashtbl.t;
  preds : preds;
  mutable next_var : int;
  mutable next_label : int;
  var_hints : (Value.var, string) Hashtbl.t;
  pragmas : (Value.label, pragma) Hashtbl.t;
  mutable sorted_labels : Value.label list option;
  mutable cfg_generation : int;
  mutable analyses : analysis list option;
}

let create ~name ~params ~ret_ty =
  let var_hints = Hashtbl.create 17 in
  let params =
    List.mapi
      (fun pvar (pname, pty, restrict) ->
        Hashtbl.replace var_hints pvar pname;
        { pvar; pty; pname; restrict })
      params
  in
  let f =
    {
      name;
      params;
      ret_ty;
      shared = [];
      entry = 0;
      blocks = Hashtbl.create 17;
      preds = Hashtbl.create 17;
      next_var = List.length params;
      next_label = 0;
      var_hints;
      pragmas = Hashtbl.create 3;
      sorted_labels = None;
      cfg_generation = 0;
      analyses = None;
    }
  in
  let entry = Block.create ~hint:"entry" f.next_label in
  f.next_label <- f.next_label + 1;
  Hashtbl.replace f.blocks entry.label entry;
  f.entry <- entry.label;
  f

let copy_block (b : Block.t) =
  {
    Block.label = b.Block.label;
    phis = b.Block.phis;
    instrs = b.Block.instrs;
    term = b.Block.term;
    hint = b.Block.hint;
  }

(* Everything below that adds or removes a block, moves the entry or
   rewrites a terminator's successors calls [cfg_changed]: it bumps the
   generation and drops the cached analyses, which described the old
   CFG. Writes to the block table, to the predecessor sets and to
   [Block.term] all live in this file. *)
let cfg_changed f =
  f.cfg_generation <- f.cfg_generation + 1;
  match f.analyses with Some (_ :: _) -> f.analyses <- Some [] | Some [] | None -> ()

let blocks_changed f =
  f.sorted_labels <- None;
  cfg_changed f

let block f l = Hashtbl.find f.blocks l
let find_block f l = Hashtbl.find_opt f.blocks l

let preds_of f l =
  match Hashtbl.find_opt f.preds l with
  | None -> []
  | Some { sorted = Some ps; _ } -> ps
  | Some ({ sorted = None; _ } as e) ->
    let ps = Value.Label_set.elements e.set in
    e.sorted <- Some ps;
    ps

let pred_set f l =
  match Hashtbl.find_opt f.preds l with None -> Value.Label_set.empty | Some e -> e.set

(* [Set.add] and [Set.remove] return their argument when nothing
   changes, so a no-op edit keeps the sorted list. *)
let add_pred f s l =
  match Hashtbl.find_opt f.preds s with
  | None -> Hashtbl.replace f.preds s { set = Value.Label_set.singleton l; sorted = None }
  | Some e ->
    let set = Value.Label_set.add l e.set in
    if set != e.set then begin
      e.set <- set;
      e.sorted <- None
    end

let remove_pred f s l =
  match Hashtbl.find_opt f.preds s with
  | None -> ()
  | Some e ->
    let set = Value.Label_set.remove l e.set in
    if set != e.set then begin
      e.set <- set;
      e.sorted <- None
    end

(* The lists a fresh build gives: blocks join their successors' lists in
   descending label order, so each list comes out sorted. *)
let fresh_lists blocks =
  let lists = Hashtbl.create (Hashtbl.length blocks) in
  Hashtbl.fold (fun l _ acc -> l :: acc) blocks []
  |> List.sort (fun a b -> Int.compare b a)
  |> List.iter (fun l ->
         List.iter
           (fun s ->
             let ps = Option.value ~default:[] (Hashtbl.find_opt lists s) in
             Hashtbl.replace lists s (l :: ps))
           (Block.successors (Hashtbl.find blocks l)));
  lists

let build_preds blocks =
  let preds = Hashtbl.create (Hashtbl.length blocks) in
  Hashtbl.iter
    (fun s ps -> Hashtbl.replace preds s { set = Value.Label_set.of_list ps; sorted = Some ps })
    (fresh_lists blocks);
  preds

let copy f =
  let blocks = Hashtbl.create (Hashtbl.length f.blocks) in
  Hashtbl.iter (fun l b -> Hashtbl.replace blocks l (copy_block b)) f.blocks;
  {
    f with
    blocks;
    preds = build_preds blocks;
    var_hints = Hashtbl.copy f.var_hints;
    pragmas = Hashtbl.copy f.pragmas;
    cfg_generation = 0;
    analyses = None;
  }

let restore f ~from_ =
  blocks_changed f;
  f.shared <- from_.shared;
  f.entry <- from_.entry;
  f.next_var <- from_.next_var;
  f.next_label <- from_.next_label;
  Hashtbl.reset f.blocks;
  Hashtbl.iter (fun l b -> Hashtbl.replace f.blocks l (copy_block b)) from_.blocks;
  Hashtbl.reset f.preds;
  Hashtbl.iter (Hashtbl.replace f.preds) (build_preds f.blocks);
  Hashtbl.reset f.var_hints;
  Hashtbl.iter (Hashtbl.replace f.var_hints) from_.var_hints;
  Hashtbl.reset f.pragmas;
  Hashtbl.iter (Hashtbl.replace f.pragmas) from_.pragmas

let fresh_var ?hint f =
  let v = f.next_var in
  f.next_var <- f.next_var + 1;
  (match hint with Some h -> Hashtbl.replace f.var_hints v h | None -> ());
  v

let fresh_block ?(hint = "") f =
  let l = f.next_label in
  f.next_label <- f.next_label + 1;
  let b = Block.create ~hint l in
  Hashtbl.replace f.blocks l b;
  blocks_changed f;
  b

let insert_block ?(hint = "") f l =
  if Hashtbl.mem f.blocks l then
    invalid_arg (Printf.sprintf "Func.insert_block: bb%d already exists" l);
  let b = Block.create ~hint l in
  Hashtbl.replace f.blocks l b;
  blocks_changed f;
  if l >= f.next_label then f.next_label <- l + 1;
  b

let note_var ?hint f v =
  (match hint with Some h -> Hashtbl.replace f.var_hints v h | None -> ());
  if v >= f.next_var then f.next_var <- v + 1

let remove_block f l =
  Option.iter
    (fun b ->
      Hashtbl.remove f.blocks l;
      List.iter (fun s -> remove_pred f s l) (Block.successors b))
    (find_block f l);
  blocks_changed f

let set_term f b term =
  let before = Block.successors b in
  b.Block.term <- term;
  let after = Block.successors b in
  if before <> after then begin
    cfg_changed f;
    let l = b.Block.label in
    List.iter (fun s -> if not (List.mem s after) then remove_pred f s l) before;
    List.iter (fun s -> if not (List.mem s before) then add_pred f s l) after
  end

let set_entry f l =
  f.entry <- l;
  cfg_changed f

let labels f =
  match f.sorted_labels with
  | Some ls -> ls
  | None ->
    let ls = Hashtbl.fold (fun l _ acc -> l :: acc) f.blocks [] |> List.sort Int.compare in
    f.sorted_labels <- Some ls;
    ls

let stale_preds f =
  let fresh = fresh_lists f.blocks in
  List.find_opt
    (fun l -> preds_of f l <> Option.value ~default:[] (Hashtbl.find_opt fresh l))
    (labels f)

(* Iteration snapshots the label list first, then skips any block a
   callback removed, so passes may delete blocks while iterating. *)
let iter_blocks g f =
  List.iter
    (fun l -> match find_block f l with Some b -> g b | None -> ())
    (labels f)

let fold_blocks g f init =
  List.fold_left
    (fun acc l -> match find_block f l with Some b -> g b acc | None -> acc)
    init (labels f)

(* An analysis is cached only while [with_analyses] runs, so a function
   kept after compilation holds none. [compute] may itself fill the
   cache (a loop forest needs the dominator tree), so the entry is
   added to the cache as it stands after [compute] returns. *)
let cached f find inject compute =
  match f.analyses with
  | None -> compute f
  | Some entries -> (
    match List.find_map find entries with
    | Some a -> a
    | None ->
      let a = compute f in
      (match f.analyses with
      | Some entries -> f.analyses <- Some (inject a :: entries)
      | None -> ());
      a)

let with_analyses f body =
  match f.analyses with
  | Some _ -> body ()
  | None ->
    f.analyses <- Some [];
    Fun.protect ~finally:(fun () -> f.analyses <- None) body

let var_hint f v = Hashtbl.find_opt f.var_hints v
let param_vars f = List.map (fun p -> p.pvar) f.params

(* Append a shared declaration; the register is ready to use as a
   [Ptr s_elt]. When [var] is given (the IR parser round-tripping a
   printed function) it is registered instead of a fresh one. *)
let declare_shared ?var f ~name ~elt ~size =
  if size <= 0 then
    invalid_arg (Printf.sprintf "Func.declare_shared: %s has size %d" name size);
  let v =
    match var with
    | Some v ->
      note_var ~hint:name f v;
      v
    | None -> fresh_var ~hint:name f
  in
  let s = { s_var = v; s_elt = elt; s_size = size; s_name = name } in
  f.shared <- f.shared @ [ s ];
  s

let instr_count f =
  fold_blocks
    (fun b acc -> acc + List.length b.Block.phis + List.length b.Block.instrs + 1)
    f 0

let size_units f =
  fold_blocks
    (fun b acc ->
      acc + List.length b.Block.phis + 1
      + List.fold_left (fun s i -> s + Instr.size_units i) 0 b.Block.instrs)
    f 0

let map_values g f = iter_blocks (Block.map_values g) f

type modul = { mod_name : string; mutable funcs : t list }

let create_module mod_name = { mod_name; funcs = [] }
let add_func m f = m.funcs <- m.funcs @ [ f ]
let find_func m name = List.find_opt (fun f -> f.name = name) m.funcs
