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

type t = {
  name : string;
  params : param list;
  ret_ty : Types.t;
  mutable shared : shared list;
  mutable entry : Value.label;
  blocks : (Value.label, Block.t) Hashtbl.t;
  mutable next_var : int;
  mutable next_label : int;
  var_hints : (Value.var, string) Hashtbl.t;
  pragmas : (Value.label, pragma) Hashtbl.t;
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
      next_var = List.length params;
      next_label = 0;
      var_hints;
      pragmas = Hashtbl.create 3;
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

let copy f =
  let blocks = Hashtbl.create (Hashtbl.length f.blocks) in
  Hashtbl.iter (fun l b -> Hashtbl.replace blocks l (copy_block b)) f.blocks;
  {
    f with
    blocks;
    var_hints = Hashtbl.copy f.var_hints;
    pragmas = Hashtbl.copy f.pragmas;
  }

let restore f ~from_ =
  f.shared <- from_.shared;
  f.entry <- from_.entry;
  f.next_var <- from_.next_var;
  f.next_label <- from_.next_label;
  Hashtbl.reset f.blocks;
  Hashtbl.iter (fun l b -> Hashtbl.replace f.blocks l (copy_block b)) from_.blocks;
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
  b

let insert_block ?(hint = "") f l =
  if Hashtbl.mem f.blocks l then
    invalid_arg (Printf.sprintf "Func.insert_block: bb%d already exists" l);
  let b = Block.create ~hint l in
  Hashtbl.replace f.blocks l b;
  if l >= f.next_label then f.next_label <- l + 1;
  b

let note_var ?hint f v =
  (match hint with Some h -> Hashtbl.replace f.var_hints v h | None -> ());
  if v >= f.next_var then f.next_var <- v + 1

let block f l = Hashtbl.find f.blocks l
let find_block f l = Hashtbl.find_opt f.blocks l
let remove_block f l = Hashtbl.remove f.blocks l

let labels f =
  Hashtbl.fold (fun l _ acc -> l :: acc) f.blocks [] |> List.sort compare

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
