open Uu_support
open Uu_ir
open Uu_analysis

let stat_decided = Statistic.counter "condprop.conds_decided"
let stat_branches = Statistic.counter "condprop.branches_folded"

(* Relation possibility masks over an operand pair (l, r). *)
let rel_lt = 1
let rel_eq = 2
let rel_gt = 4
let rel_all = 7

module Pair_map = Map.Make (struct
  type t = Value.t * Value.t

  let compare = compare
end)

module Float_set = Set.Make (struct
  type t = Instr.cmpop * Value.t * Value.t

  let compare = compare
end)

type facts = {
  signed : int Pair_map.t;    (* possibility mask per canonical pair *)
  unsigned : int Pair_map.t;
  float_true : Float_set.t;   (* float predicates known to hold *)
  float_false : Float_set.t;
  bools : bool Value.Var_map.t;  (* i1 registers with known values *)
}

let empty_facts =
  {
    signed = Pair_map.empty;
    unsigned = Pair_map.empty;
    float_true = Float_set.empty;
    float_false = Float_set.empty;
    bools = Value.Var_map.empty;
  }

let swap_mask m =
  (if m land rel_lt <> 0 then rel_gt else 0)
  lor (m land rel_eq)
  lor if m land rel_gt <> 0 then rel_lt else 0

(* Canonical orientation of an operand pair; [flipped] tells whether masks
   must be mirrored. *)
let canon l r = if compare l r <= 0 then ((l, r), false) else ((r, l), true)

(* The possibility mask asserted by [cmp op l r = value], per domain. *)
let assert_mask op value =
  let t_mask =
    match op with
    | Instr.Slt | Instr.Ult -> rel_lt
    | Instr.Sle | Instr.Ule -> rel_lt lor rel_eq
    | Instr.Sgt | Instr.Ugt -> rel_gt
    | Instr.Sge | Instr.Uge -> rel_gt lor rel_eq
    | Instr.Eq -> rel_eq
    | Instr.Ne -> rel_lt lor rel_gt
    | Instr.Foeq | Instr.Fone | Instr.Folt | Instr.Fole | Instr.Fogt | Instr.Foge ->
      rel_all
  in
  if value then t_mask else rel_all land lnot t_mask

let domain_of op =
  match op with
  | Instr.Slt | Instr.Sle | Instr.Sgt | Instr.Sge -> `Signed
  | Instr.Ult | Instr.Ule | Instr.Ugt | Instr.Uge -> `Unsigned
  | Instr.Eq | Instr.Ne -> `Both
  | Instr.Foeq | Instr.Fone | Instr.Folt | Instr.Fole | Instr.Fogt | Instr.Foge ->
    `Float

let add_pair_fact facts op l r value =
  let (cl, cr), flipped = canon l r in
  let mask = assert_mask op value in
  let mask = if flipped then swap_mask mask else mask in
  let narrow map =
    let cur = match Pair_map.find_opt (cl, cr) map with Some m -> m | None -> rel_all in
    Pair_map.add (cl, cr) (cur land mask) map
  in
  match domain_of op with
  | `Signed -> { facts with signed = narrow facts.signed }
  | `Unsigned -> { facts with unsigned = narrow facts.unsigned }
  | `Both -> { facts with signed = narrow facts.signed; unsigned = narrow facts.unsigned }
  | `Float -> facts

(* Float facts: store derived true/false predicates explicitly, never
   assuming ordered-negation is complement (NaN). *)
let float_swap op =
  match op with
  | Instr.Foeq -> Instr.Foeq
  | Instr.Fone -> Instr.Fone
  | Instr.Folt -> Instr.Fogt
  | Instr.Fole -> Instr.Foge
  | Instr.Fogt -> Instr.Folt
  | Instr.Foge -> Instr.Fole
  | (Instr.Eq | Instr.Ne | Instr.Slt | Instr.Sle | Instr.Sgt | Instr.Sge
    | Instr.Ult | Instr.Ule | Instr.Ugt | Instr.Uge) as o ->
    o

let add_float_fact facts op l r value =
  let add_true s (o, a, b) =
    Float_set.add (o, a, b) (Float_set.add (float_swap o, b, a) s)
  in
  if value then begin
    (* op holds (so both operands are ordered, not NaN). *)
    let truths =
      match op with
      | Instr.Foeq -> [ (Instr.Foeq, l, r); (Instr.Fole, l, r); (Instr.Foge, l, r) ]
      | Instr.Fone -> [ (Instr.Fone, l, r) ]
      | Instr.Folt -> [ (Instr.Folt, l, r); (Instr.Fole, l, r); (Instr.Fone, l, r) ]
      | Instr.Fole -> [ (Instr.Fole, l, r) ]
      | Instr.Fogt -> [ (Instr.Fogt, l, r); (Instr.Foge, l, r); (Instr.Fone, l, r) ]
      | Instr.Foge -> [ (Instr.Foge, l, r) ]
      | Instr.Eq | Instr.Ne | Instr.Slt | Instr.Sle | Instr.Sgt | Instr.Sge
      | Instr.Ult | Instr.Ule | Instr.Ugt | Instr.Uge ->
        []
    in
    let falsities =
      match op with
      | Instr.Foeq -> [ (Instr.Fone, l, r); (Instr.Folt, l, r); (Instr.Fogt, l, r) ]
      | Instr.Fone -> [ (Instr.Foeq, l, r) ]
      | Instr.Folt -> [ (Instr.Foeq, l, r); (Instr.Fogt, l, r); (Instr.Foge, l, r) ]
      | Instr.Fole -> [ (Instr.Fogt, l, r) ]
      | Instr.Fogt -> [ (Instr.Foeq, l, r); (Instr.Folt, l, r); (Instr.Fole, l, r) ]
      | Instr.Foge -> [ (Instr.Folt, l, r) ]
      | Instr.Eq | Instr.Ne | Instr.Slt | Instr.Sle | Instr.Sgt | Instr.Sge
      | Instr.Ult | Instr.Ule | Instr.Ugt | Instr.Uge ->
        []
    in
    {
      facts with
      float_true = List.fold_left add_true facts.float_true truths;
      float_false = List.fold_left add_true facts.float_false falsities;
    }
  end
  else
    (* Only the exact predicate (and its mirror) is known false. *)
    { facts with float_false = add_true facts.float_false (op, l, r) }

(* Decide [cmp op l r] from the fact base, if implied. *)
let decide facts op l r =
  match domain_of op with
  | `Float ->
    if Float_set.mem (op, l, r) facts.float_true then Some true
    else if Float_set.mem (op, l, r) facts.float_false then Some false
    else None
  | (`Signed | `Unsigned | `Both) as dom -> (
    let (cl, cr), flipped = canon l r in
    let lookup map =
      match Pair_map.find_opt (cl, cr) map with Some m -> Some m | None -> None
    in
    let mask =
      match dom with
      | `Signed -> lookup facts.signed
      | `Unsigned -> lookup facts.unsigned
      | `Both -> (
        (* Eq/Ne can be decided from either domain; intersect knowledge. *)
        match lookup facts.signed, lookup facts.unsigned with
        | Some a, Some b -> Some (a land b)
        | Some a, None | None, Some a -> Some a
        | None, None -> None)
    in
    match mask with
    | None -> None
    | Some possible ->
      let possible = if flipped then swap_mask possible else possible in
      let t_mask = assert_mask op true in
      if possible land lnot t_mask = 0 then Some true
      else if possible land t_mask = 0 then Some false
      else None)

let run f =
  let dom = Dominance.compute f in
  (* Definitions of i1-producing instructions, for fact derivation, and
     each block's sole predecessor as the pass found it: facts flow only
     along an edge its source owned before the folds below. *)
  let defs : (Value.var, Instr.t) Hashtbl.t = Hashtbl.create 64 in
  let sole_pred = Hashtbl.create 64 in
  Func.iter_blocks
    (fun b ->
      (match Cfg.preds_of f b.Block.label with
      | [ p ] -> Hashtbl.replace sole_pred b.Block.label p
      | [] | _ :: _ :: _ -> ());
      List.iter
        (fun i ->
          match Instr.def i with
          | Some d -> Hashtbl.replace defs d i
          | None -> ())
        b.Block.instrs)
    f;
  (* Learn everything implied by [v = value]. *)
  let rec learn facts v value =
    let facts = { facts with bools = Value.Var_map.add v value facts.bools } in
    match Hashtbl.find_opt defs v with
    | Some (Instr.Cmp { op; lhs; rhs; _ }) -> (
      match domain_of op with
      | `Float -> add_float_fact facts op lhs rhs value
      | `Signed | `Unsigned | `Both -> add_pair_fact facts op lhs rhs value)
    | Some (Instr.Binop { op = Instr.And; lhs = Value.Var a; rhs = Value.Var b; ty = Types.I1; _ })
      when value ->
      learn (learn facts a true) b true
    | Some (Instr.Binop { op = Instr.Or; lhs = Value.Var a; rhs = Value.Var b; ty = Types.I1; _ })
      when not value ->
      learn (learn facts a false) b false
    | Some (Instr.Binop { op = Instr.Xor; lhs = Value.Var a; rhs = Value.Imm_int (1L, Types.I1); _ }) ->
      learn facts a (not value)
    | Some _ | None -> facts
  in
  let subst = ref Value.Var_map.empty in
  let changed = ref false in
  let rewrite_bool_uses facts instr =
    Instr.map_values
      (fun v ->
        match v with
        | Value.Var x -> (
          match Value.Var_map.find_opt x facts.bools with
          | Some b -> (
            (* Only rewrite uses that expect an i1: conservative check via
               the defining instruction's result type. *)
            match Hashtbl.find_opt defs x with
            | Some def -> (
              match Instr.def_ty def with
              | Some (_, Types.I1) -> Value.i1 b
              | Some _ | None -> v)
            | None -> v)
          | None -> v)
        | Value.Imm_int _ | Value.Imm_float _ | Value.Undef _ -> v)
      instr
  in
  let rec walk blk facts =
    let b = Func.block f blk in
    let facts = ref facts in
    b.Block.instrs <-
      List.filter_map
        (fun i ->
          let i = rewrite_bool_uses !facts i in
          match i with
          | Instr.Cmp { dst; op; lhs; rhs; _ } -> (
            match decide !facts op lhs rhs with
            | Some value ->
              subst := Value.Var_map.add dst (Value.i1 value) !subst;
              facts := learn !facts dst value;
              changed := true;
              Statistic.incr stat_decided;
              Remark.applied ~pass:"cond-prop" ~func:f.Func.name ~block:blk
                ~args:[ ("known", Remark.Bool value) ]
                "comparison implied by dominating branch facts; condition \
                 check eliminated";
              None
            | None -> Some i)
          | _ -> Some i)
        b.Block.instrs;
    (* Fold the terminator if its condition is known. *)
    (match b.Block.term with
    | Instr.Cond_br { cond = Value.Var c; if_true; if_false } -> (
      match Value.Var_map.find_opt c !facts.bools with
      | Some value ->
        Func.set_term f b (Instr.Br (if value then if_true else if_false));
        let dead = if value then if_false else if_true in
        (match Func.find_block f dead with
        | Some db when dead <> (if value then if_true else if_false) ->
          Block.remove_incoming blk db
        | Some _ | None -> ());
        changed := true;
        Statistic.incr stat_branches;
        Remark.applied ~pass:"cond-prop" ~func:f.Func.name ~block:blk
          ~args:[ ("taken", Remark.Bool value) ]
          "branch outcome known on this path; folded to an unconditional \
           branch"
      | None -> ())
    | Instr.Cond_br _ | Instr.Br _ | Instr.Ret _ | Instr.Unreachable -> ());
    (* Descend the dominator tree, extending facts along owned edges. *)
    List.iter
      (fun child ->
        let child_facts =
          match Hashtbl.find_opt sole_pred child with
          | Some p when p = blk -> (
            match b.Block.term with
            | Instr.Cond_br { cond = Value.Var c; if_true; if_false }
              when if_true <> if_false ->
              if child = if_true then learn !facts c true
              else if child = if_false then learn !facts c false
              else !facts
            | Instr.Cond_br _ | Instr.Br _ | Instr.Ret _ | Instr.Unreachable ->
              !facts)
          | Some _ | None -> !facts
        in
        walk child child_facts)
      (Dominance.children dom blk)
  in
  walk f.Func.entry empty_facts;
  if not (Value.Var_map.is_empty !subst) then Clone.apply_subst f !subst;
  !changed

let pass = { Pass.name = "cond-prop"; run }
