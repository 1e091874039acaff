open Uu_support
open Uu_ir
open Uu_analysis

let stat_exprs = Statistic.counter "gvn.exprs_eliminated"
let stat_loads = Statistic.counter "gvn.loads_eliminated"

module Expr_map = Map.Make (struct
  (* A pure instruction with its destination zeroed is its own value
     number key; structural compare is total on this type. *)
  type t = Instr.t

  let compare = compare
end)

let key_of i = Instr.map_def (fun _ -> 0) i

let pure_cse f =
  let dom = Dominance.compute f in
  let subst = ref Value.Var_map.empty in
  let changed = ref false in
  let rec walk blk scope =
    let b = Func.block f blk in
    let scope = ref scope in
    b.Block.instrs <-
      List.filter
        (fun i ->
          if Instr.is_pure i then begin
            match Instr.def i with
            | Some d -> (
              let key = key_of i in
              match Expr_map.find_opt key !scope with
              | Some prior ->
                subst := Value.Var_map.add d (Value.Var prior) !subst;
                changed := true;
                false
              | None ->
                scope := Expr_map.add key d !scope;
                true)
            | None -> true
          end
          else true)
        b.Block.instrs;
    List.iter (fun child -> walk child !scope) (Dominance.children dom blk)
  in
  walk f.Func.entry Expr_map.empty;
  let n = Value.Var_map.cardinal !subst in
  if n > 0 then begin
    Clone.apply_subst f !subst;
    Statistic.incr ~by:n stat_exprs;
    Remark.applied ~pass:"gvn" ~func:f.Func.name
      ~args:[ ("eliminated", Remark.Int n) ]
      "replaced dominated recomputations of pure expressions with their \
       first occurrence"
  end;
  !changed

module Addr_map = Map.Make (struct
  type t = Value.t

  let compare = compare
end)

let load_elim f =
  let aa = Alias.create f in
  let subst = ref Value.Var_map.empty in
  let changed = ref false in
  (* State: address -> known value of the memory cell. *)
  let out_states : (Value.label, Value.t Addr_map.t) Hashtbl.t = Hashtbl.create 32 in
  let order = Cfg.reverse_postorder f in
  let processed = Hashtbl.create 32 in
  List.iter
    (fun blk ->
      let b = Func.block f blk in
      let init =
        match Cfg.preds_of f blk with
        | [ p ] when Hashtbl.mem processed p -> (
          match Hashtbl.find_opt out_states p with
          | Some s -> s
          | None -> Addr_map.empty)
        | _ -> Addr_map.empty
      in
      let avail = ref init in
      let kill_aliasing addr =
        avail := Addr_map.filter (fun a _ -> not (Alias.may_alias aa a addr)) !avail
      in
      b.Block.instrs <-
        List.filter
          (fun i ->
            match i with
            | Instr.Load { dst; addr; _ } -> (
              match Addr_map.find_opt addr !avail with
              | Some v ->
                subst := Value.Var_map.add dst v !subst;
                changed := true;
                false
              | None ->
                avail := Addr_map.add addr (Value.Var dst) !avail;
                true)
            | Instr.Store { addr; value; _ } ->
              kill_aliasing addr;
              avail := Addr_map.add addr value !avail;
              true
            | Instr.Atomic_add { addr; _ } ->
              kill_aliasing addr;
              true
            | Instr.Syncthreads ->
              avail := Addr_map.empty;
              true
            | Instr.Binop _ | Instr.Cmp _ | Instr.Unop _ | Instr.Select _
            | Instr.Alloca _ | Instr.Gep _ | Instr.Intrinsic _ | Instr.Special _ ->
              true)
          b.Block.instrs;
      Hashtbl.replace out_states blk !avail;
      Hashtbl.replace processed blk ())
    order;
  let n = Value.Var_map.cardinal !subst in
  if n > 0 then begin
    Clone.apply_subst f !subst;
    Statistic.incr ~by:n stat_loads;
    Remark.applied ~pass:"gvn" ~func:f.Func.name
      ~args:[ ("loads", Remark.Int n) ]
      "forwarded known memory values into redundant loads (§V load \
       elimination)"
  end;
  !changed

let run f =
  let c1 = pure_cse f in
  let c2 = load_elim f in
  c1 || c2

let pass = { Pass.name = "gvn"; run }
