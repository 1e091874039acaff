type mapping = {
  label_map : Value.label Value.Label_map.t;
  var_map : Value.var Value.Var_map.t;
}

let map_label m l =
  match Value.Label_map.find_opt l m.label_map with Some l' -> l' | None -> l

let map_value m v =
  match v with
  | Value.Var x -> (
    match Value.Var_map.find_opt x m.var_map with
    | Some x' -> Value.Var x'
    | None -> v)
  | Value.Imm_int _ | Value.Imm_float _ | Value.Undef _ -> v

let clone_region f region =
  let region_set = Value.Label_set.of_list region in
  (* Fresh labels for every block in the region. *)
  let label_map =
    List.fold_left
      (fun acc l ->
        let orig = Func.block f l in
        let copy = Func.fresh_block ~hint:orig.Block.hint f in
        Value.Label_map.add l copy.Block.label acc)
      Value.Label_map.empty region
  in
  (* Fresh registers for every definition in the region. *)
  let var_map =
    List.fold_left
      (fun acc l ->
        let orig = Func.block f l in
        List.fold_left
          (fun acc v ->
            let hint =
              match Func.var_hint f v with Some h -> Some h | None -> None
            in
            Value.Var_map.add v (Func.fresh_var ?hint f) acc)
          acc (Block.defs orig))
      Value.Var_map.empty region
  in
  let m = { label_map; var_map } in
  let remap_value = map_value m in
  let remap_def v =
    match Value.Var_map.find_opt v var_map with Some v' -> v' | None -> v
  in
  List.iter
    (fun l ->
      let orig = Func.block f l in
      let copy = Func.block f (map_label m l) in
      let clone_phi (p : Instr.phi) =
        {
          Instr.dst = remap_def p.dst;
          ty = p.ty;
          incoming =
            List.map
              (fun (pred, v) ->
                let pred' =
                  if Value.Label_set.mem pred region_set then map_label m pred
                  else pred
                in
                (pred', remap_value v))
              p.incoming;
        }
      in
      copy.Block.phis <- List.map clone_phi orig.Block.phis;
      copy.Block.instrs <-
        List.map
          (fun i -> Instr.map_def remap_def (Instr.map_values remap_value i))
          orig.Block.instrs;
      Cfg.set_term f copy
        (Instr.term_map_labels (map_label m)
           (Instr.term_map_values remap_value orig.Block.term)))
    region;
  m

let replace_uses_with_values f subst =
  if not (Value.Var_map.is_empty subst) then
    Func.map_values
      (fun v ->
        match v with
        | Value.Var x -> (
          match Value.Var_map.find_opt x subst with Some v' -> v' | None -> v)
        | Value.Imm_int _ | Value.Imm_float _ | Value.Undef _ -> v)
      f

let apply_subst f subst =
  let rec resolve seen v =
    match v with
    | Value.Var x when not (Value.Var_set.mem x seen) -> (
      match Value.Var_map.find_opt x subst with
      | Some v' -> resolve (Value.Var_set.add x seen) v'
      | None -> v)
    | Value.Var _ | Value.Imm_int _ | Value.Imm_float _ | Value.Undef _ -> v
  in
  let final =
    Value.Var_map.mapi (fun x v -> resolve (Value.Var_set.singleton x) v) subst
  in
  replace_uses_with_values f final
