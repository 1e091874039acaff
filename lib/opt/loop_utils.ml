open Uu_ir
open Uu_analysis

let retarget f b ~from_ ~to_ =
  Func.set_term f b
    (Instr.term_map_labels (fun l -> if l = from_ then to_ else l) b.Block.term)

let ensure_preheader f (loop : Loops.loop) =
  let outside =
    List.filter
      (fun p -> not (Value.Label_set.mem p loop.blocks))
      (Cfg.preds_of f loop.header)
  in
  let is_br p = match (Func.block f p).Block.term with Instr.Br _ -> true | _ -> false in
  match outside with
  | [ p ] when is_br p -> p
  | _ ->
    let header = Func.block f loop.header in
    let ph = Func.fresh_block ~hint:"preheader" f in
    Func.set_term f ph (Instr.Br loop.header);
    List.iter
      (fun p -> retarget f (Func.block f p) ~from_:loop.header ~to_:ph.Block.label)
      outside;
    (* Move outside phi entries into the preheader. *)
    header.Block.phis <-
      List.map
        (fun (p : Instr.phi) ->
          let outside_in, latch_in =
            List.partition (fun (l, _) -> List.mem l outside) p.incoming
          in
          let entry_value =
            match outside_in with
            | [] -> Value.Undef p.ty
            | [ (_, v) ] -> v
            | _ :: _ :: _ ->
              let dst = Func.fresh_var ?hint:(Func.var_hint f p.dst) f in
              ph.Block.phis <-
                ph.Block.phis @ [ { Instr.dst; ty = p.ty; incoming = outside_in } ];
              Value.Var dst
          in
          { p with incoming = (ph.Block.label, entry_value) :: latch_in })
        header.Block.phis;
    (* The function entry cannot be a loop header with an out-of-loop
       predecessor, but if the header was the entry, the preheader becomes
       the new entry. *)
    if f.Func.entry = loop.header then Func.set_entry f ph.Block.label;
    ph.Block.label

(* Returns the loop with its exit edges retargeted to the new blocks. *)
let ensure_dedicated_exits f (loop : Loops.loop) =
  let split = ref [] in
  let targets = List.sort_uniq Int.compare (List.map snd loop.exits) in
  List.iter
    (fun s ->
      let ps = Cfg.preds_of f s in
      let outside =
        List.filter (fun p -> not (Value.Label_set.mem p loop.blocks)) ps
      in
      if outside <> [] then begin
        let inside =
          List.filter (fun p -> Value.Label_set.mem p loop.blocks) ps
        in
        let sb = Func.block f s in
        let ex = Func.fresh_block ~hint:"loopexit" f in
        Func.set_term f ex (Instr.Br s);
        (* Loop preds now branch to the dedicated exit; phi entries from
           them move into new phis in the exit block. *)
        List.iter
          (fun p -> retarget f (Func.block f p) ~from_:s ~to_:ex.Block.label)
          inside;
        sb.Block.phis <-
          List.map
            (fun (p : Instr.phi) ->
              let from_loop, rest =
                List.partition (fun (l, _) -> List.mem l inside) p.incoming
              in
              match from_loop with
              | [] -> p
              | (_, v0) :: others
                when List.for_all (fun (_, v') -> Value.equal v0 v') others ->
                { p with incoming = rest @ [ (ex.Block.label, v0) ] }
              | _ :: _ ->
                let dst = Func.fresh_var ?hint:(Func.var_hint f p.dst) f in
                ex.Block.phis <-
                  ex.Block.phis @ [ { Instr.dst; ty = p.ty; incoming = from_loop } ];
                { p with incoming = rest @ [ (ex.Block.label, Value.Var dst) ] })
            sb.Block.phis;
        split := (s, ex.Block.label) :: !split
      end)
    targets;
  let exit_of s = Option.value ~default:s (List.assoc_opt s !split) in
  { loop with
    exits = List.sort_uniq compare (List.map (fun (l, s) -> (l, exit_of s)) loop.exits)
  }

let build_lcssa f (loop : Loops.loop) =
  (* Collect values defined inside the loop and used outside. A phi use
     counts at its incoming predecessor. *)
  let in_loop l = Value.Label_set.mem l loop.blocks in
  let defs_in_loop =
    Value.Label_set.fold
      (fun l acc ->
        List.fold_left
          (fun acc v -> Value.Var_set.add v acc)
          acc
          (Block.defs (Func.block f l)))
      loop.blocks Value.Var_set.empty
  in
  let used_outside = ref Value.Var_set.empty in
  let note_use where v =
    match v with
    | Value.Var x when Value.Var_set.mem x defs_in_loop && not (in_loop where) ->
      used_outside := Value.Var_set.add x !used_outside
    | Value.Var _ | Value.Imm_int _ | Value.Imm_float _ | Value.Undef _ -> ()
  in
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun (p : Instr.phi) ->
          List.iter (fun (pred, v) -> note_use pred v) p.incoming)
        b.Block.phis;
      List.iter
        (fun i -> List.iter (note_use b.Block.label) (Instr.uses i))
        b.Block.instrs;
      List.iter (note_use b.Block.label) (Instr.term_uses b.Block.term))
    f;
  if Value.Var_set.is_empty !used_outside then false
  else begin
    let exit_targets = List.sort_uniq Int.compare (List.map snd loop.exits) in
    match exit_targets with
    | [] -> false
    | _ :: _ :: _ ->
      failwith
        (Printf.sprintf
           "LCSSA: @%s loop at bb%d has a value used outside and %d exit targets \
            (unsupported shape)"
           f.Func.name loop.header
           (List.length exit_targets))
    | [ ex ] ->
      let exb = Func.block f ex in
      let in_preds = Cfg.preds_of f ex in
      assert (List.for_all in_loop in_preds);
      (* One LCSSA phi per escaping value; outside uses retarget to it. *)
      let tys = Sccp.def_types f in
      let subst = ref Value.Var_map.empty in
      Value.Var_set.iter
        (fun v ->
          let ty =
            match Hashtbl.find_opt tys v with
            | Some ty -> ty
            | None -> Types.I64
          in
          let dst = Func.fresh_var ~hint:"lcssa" f in
          exb.Block.phis <-
            exb.Block.phis
            @ [ { Instr.dst; ty; incoming = List.map (fun p -> (p, Value.Var v)) in_preds } ];
          subst := Value.Var_map.add v (dst, ty) !subst)
        !used_outside;
      (* Rewrite only outside uses (excluding the LCSSA phis we added). *)
      let lcssa_dsts =
        Value.Var_map.fold
          (fun _ (d, _) acc -> Value.Var_set.add d acc)
          !subst Value.Var_set.empty
      in
      let rewrite where v =
        match v with
        | Value.Var x when not (in_loop where) -> (
          match Value.Var_map.find_opt x !subst with
          | Some (d, _) -> Value.Var d
          | None -> v)
        | Value.Var _ | Value.Imm_int _ | Value.Imm_float _ | Value.Undef _ -> v
      in
      Func.iter_blocks
        (fun b ->
          b.Block.phis <-
            List.map
              (fun (p : Instr.phi) ->
                if Value.Var_set.mem p.dst lcssa_dsts then p
                else
                  { p with
                    incoming =
                      List.map (fun (pred, v) -> (pred, rewrite pred v)) p.incoming
                  })
              b.Block.phis;
          if not (in_loop b.Block.label) then begin
            b.Block.instrs <-
              List.map (Instr.map_values (rewrite b.Block.label)) b.Block.instrs;
            Block.map_term_values (rewrite b.Block.label) b
          end)
        f;
      true
  end

type canonical = { loop : Loops.loop; preheader : Value.label; edited : bool }

let canonicalize f header =
  match
    List.find_opt (fun (l : Loops.loop) -> l.header = header)
      (Loops.loops (Loops.analyze f))
  with
  | None -> None
  | Some loop ->
    let generation = f.Func.cfg_generation in
    (* A new preheader lies outside the loop and only outside blocks are
       retargeted to it, so the loop itself is unchanged; a dedicated exit
       changes only the exit edges, which [ensure_dedicated_exits]
       rewrites. LCSSA adds phis, not edges. The first two edit only by
       adding a block, which moves the CFG generation. *)
    let preheader = ensure_preheader f loop in
    let loop = ensure_dedicated_exits f loop in
    let lcssa = build_lcssa f loop in
    Some { loop; preheader; edited = lcssa || f.Func.cfg_generation <> generation }
