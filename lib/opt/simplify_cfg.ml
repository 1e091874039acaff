open Uu_support
open Uu_ir

let stat_branches = Statistic.counter "simplifycfg.branches_folded"
let stat_merged = Statistic.counter "simplifycfg.blocks_merged"

let fold_branches f =
  let changed = ref false in
  Func.iter_blocks
    (fun b ->
      match b.Block.term with
      | Instr.Cond_br { cond; if_true; if_false } ->
        if if_true = if_false then begin
          Func.set_term f b (Instr.Br if_true);
          changed := true
        end
        else begin
          match cond with
          | Value.Imm_int (n, _) ->
            let live, dead =
              if Int64.equal (Int64.logand n 1L) 0L then if_false, if_true
              else if_true, if_false
            in
            Func.set_term f b (Instr.Br live);
            (match Func.find_block f dead with
            | Some db -> Block.remove_incoming b.Block.label db
            | None -> ());
            Statistic.incr stat_branches;
            changed := true
          | Value.Undef _ ->
            Func.set_term f b (Instr.Br if_true);
            (match Func.find_block f if_false with
            | Some db ->
              if if_false <> if_true then Block.remove_incoming b.Block.label db
            | None -> ());
            changed := true
          | Value.Var _ | Value.Imm_float _ -> ()
        end
      | Instr.Br _ | Instr.Ret _ | Instr.Unreachable -> ())
    f;
  !changed

let simplify_phis f =
  let reachable = Cfg.reachable f in
  let subst = ref Value.Var_map.empty in
  let changed = ref false in
  Func.iter_blocks
    (fun b ->
      if Value.Label_set.mem b.Block.label reachable then begin
        let ps = Cfg.pred_set f b.Block.label in
        let simplify (p : Instr.phi) =
          (* Keep only entries from actual reachable predecessors. *)
          let incoming =
            List.filter
              (fun (l, _) -> Value.Label_set.mem l ps && Value.Label_set.mem l reachable)
              p.incoming
          in
          let values =
            List.filter_map
              (fun (_, v) -> if Value.equal v (Value.Var p.dst) then None else Some v)
              incoming
          in
          let distinct =
            List.sort_uniq compare values
          in
          match distinct with
          | [ v ] ->
            subst := Value.Var_map.add p.dst v !subst;
            changed := true;
            None
          | [] ->
            subst := Value.Var_map.add p.dst (Value.Undef p.ty) !subst;
            changed := true;
            None
          | _ :: _ :: _ ->
            if List.length incoming <> List.length p.incoming then changed := true;
            Some { p with incoming }
        in
        b.Block.phis <- List.filter_map simplify b.Block.phis
      end)
    f;
  if not (Value.Var_map.is_empty !subst) then Clone.apply_subst f !subst;
  !changed

(* [merge_straight_line] and [forward_empty_blocks] rewrite in
   [Cfg.rounds]. That order decides phi-entry order and which of two
   conflicting rewrites wins, so it is part of the output. Each round
   after the first visits only the blocks the previous round deferred or
   whose neighbourhood it rewrote: a block that fails for any other
   reason fails again until its neighbourhood changes. *)
let merge_straight_line f =
  (* A block consumed by a merge this round cannot take part in another
     one until the next round (chains shrink by half per round). Merging
     never reads phi entries, so the successors' entries from consumed
     blocks are renamed once, at the end, through [merged_into]. *)
  let merged_into = Hashtbl.create 16 in
  let renamed = Hashtbl.create 16 in
  let changed = ref false in
  let visit touched b =
    match b.Block.term with
    | Instr.Br s when s <> b.Block.label && s <> f.Func.entry ->
      if Hashtbl.mem touched b.Block.label || Hashtbl.mem touched s then
        [ b.Block.label ]
      else begin
        match Cfg.preds_of f s, Func.find_block f s with
        | [ p ], Some sb when p = b.Block.label && sb.Block.phis = [] ->
          b.Block.instrs <- b.Block.instrs @ sb.Block.instrs;
          Func.set_term f b sb.Block.term;
          Hashtbl.replace merged_into s b.Block.label;
          List.iter (fun succ -> Hashtbl.replace renamed succ ()) (Block.successors sb);
          Func.remove_block f s;
          Hashtbl.replace touched b.Block.label ();
          Hashtbl.replace touched s ();
          Statistic.incr stat_merged;
          changed := true;
          [ b.Block.label ]
        | _ -> []
      end
    | Instr.Br _ | Instr.Cond_br _ | Instr.Ret _ | Instr.Unreachable -> []
  in
  Cfg.rounds f visit (Func.labels f);
  let rec final l =
    match Hashtbl.find_opt merged_into l with Some l' -> final l' | None -> l
  in
  Hashtbl.iter
    (fun succ () ->
      match Func.find_block f succ with
      | Some b ->
        b.Block.phis <-
          List.map
            (fun (p : Instr.phi) ->
              { p with incoming = List.map (fun (l, v) -> (final l, v)) p.incoming })
            b.Block.phis
      | None -> ())
    renamed;
  !changed

(* Forwarding moves every predecessor of an empty block to its
   successor's phis; a batch makes each move cost the entries it
   touches, not the join's whole phis. *)
let forward_empty_blocks f =
  let changed = ref false in
  let edits = Phi_edits.create () in
  let visit touched b =
    match b.Block.term with
    | Instr.Br s
      when b.Block.phis = [] && b.Block.instrs = []
           && b.Block.label <> f.Func.entry && s <> b.Block.label -> (
      if Hashtbl.mem touched b.Block.label || Hashtbl.mem touched s then
        [ b.Block.label ]
      else
        let ps = Cfg.preds_of f b.Block.label in
        match Func.find_block f s with
        | None -> []
        | Some sb ->
          let s_preds = Cfg.pred_set f s in
          let conflict =
            sb.Block.phis <> [] && List.exists (fun p -> Value.Label_set.mem p s_preds) ps
          in
          let latch_like = List.mem s ps in
          if ps = [] || conflict || latch_like then []
          else if List.exists (Hashtbl.mem touched) ps then [ b.Block.label ]
          else begin
            List.iter
              (fun p ->
                match Func.find_block f p with
                | Some pb ->
                  Func.set_term f pb
                    (Instr.term_map_labels
                       (fun l -> if l = b.Block.label then s else l)
                       pb.Block.term)
                | None -> ())
              ps;
            List.iter
              (fun phi ->
                match Phi_edits.first phi b.Block.label with
                | None -> ()
                | Some v ->
                  Phi_edits.drop edits phi b.Block.label;
                  List.iter (fun p -> Phi_edits.append edits phi p v) ps)
              (Phi_edits.phis edits sb);
            Func.remove_block f b.Block.label;
            Hashtbl.replace touched b.Block.label ();
            Hashtbl.replace touched s ();
            List.iter (fun p -> Hashtbl.replace touched p ()) ps;
            changed := true;
            (* s has new predecessors and each p a new target. *)
            s :: ps
          end)
    | Instr.Br _ | Instr.Cond_br _ | Instr.Ret _ | Instr.Unreachable -> []
  in
  Cfg.rounds f visit (Func.labels f);
  Phi_edits.flush edits;
  !changed

let run f =
  let rec go any =
    let c1 = fold_branches f in
    let c2 = Cfg.remove_unreachable f in
    let c3 = simplify_phis f in
    let c4 = merge_straight_line f in
    let c5 = forward_empty_blocks f in
    let changed = c1 || c2 || c3 || c4 || c5 in
    if changed then go true else any
  in
  go false

let pass = { Pass.name = "simplify-cfg"; run }
