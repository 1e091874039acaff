open Uu_support
open Uu_ir
open Uu_analysis

let stat_paths = Statistic.counter "unmerge.paths_duplicated"
let stat_loops = Statistic.counter "unmerge.loops_duplicated"
let stat_budget = Statistic.counter "unmerge.budget_exhausted"

type outcome = {
  changed : bool;
  duplicated_blocks : int;
  budget_exhausted : bool;
}

(* Tail duplication must be path-sensitive: when block [b] is duplicated
   for a predecessor [p] that is itself a copy, [b]'s operands that name
   definitions upstream of [p]'s original must be rewritten to the
   versions on [p]'s path. Each copy therefore carries a substitution from
   original registers to its path's registers, accumulated along the
   duplication cascade. *)
type dup_state = {
  mutable created : int;
  budget : int;
  mutable exhausted : bool;
  (* label of a copy -> accumulated substitution *)
  subst_of : (Value.label, Value.t Value.Var_map.t) Hashtbl.t;
}

let subst_value sigma v =
  match v with
  | Value.Var x -> (
    match Value.Var_map.find_opt x sigma with Some v' -> v' | None -> v)
  | Value.Imm_int _ | Value.Imm_float _ | Value.Undef _ -> v

let sigma_of st l =
  match Hashtbl.find_opt st.subst_of l with
  | Some s -> s
  | None -> Value.Var_map.empty

(* Duplicate merge [b] once for every predecessor in [preds], in order,
   retargeting each predecessor to its private copy, and delete [b];
   returns the copies. Each phi's incoming list is indexed once, so every
   copy's phis are built already collapsed to its one predecessor, and
   each successor's phis are rewritten once for the whole merge: the cost
   is proportional to the copies created, not to copies x predecessors.
   Fresh labels and registers are allocated copy by copy: the block, then
   its phi definitions, then its instruction definitions. *)
let duplicate_merge st f b_label preds =
  let b = Func.block f b_label in
  (* The first entry per predecessor wins, as with [List.assoc_opt]. *)
  let indexed =
    List.map
      (fun (ph : Instr.phi) ->
        let by_pred = Hashtbl.create (List.length ph.incoming) in
        List.iter
          (fun (l, v) -> if not (Hashtbl.mem by_pred l) then Hashtbl.add by_pred l v)
          ph.incoming;
        (ph, by_pred))
      b.Block.phis
  in
  let defs = Block.defs b in
  let copies =
    List.map
      (fun p ->
        let copy = Func.fresh_block ~hint:b.Block.hint f in
        (* p's path substitution plus fresh names for [b]'s definitions. *)
        let sigma =
          List.fold_left
            (fun acc v ->
              let hint = Func.var_hint f v in
              Value.Var_map.add v (Value.Var (Func.fresh_var ?hint f)) acc)
            (sigma_of st p) defs
        in
        let value = subst_value sigma in
        let rename v =
          match Value.Var_map.find_opt v sigma with Some (Value.Var x) -> x | _ -> v
        in
        copy.Block.phis <-
          List.filter_map
            (fun ((ph : Instr.phi), by_pred) ->
              Option.map
                (fun v -> { ph with Instr.dst = rename ph.dst; incoming = [ (p, value v) ] })
                (Hashtbl.find_opt by_pred p))
            indexed;
        copy.Block.instrs <-
          List.map (fun i -> Instr.map_def rename (Instr.map_values value i)) b.Block.instrs;
        copy.Block.term <- Instr.term_map_values value b.Block.term;
        Hashtbl.replace st.subst_of copy.Block.label sigma;
        Option.iter
          (fun (pb : Block.t) ->
            pb.Block.term <-
              Instr.term_map_labels
                (fun l -> if l = b_label then copy.Block.label else l)
                pb.Block.term)
          (Func.find_block f p);
        (copy.Block.label, sigma))
      preds
  in
  (* In each successor phi the original's entry gives way to one entry
     per copy, carrying the copy's full path substitution. *)
  List.iter
    (fun s ->
      Option.iter
        (fun (sb : Block.t) ->
          sb.Block.phis <-
            List.map
              (fun (sp : Instr.phi) ->
                match List.assoc_opt b_label sp.incoming with
                | None -> sp
                | Some v ->
                  let kept = List.filter (fun (l, _) -> l <> b_label) sp.incoming in
                  let added = List.map (fun (c, sigma) -> (c, subst_value sigma v)) copies in
                  { sp with incoming = kept @ added })
              sb.Block.phis)
        (Func.find_block f s))
    (Block.successors b);
  Func.remove_block f b_label;
  List.map fst copies

(* Duplicate a whole nested loop for entry predecessor [p]: its blocks are
   cloned as a unit (back edges stay internal to the copy), the copy's
   header phis keep only [p]'s entries plus the remapped latch entries,
   and exit-target phis gain entries for the copy's exiting blocks. *)
let duplicate_loop_for_pred st f (loop : Loops.loop) p =
  let sigma_p = sigma_of st p in
  let region = Value.Label_set.elements loop.blocks in
  let m = Clone.clone_region f region in
  let sigma_c =
    Value.Var_map.fold
      (fun orig fresh acc -> Value.Var_map.add orig (Value.Var fresh) acc)
      m.Clone.var_map sigma_p
  in
  let copy_header = Clone.map_label m loop.header in
  List.iter
    (fun l ->
      let cl = Clone.map_label m l in
      Hashtbl.replace st.subst_of cl sigma_c;
      (* Rewrite references to values defined upstream of the loop. *)
      let b = Func.block f cl in
      b.Block.phis <-
        List.map
          (fun (ph : Instr.phi) ->
            { ph with
              incoming = List.map (fun (pr, v) -> (pr, subst_value sigma_p v)) ph.incoming
            })
          b.Block.phis;
      b.Block.instrs <- List.map (Instr.map_values (subst_value sigma_p)) b.Block.instrs;
      b.Block.term <- Instr.term_map_values (subst_value sigma_p) b.Block.term)
    region;
  (* The copy's header is entered only from [p]: keep p's entries and the
     (already remapped) latch entries. *)
  let copy_latches = List.map (Clone.map_label m) loop.latches in
  let hb = Func.block f copy_header in
  hb.Block.phis <-
    List.filter_map
      (fun (ph : Instr.phi) ->
        let kept =
          List.filter (fun (pr, _) -> pr = p || List.mem pr copy_latches) ph.incoming
        in
        match kept with [] -> None | _ :: _ -> Some { ph with incoming = kept })
      hb.Block.phis;
  (* Exit-target phis gain entries for the copy's exiting blocks. *)
  List.iter
    (fun (e, s) ->
      match Func.find_block f s with
      | None -> ()
      | Some sb ->
        let ce = Clone.map_label m e in
        sb.Block.phis <-
          List.map
            (fun (sp : Instr.phi) ->
              match List.assoc_opt e sp.incoming with
              | Some v ->
                { sp with incoming = sp.incoming @ [ (ce, subst_value sigma_c v) ] }
              | None -> sp)
            sb.Block.phis)
    loop.exits;
  (* Retarget p's entry edge. *)
  (match Func.find_block f p with
  | Some pb ->
    pb.Block.term <-
      Instr.term_map_labels
        (fun l -> if l = loop.header then copy_header else l)
        pb.Block.term
  | None -> ());
  List.map (Clone.map_label m) region

(* Every entry edge now leads to a copy, so the original loop is dead:
   delete its blocks and the phi entries they fed. *)
let remove_loop f (loop : Loops.loop) =
  Value.Label_set.iter
    (fun l ->
      Option.iter
        (fun b ->
          List.iter
            (fun s -> Option.iter (Block.remove_incoming l) (Func.find_block f s))
            (Block.successors b);
          Func.remove_block f l)
        (Func.find_block f l))
    loop.blocks

(* Merges must be processed topmost-first: when a merge M is duplicated,
   every block that can reach M must already be merge-free, so M's
   predecessors carry complete path substitutions and M's copies are never
   revisited (re-duplicating a copy would need substitution composition).
   Each round therefore processes the "frontier" — candidates not
   reachable from any other candidate. Processing a frontier merge only
   creates new merges strictly below it, which cannot sit above another
   frontier member, so the whole frontier is processed per round with one
   CFG/loop analysis. Only nested loops can be loop candidates, and
   duplicating plain blocks never creates a cycle, so once no nested-loop
   header is left in the region the later rounds skip the loop analysis. *)
let unmerge_region ?(selective = false) f ~region ~budget =
  let region = ref region in
  let st = { created = 0; budget; exhausted = false; subst_of = Hashtbl.create 32 } in
  let changed = ref false in
  let continue_ = ref true in
  let nested = ref true in
  while !continue_ && not st.exhausted do
    continue_ := false;
    let preds = Cfg.predecessors f in
    let loop_of_header = Hashtbl.create 7 in
    if !nested then begin
      let loops = Loops.loops (Loops.analyze f) in
      List.iter (fun (l : Loops.loop) -> Hashtbl.replace loop_of_header l.header l) loops;
      nested :=
        List.exists (fun (l : Loops.loop) -> Value.Label_set.mem l.header !region) loops
    end;
    let preds_of l = match Hashtbl.find_opt preds l with Some ps -> ps | None -> [] in
    (* A candidate is either a plain merge block, or a nested-loop header
       with several entry edges from outside its loop. *)
    let classify l =
      if not (Value.Label_set.mem l !region) then None
      else
        match Hashtbl.find_opt loop_of_header l with
        | Some loop -> (
          let outside =
            List.filter
              (fun p -> not (Value.Label_set.mem p loop.Loops.blocks))
              (preds_of l)
          in
          match outside with
          | _ :: _ :: _ -> Some (`Loop (loop, outside))
          | [] | [ _ ] -> None)
        | None -> (
          (* Selective mode (paper SVI future work): phi-less merges are
             not duplicated for their own sake — unless a predecessor
             already carries a substitution, in which case duplication is
             forced: the merge references definitions that upstream
             duplication has renamed away. Forcing keeps the cascade's
             soundness; the frontier ordering still holds because the
             reachability marking walks through skipped merges. *)
          let skip =
            selective
            && (match Func.find_block f l with
               | Some b -> b.Block.phis = []
               | None -> true)
            && List.for_all
                 (fun p -> Value.Var_map.is_empty (sigma_of st p))
                 (preds_of l)
          in
          if skip then None
          else
            match preds_of l with
            | _ :: _ :: _ as ps -> Some (`Block ps)
            | [] | [ _ ] -> None)
    in
    let rpo = Cfg.reverse_postorder f in
    let candidates = List.filter_map (fun l -> Option.map (fun c -> (l, c)) (classify l)) rpo in
    (* Mark everything reachable from a candidate's out-edges; candidates
       so marked are below another candidate and must wait. A loop
       candidate's out-edges are its exit edges (its interior belongs to
       it and is removed wholesale when it is processed). *)
    let downstream = Hashtbl.create 64 in
    (* Reachability is confined to the region: leaving it (through the
       target loop's header or an exit) cannot re-enter except through the
       header, which is not part of the region. Without this restriction
       the walk would follow back edges and mark every candidate as its
       own descendant. *)
    let rec mark l =
      if Value.Label_set.mem l !region && not (Hashtbl.mem downstream l) then begin
        Hashtbl.replace downstream l ();
        match Func.find_block f l with
        | Some b -> List.iter mark (Block.successors b)
        | None -> ()
      end
    in
    List.iter
      (fun (l, c) ->
        match c with
        | `Block _ -> (
          match Func.find_block f l with
          | Some b -> List.iter mark (Block.successors b)
          | None -> ())
        | `Loop (loop, _) -> List.iter (fun (_, s) -> mark s) loop.Loops.exits)
      candidates;
    let frontier = List.filter (fun (l, _) -> not (Hashtbl.mem downstream l)) candidates in
    List.iter
      (fun (b_label, c) ->
        (* A frontier loop processed earlier in this round may have
           swallowed this candidate (nested header inside it). *)
        if (not st.exhausted) && Value.Label_set.mem b_label !region
           && Func.find_block f b_label <> None
        then
          match c with
          | `Block ps ->
            if st.created + List.length ps > st.budget then st.exhausted <- true
            else begin
              (* Every predecessor gets a private copy; the original dies. *)
              let copies = duplicate_merge st f b_label ps in
              region :=
                List.fold_left
                  (fun r c -> Value.Label_set.add c r)
                  (Value.Label_set.remove b_label !region)
                  copies;
              st.created <- st.created + List.length ps;
              changed := true;
              continue_ := true
            end
          | `Loop (loop, outside) ->
            let size = Value.Label_set.cardinal loop.Loops.blocks in
            if st.created + (List.length outside * size) > st.budget then
              st.exhausted <- true
            else begin
              List.iter
                (fun p ->
                  let copies = duplicate_loop_for_pred st f loop p in
                  List.iter (fun cp -> region := Value.Label_set.add cp !region) copies;
                  Statistic.incr stat_loops;
                  st.created <- st.created + size)
                outside;
              remove_loop f loop;
              Value.Label_set.iter
                (fun l -> region := Value.Label_set.remove l !region)
                loop.Loops.blocks;
              changed := true;
              continue_ := true
            end)
      frontier
  done;
  if !changed && not st.exhausted then ignore (Cfg.remove_unreachable f);
  if st.created > 0 then Statistic.incr ~by:st.created stat_paths;
  if st.exhausted then begin
    Statistic.incr stat_budget;
    Remark.missed ~pass:"unmerge" ~func:f.Func.name
      ~args:
        [ ("duplicated", Remark.Int st.created); ("budget", Remark.Int st.budget) ]
      "duplication budget exhausted; transform will be rolled back"
  end
  else if !changed then
    Remark.applied ~pass:"unmerge" ~func:f.Func.name
      ~args:[ ("duplicated", Remark.Int st.created) ]
      "tail-duplicated every merge point in the region; each path is now \
       straight-line code";
  { changed = !changed; duplicated_blocks = st.created; budget_exhausted = st.exhausted }

let loop_region f ~header =
  (* Canonicalize first: unmerging duplicates exit paths, so values that
     escape the loop must already flow through LCSSA phis in dedicated
     exit blocks. *)
  match Uu_opt.Loop_utils.canonicalize f header with
  | Some (loop, _) -> Some (Value.Label_set.remove header loop.blocks)
  | None -> None

let unmerge_loop ?selective f ~header ~budget =
  match loop_region f ~header with
  | None -> { changed = false; duplicated_blocks = 0; budget_exhausted = false }
  | Some region -> unmerge_region ?selective f ~region ~budget

(* One-level duplication is only sound for a merge whose definitions do
   not escape past its successors' phis: without the cascade there is
   nobody to repair downstream references once the original is removed. *)
let defs_escape f b_label =
  match Func.find_block f b_label with
  | None -> true
  | Some b ->
    let defs = Value.Var_set.of_list (Block.defs b) in
    if Value.Var_set.is_empty defs then false
    else begin
      let succs = Block.successors b in
      let escapes = ref false in
      Func.iter_blocks
        (fun blk ->
          let l = blk.Block.label in
          if l <> b_label then begin
            List.iter
              (fun (p : Instr.phi) ->
                List.iter
                  (fun (pred, v) ->
                    match v with
                    | Value.Var x
                      when Value.Var_set.mem x defs
                           && not (pred = b_label && List.mem l succs) ->
                      escapes := true
                    | _ -> ())
                  p.incoming)
              blk.Block.phis;
            List.iter
              (fun i ->
                List.iter
                  (fun v ->
                    match v with
                    | Value.Var x when Value.Var_set.mem x defs -> escapes := true
                    | _ -> ())
                  (Instr.uses i))
              blk.Block.instrs;
            List.iter
              (fun v ->
                match v with
                | Value.Var x when Value.Var_set.mem x defs -> escapes := true
                | _ -> ())
              (Instr.term_uses blk.Block.term)
          end)
        f;
      !escapes
    end

let dbds_unmerge_loop f ~header ~budget =
  (* One level only: duplicate merge blocks present at entry, without
     cascading into the copies (dominance-based duplication simulation,
     §II-d). The per-copy substitution machinery still applies because a
     merge's predecessor may be another original block. *)
  match loop_region f ~header with
  | None -> { changed = false; duplicated_blocks = 0; budget_exhausted = false }
  | Some region ->
    let header_set =
      List.fold_left
        (fun acc (l : Loops.loop) -> Value.Label_set.add l.header acc)
        Value.Label_set.empty
        (Loops.loops (Loops.analyze f))
    in
    let st = { created = 0; budget; exhausted = false; subst_of = Hashtbl.create 8 } in
    let changed = ref false in
    let initial_merges =
      let preds = Cfg.predecessors f in
      List.filter
        (fun l ->
          Value.Label_set.mem l region
          && (not (Value.Label_set.mem l header_set))
          &&
          match Hashtbl.find_opt preds l with
          | Some (_ :: _ :: _) -> true
          | Some ([] | [ _ ]) | None -> false)
        (Cfg.reverse_postorder f)
    in
    List.iter
      (fun b_label ->
        (* Predecessors recomputed per merge: an earlier duplication may
           have replaced a predecessor with its copies. *)
        let ps = Cfg.preds_of f b_label in
        if st.created + List.length ps > st.budget then st.exhausted <- true
        else if (not st.exhausted) && not (defs_escape f b_label) then begin
          ignore (duplicate_merge st f b_label ps);
          st.created <- st.created + List.length ps;
          changed := true
        end)
      initial_merges;
    { changed = !changed; duplicated_blocks = st.created; budget_exhausted = st.exhausted }
