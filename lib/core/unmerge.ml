open Uu_support
open Uu_ir
open Uu_analysis

let stat_paths = Statistic.counter "unmerge.paths_duplicated"
let stat_loops = Statistic.counter "unmerge.loops_duplicated"
let stat_budget = Statistic.counter "unmerge.budget_exhausted"

type outcome = {
  changed : bool;
  edited : bool;
  duplicated_blocks : int;
  budget_exhausted : bool;
}

(* Tail duplication must be path-sensitive: when block [b] is duplicated
   for a predecessor [p] that is itself a copy, [b]'s operands that name
   definitions upstream of [p]'s original must be rewritten to the
   versions on [p]'s path. Each copy therefore carries a substitution from
   original registers to its path's registers, accumulated along the
   duplication cascade: [substs] maps the label of a copy to it. *)
type substs = (Value.label, Value.t Value.Var_map.t) Hashtbl.t

let subst_value sigma v =
  match v with
  | Value.Var x -> (
    match Value.Var_map.find_opt x sigma with Some v' -> v' | None -> v)
  | Value.Imm_int _ | Value.Imm_float _ | Value.Undef _ -> v

let sigma_of (substs : substs) l =
  match Hashtbl.find_opt substs l with
  | Some s -> s
  | None -> Value.Var_map.empty

(* Duplicate merge [b] once for every predecessor in [preds], in order,
   retargeting each predecessor to its private copy, and delete [b]. Each
   phi's incoming list is indexed once, so every copy's phis are built
   already collapsed to its one predecessor, and each successor's phis
   are rewritten once for the whole merge: the cost is proportional to
   the copies created, not to copies x predecessors. Fresh labels and
   registers are allocated copy by copy: the block, then its phi
   definitions, then its instruction definitions. *)
let duplicate_merge substs f b_label preds =
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
            (sigma_of substs p) defs
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
        Func.set_term f copy (Instr.term_map_values value b.Block.term);
        Hashtbl.replace substs copy.Block.label sigma;
        Option.iter
          (fun (pb : Block.t) ->
            Func.set_term f pb
              (Instr.term_map_labels
                 (fun l -> if l = b_label then copy.Block.label else l)
                 pb.Block.term))
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
  Func.remove_block f b_label

(* Duplicate a whole nested loop for entry predecessor [p]: its blocks are
   cloned as a unit (back edges stay internal to the copy), the copy's
   header phis keep only [p]'s entries plus the remapped latch entries,
   and exit-target phis gain entries for the copy's exiting blocks. *)
let duplicate_loop_for_pred substs f (loop : Loops.loop) p =
  let sigma_p = sigma_of substs p in
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
      Hashtbl.replace substs cl sigma_c;
      (* Rewrite references to values defined upstream of the loop. *)
      Block.map_values (subst_value sigma_p) (Func.block f cl))
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
  match Func.find_block f p with
  | Some pb ->
    Func.set_term f pb
      (Instr.term_map_labels
         (fun l -> if l = loop.header then copy_header else l)
         pb.Block.term)
  | None -> ()

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

(* The plan. Merges must be duplicated topmost-first: when a merge M is
   duplicated, every block that can reach M must already be merge-free,
   so M's predecessors carry complete path substitutions and M's copies
   are never revisited (re-duplicating a copy would need substitution
   composition). Each round therefore takes the "frontier": candidates
   not reachable from any other candidate.

   The rounds run on the region's original blocks, grouped into units: a
   plain block, or an outermost nested loop, which is duplicated whole
   (loop headers are never duplicated on their own). A unit is either
   untouched or replaced by its copies, one per predecessor entry it had
   when duplicated; every copy has the unit's successors, so a unit's
   predecessor entries number the sum of its predecessor units' copy
   counts (an exit target gets one entry per loop copy for each distinct
   exiting block). Nothing else about a copy matters to the rounds except
   whether its path substitution is empty, which [selective] reads.

   The copies never become candidates: each has one predecessor entry,
   and everything upstream of a duplicated unit is settled (had it a
   candidate, the unit would not have been on the frontier). So the
   candidates of a round are untouched units, and they are taken in the
   function's original reverse postorder: duplicating a merge keeps the
   relative DFS order of every other block, since the copy for the
   DFS-first predecessor takes the merge's place and the others are
   leaves, and likewise a loop's first copy takes the loop's place. *)
type unit_info = {
  label : Value.label;  (** the block, or the loop's header *)
  loop : Loops.loop option;
  entries : int list;
      (** the predecessor unit of each predecessor entry ([-1]: outside
          the region); for a loop, only entries from outside it *)
  succs : int list;  (** distinct successor units inside the region *)
  skippable : bool;  (** a phi-less block: [selective] may skip it *)
  defines : bool;  (** copies rename definitions, so no copy's substitution is empty *)
  inner : bool;  (** a loop holding a candidate of its own *)
  inner_renamed : bool;
      (** a loop whose copies hold a candidate of their own when their
          substitution is not empty *)
}

type step = Merge of Value.label | Loop_copies of Loops.loop

type plan = {
  steps : step list;  (** in execution order; all fit the budget *)
  created : int;
  loop_copies : int;
  exhausted : bool;
}

let units ~selective f ~region =
  let preds_of = Cfg.preds_of f in
  let at = Hashtbl.create 64 in
  List.iteri (fun i l -> Hashtbl.replace at l i) (Cfg.reverse_postorder f);
  let loops = Loops.loops (Loops.analyze f) in
  let loop_of_header = Hashtbl.create 8 in
  List.iter (fun (l : Loops.loop) -> Hashtbl.replace loop_of_header l.header l) loops;
  let nested = List.filter (fun (l : Loops.loop) -> Value.Label_set.mem l.header region) loops in
  let outermost =
    List.filter
      (fun (l : Loops.loop) ->
        not
          (List.exists
             (fun (o : Loops.loop) -> o.header <> l.header && Value.Label_set.mem l.header o.blocks)
             nested))
      nested
  in
  let in_loops =
    List.fold_left (fun s (l : Loops.loop) -> Value.Label_set.union s l.blocks) Value.Label_set.empty
      outermost
  in
  let kinds =
    Array.of_list
      (List.map (fun (l : Loops.loop) -> (l.header, Some l)) outermost
      @ List.map (fun l -> (l, None))
          (Value.Label_set.elements (Value.Label_set.diff region in_loops)))
  in
  let unit_of = Hashtbl.create 64 in
  Array.iteri
    (fun u (l, loop) ->
      match loop with
      | None -> Hashtbl.replace unit_of l u
      | Some (loop : Loops.loop) ->
        Value.Label_set.iter (fun b -> Hashtbl.replace unit_of b u) loop.blocks)
    kinds;
  let unit_or_outside l = Option.value ~default:(-1) (Hashtbl.find_opt unit_of l) in
  let succ_units ls = List.sort_uniq Int.compare (List.filter_map (Hashtbl.find_opt unit_of) ls) in
  let merge l = List.compare_length_with (preds_of l) 2 >= 0 in
  let info (label, loop) =
    match loop with
    | None ->
      let b = Func.block f label in
      {
        label;
        loop;
        entries = List.map unit_or_outside (preds_of label);
        succs = succ_units (Block.successors b);
        skippable = b.Block.phis = [];
        defines = Block.defs b <> [];
        inner = false;
        inner_renamed = false;
      }
    | Some (loop : Loops.loop) ->
      (* An inner merge, or an inner header entered twice from outside
         its own loop, reaches itself through the back edge: it marks the
         loop and everything below it in every round. *)
      let inner, inner_renamed =
        Value.Label_set.fold
          (fun l (inner, renamed) ->
            if l = loop.header || not (Hashtbl.mem at l) then (inner, renamed)
            else
              match Hashtbl.find_opt loop_of_header l with
              | Some (nest : Loops.loop) ->
                let outside =
                  List.filter (fun p -> not (Value.Label_set.mem p nest.blocks)) (preds_of l)
                in
                (inner || List.compare_length_with outside 2 >= 0, renamed)
              | None ->
                if not (merge l) then (inner, renamed)
                else if (not selective) || (Func.block f l).Block.phis <> [] then (true, renamed)
                else (inner, true))
          loop.blocks (false, false)
      in
      {
        label;
        loop = Some loop;
        entries =
          List.filter_map
            (fun p ->
              if Value.Label_set.mem p loop.blocks then None else Some (unit_or_outside p))
            (preds_of label);
        succs = succ_units (List.map snd loop.exits);
        skippable = false;
        defines =
          Value.Label_set.exists (fun l -> Block.defs (Func.block f l) <> []) loop.blocks;
        inner;
        inner_renamed;
      }
  in
  let units = Array.map info kinds in
  (* Reachable units by reverse-postorder position of their block or header. *)
  let order =
    List.sort
      (fun a b -> Int.compare (Hashtbl.find at units.(a).label) (Hashtbl.find at units.(b).label))
      (List.filter (fun u -> Hashtbl.mem at units.(u).label) (List.init (Array.length units) Fun.id))
  in
  (units, order)

let plan ~selective f ~region ~budget =
  let units, order = units ~selective f ~region in
  let n = Array.length units in
  (* [copies.(u)]: 0 while untouched; [renamed.(u)]: copies whose path
     substitution is not empty. *)
  let copies = Array.make n 0 and renamed = Array.make n 0 in
  let count u = if u < 0 || copies.(u) = 0 then 1 else copies.(u) in
  let renamed_count u = if u < 0 then 0 else renamed.(u) in
  let steps = ref [] and created = ref 0 and loop_copies = ref 0 in
  let exhausted = ref false and progress = ref true in
  while !progress && not !exhausted do
    progress := false;
    let candidates =
      List.filter_map
        (fun u ->
          let info = units.(u) in
          let degree = List.fold_left (fun acc e -> acc + count e) 0 info.entries in
          let degree_renamed = List.fold_left (fun acc e -> acc + renamed_count e) 0 info.entries in
          (* Selective mode (paper SVI future work): phi-less merges are
             not duplicated for their own sake, unless a predecessor
             already carries a substitution, in which case duplication is
             forced: the merge references definitions that upstream
             duplication has renamed away. *)
          let skip = selective && info.skippable && degree_renamed = 0 in
          if copies.(u) = 0 && degree >= 2 && not skip then Some (u, degree, degree_renamed)
          else None)
        order
    in
    (* Mark everything a candidate reaches inside the region; candidates
       so marked are below another candidate and must wait. The walk goes
       through skipped merges and through copies alike. *)
    let marked = Array.make n false in
    let rec mark u =
      if not marked.(u) then begin
        marked.(u) <- true;
        List.iter mark units.(u).succs
      end
    in
    List.iter (fun (u, _, _) -> List.iter mark units.(u).succs) candidates;
    List.iter
      (fun u ->
        if units.(u).inner || (units.(u).inner_renamed && renamed.(u) > 0) then mark u)
      order;
    List.iter
      (fun (u, degree, degree_renamed) ->
        if (not !exhausted) && not marked.(u) then begin
          let info = units.(u) in
          let cost =
            match info.loop with
            | None -> degree
            | Some loop -> degree * Value.Label_set.cardinal loop.blocks
          in
          if !created + cost > budget then exhausted := true
          else begin
            copies.(u) <- degree;
            renamed.(u) <- (if info.defines then degree else degree_renamed);
            created := !created + cost;
            (match info.loop with
            | None -> steps := Merge info.label :: !steps
            | Some loop ->
              loop_copies := !loop_copies + degree;
              steps := Loop_copies loop :: !steps);
            progress := true
          end
        end)
      candidates
  done;
  { steps = List.rev !steps; created = !created; loop_copies = !loop_copies; exhausted = !exhausted }

(* Make the copies the plan counted, in its order: every predecessor of a
   merge gets a private copy and the original dies; a loop is copied once
   per entry from outside it. Copy labels are allocated in the sorted
   order of the predecessor lists the function keeps. *)
let execute f steps =
  let substs = Hashtbl.create 32 in
  List.iter
    (function
      | Merge b -> duplicate_merge substs f b (Cfg.preds_of f b)
      | Loop_copies loop ->
        let outside =
          List.filter
            (fun p -> not (Value.Label_set.mem p loop.Loops.blocks))
            (Cfg.preds_of f loop.header)
        in
        List.iter (duplicate_loop_for_pred substs f loop) outside;
        remove_loop f loop)
    steps

(* Duplicate every multi-predecessor non-header block of [region] until
   none remains, treating blocks created by duplication as part of the
   region, unless the budget (in created blocks) runs out first. A
   nested loop entered from several predecessors is duplicated whole.
   On exhaustion nothing is copied: the function is left untouched and
   [changed] is false, while [duplicated_blocks], the statistics and the
   [missed] remark report what the plan counted. *)
let unmerge_region ?(selective = false) f ~region ~budget =
  let p = plan ~selective f ~region ~budget in
  let changed = p.steps <> [] && not p.exhausted in
  if changed then begin
    execute f p.steps;
    ignore (Cfg.remove_unreachable f)
  end;
  if p.created > 0 then Statistic.incr ~by:p.created stat_paths;
  if p.loop_copies > 0 then Statistic.incr ~by:p.loop_copies stat_loops;
  if p.exhausted then begin
    Statistic.incr stat_budget;
    Remark.missed ~pass:"unmerge" ~func:f.Func.name
      ~args:[ ("duplicated", Remark.Int p.created); ("budget", Remark.Int budget) ]
      "duplication budget exhausted; transform will be rolled back"
  end
  else if changed then
    Remark.applied ~pass:"unmerge" ~func:f.Func.name
      ~args:[ ("duplicated", Remark.Int p.created) ]
      "tail-duplicated every merge point in the region; each path is now \
       straight-line code";
  { changed; edited = changed; duplicated_blocks = p.created; budget_exhausted = p.exhausted }

let untouched = { changed = false; edited = false; duplicated_blocks = 0; budget_exhausted = false }

(* The loop body minus its header, and whether canonicalizing edited.
   A loop with a convergent operation gets an empty region: a copy of a
   block holding a barrier would let the lanes of one warp reach
   different barriers (SIII-C). *)
let loop_region f ~header =
  (* Canonicalize first: unmerging duplicates exit paths, so values that
     escape the loop must already flow through LCSSA phis in dedicated
     exit blocks. *)
  match Uu_opt.Loop_utils.canonicalize f header with
  | Some { Uu_opt.Loop_utils.loop; edited; _ } ->
    if Loops.contains_convergent f loop then begin
      Remark.missed ~pass:"unmerge" ~func:f.Func.name ~block:header
        "loop contains a convergent operation (syncthreads); unmerging would \
         break reconvergence";
      Some (Value.Label_set.empty, edited)
    end
    else Some (Value.Label_set.remove header loop.blocks, edited)
  | None -> None

let unmerge_loop ?selective f ~header ~budget =
  match loop_region f ~header with
  | None -> untouched
  | Some (region, canonicalized) ->
    let o = unmerge_region ?selective f ~region ~budget in
    { o with edited = o.edited || canonicalized }

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
  | None -> untouched
  | Some (region, canonicalized) ->
    let header_set =
      List.fold_left
        (fun acc (l : Loops.loop) -> Value.Label_set.add l.header acc)
        Value.Label_set.empty
        (Loops.loops (Loops.analyze f))
    in
    let substs = Hashtbl.create 8 in
    let created = ref 0 and exhausted = ref false in
    let changed = ref false in
    let initial_merges =
      List.filter
        (fun l ->
          Value.Label_set.mem l region
          && (not (Value.Label_set.mem l header_set))
          &&
          match Cfg.preds_of f l with
          | _ :: _ :: _ -> true
          | [] | [ _ ] -> false)
        (Cfg.reverse_postorder f)
    in
    List.iter
      (fun b_label ->
        (* Predecessors read per merge: an earlier duplication may have
           replaced a predecessor with its copies. *)
        let ps = Cfg.preds_of f b_label in
        if !created + List.length ps > budget then exhausted := true
        else if (not !exhausted) && not (defs_escape f b_label) then begin
          duplicate_merge substs f b_label ps;
          created := !created + List.length ps;
          changed := true
        end)
      initial_merges;
    if !created > 0 then Statistic.incr ~by:!created stat_paths;
    {
      changed = !changed;
      edited = !changed || canonicalized;
      duplicated_blocks = !created;
      budget_exhausted = !exhausted;
    }
