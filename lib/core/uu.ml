open Uu_support
open Uu_ir
open Uu_analysis

let stat_transformed = Statistic.counter "uu.loops_transformed"
let stat_budget = Statistic.counter "uu.budget_exhausted"
let stat_accepted = Statistic.counter "uu.heuristic_accepted"
let stat_rejected = Statistic.counter "uu.heuristic_rejected"

type outcome = {
  applied : bool;
  edited : bool;
  factor : int;
  duplicated_blocks : int;
  budget_exhausted : bool;
}

let default_block_budget = 16384

let no_outcome =
  { applied = false; edited = false; factor = 1; duplicated_blocks = 0; budget_exhausted = false }

let find_loop f header =
  List.find_opt (fun (l : Loops.loop) -> l.header = header)
    (Loops.loops (Loops.analyze f))

let uu_loop ?(budget = default_block_budget) ?(selective = false)
    ?(unroll_nested = false) f ~header ~factor =
  match find_loop f header with
  | None -> no_outcome
  | Some loop ->
    if Loops.contains_convergent f loop then no_outcome
    else begin
      (* Unmerging is not valid to stop halfway, so the whole transform is
         transactional: exhausting the duplication budget rolls the
         function back (the paper's compile-timeout analogue). *)
      let snapshot = Func.copy f in
      (* By default only the target loop is unrolled and inner loops are
         only unmerged (SIII-C); the configuration option also unrolls the
         nest, innermost first. *)
      if unroll_nested && factor >= 2 then begin
        let inner_headers =
          List.filter_map
            (fun (l : Loops.loop) ->
              if l.header <> header && Value.Label_set.mem l.header loop.Loops.blocks
              then Some l.header
              else None)
            (Loops.innermost_first (Loops.analyze f))
        in
        (* The target loop is unrolled below whenever these are, so its
           outcome covers their edits. *)
        List.iter
          (fun h -> ignore (Uu_opt.Unroll.unroll_loop f ~header:h ~factor))
          inner_headers
      end;
      let unroll =
        if factor >= 2 then Uu_opt.Unroll.unroll_loop f ~header ~factor
        else { Uu_opt.Unroll.unrolled = false; edited = false }
      in
      let unrolled = unroll.unrolled in
      (* After unrolling, the natural loop of [header] spans all copies
         (the back edge now comes from the last copy's latches). *)
      let um = Unmerge.unmerge_loop ~selective f ~header ~budget in
      if um.Unmerge.budget_exhausted then begin
        Func.restore f ~from_:snapshot;
        Statistic.incr stat_budget;
        Remark.missed ~pass:"unroll-and-unmerge" ~func:f.Func.name ~block:header
          ~args:[ ("factor", Remark.Int factor); ("budget", Remark.Int budget) ]
          "unmerge exceeded the duplication budget; function rolled back \
           (compile-timeout analogue)";
        { no_outcome with budget_exhausted = true }
      end
      else begin
        let applied = unrolled || um.Unmerge.changed in
        if applied then begin
          Hashtbl.replace f.Func.pragmas header Func.Pragma_nounroll;
          Statistic.incr stat_transformed;
          Remark.applied ~pass:"unroll-and-unmerge" ~func:f.Func.name
            ~block:header
            ~args:
              [
                ("factor", Remark.Int (if unrolled then factor else 1));
                ("duplicated_blocks", Remark.Int um.Unmerge.duplicated_blocks);
              ]
            "loop unrolled and unmerged; every branch outcome is known on \
             each duplicated path"
        end;
        {
          applied;
          edited = unroll.edited || um.Unmerge.edited;
          factor = (if unrolled then factor else 1);
          duplicated_blocks = um.Unmerge.duplicated_blocks;
          budget_exhausted = false;
        }
      end
    end

type heuristic_params = {
  c : int;
  u_max : int;
  avoid_divergent : bool;
}

let default_params = { c = 1024; u_max = 8; avoid_divergent = false }

let plan_heuristic f params =
  let forest = Loops.analyze f in
  let div = if params.avoid_divergent then Some (Divergence.analyze f) else None in
  let transformed = ref Value.Label_set.empty in
  let descendant_transformed (l : Loops.loop) =
    let rec any_child ids =
      List.exists
        (fun id ->
          match Loops.find forest id with
          | Some c ->
            Value.Label_set.mem c.header !transformed || any_child c.children
          | None -> false)
        ids
    in
    any_child l.children
  in
  let missed (l : Loops.loop) ?args msg =
    Remark.missed ~pass:"uu-heuristic" ~func:f.Func.name ~block:l.header ?args msg
  in
  List.filter_map
    (fun (l : Loops.loop) ->
      if Hashtbl.mem f.Func.pragmas l.header then begin
        missed l "loop carries a no-unroll pragma (already transformed or \
                  annotated)";
        None
      end
      else if Loops.contains_convergent f l then begin
        missed l
          "loop contains a convergent operation (syncthreads); u&u would \
           break reconvergence (§III-C)";
        None
      end
      else if descendant_transformed l then begin
        missed l "an inner loop of this nest was already transformed (§III-C \
                  innermost-first rule)";
        None
      end
      else if
        match div with
        | Some d -> Divergence.loop_has_divergent_branch d f l
        | None -> false
      then begin
        missed l "loop has a thread-divergent branch and divergence \
                  avoidance is enabled (§V extension)";
        None
      end
      else begin
        let s = Cost_model.loop_size f l in
        let p = Cost_model.path_count f l in
        match Cost_model.choose_unroll_factor ~p ~s ~c:params.c ~u_max:params.u_max with
        | Some u ->
          transformed := Value.Label_set.add l.header !transformed;
          Statistic.incr stat_accepted;
          Remark.applied ~pass:"uu-heuristic" ~func:f.Func.name ~block:l.header
            ~args:
              [
                ("p", Remark.Int p);
                ("s", Remark.Int s);
                ("u", Remark.Int u);
                ("c", Remark.Int params.c);
                ("cost", Remark.Int (Cost_model.duplicated_size ~p ~s ~u));
              ]
            "largest factor with f(p,s,u) < c selected; loop scheduled for \
             unroll-and-unmerge";
          Some (l.header, u)
        | None ->
          Statistic.incr stat_rejected;
          missed l
            ~args:
              [
                ("p", Remark.Int p);
                ("s", Remark.Int s);
                ("u", Remark.Int params.u_max);
                ("c", Remark.Int params.c);
                ( "cost",
                  Remark.Int (Cost_model.duplicated_size ~p ~s ~u:2) );
              ]
            "f(p,s,u) ≥ c for every factor 2..u_max; duplication would \
             exceed the size bound";
          None
      end)
    (Loops.innermost_first forest)

let uu_pass ?budget ~headers () =
  let run f =
    List.fold_left
      (fun changed (header, factor) ->
        let o = uu_loop ?budget f ~header ~factor in
        o.edited || changed)
      false headers
  in
  { Uu_opt.Pass.name = "unroll-and-unmerge"; run }

let heuristic_pass ?budget params =
  let run f =
    let plan = plan_heuristic f params in
    List.fold_left
      (fun changed (header, factor) ->
        let o = uu_loop ?budget f ~header ~factor in
        o.edited || changed)
      false plan
  in
  { Uu_opt.Pass.name = "uu-heuristic"; run }
