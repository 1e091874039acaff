open Uu_support
open Uu_ir
open Uu_analysis

let stat_unrolled = Statistic.counter "unroll.loops_unrolled"
let stat_full = Statistic.counter "unroll.loops_fully_unrolled"

(* Fix the phis of clone [i]'s header: its only predecessors are the
   latches of copy [i-1], and the values flowing in are copy [i-1]'s
   versions of the original latch values. *)
let fix_clone_header_phis f (loop : Loops.loop) ~orig_header ~prev_map ~cur_map =
  let map_label m l =
    match m with None -> l | Some m -> Clone.map_label m l
  in
  let map_value m v =
    match m with None -> v | Some m -> Clone.map_value m v
  in
  let orig = Func.block f orig_header in
  let clone_header = map_label cur_map orig_header in
  let hb = Func.block f clone_header in
  let orig_phis = orig.Block.phis in
  hb.Block.phis <-
    List.map2
      (fun (op : Instr.phi) (cp : Instr.phi) ->
        let latch_entries =
          List.filter_map
            (fun (l, v) ->
              if List.mem l loop.latches then
                Some (map_label prev_map l, map_value prev_map v)
              else None)
            op.incoming
        in
        { cp with incoming = latch_entries })
      orig_phis hb.Block.phis

let unroll_loop ?(exact = false) f ~header ~factor =
  if factor < 2 then false
  else
    match Loop_utils.canonicalize f header with
    | None ->
      Remark.missed ~pass:"unroll" ~func:f.Func.name ~block:header
        "loop could not be canonicalized (no preheader/dedicated exits)";
      false
    | Some (loop, _) ->
      if Loops.contains_convergent f loop then begin
        Remark.missed ~pass:"unroll" ~func:f.Func.name ~block:header
          "loop contains a convergent operation (syncthreads); unrolling \
           would break reconvergence";
        false
      end
      else begin
        let region = Value.Label_set.elements loop.blocks in
        let exit_targets = List.sort_uniq compare (List.map snd loop.exits) in
        (* Clone u-1 copies. maps.(0) = None is the original. *)
        let maps =
          Array.init factor (fun i ->
            if i = 0 then None else Some (Clone.clone_region f region))
        in
        let header_of i =
          match maps.(i) with None -> header | Some m -> Clone.map_label m header
        in
        (* Chain the copies: latches of copy i -> header of copy i+1. *)
        for i = 0 to factor - 1 do
          let next_header = header_of ((i + 1) mod factor) in
          let own_header = header_of i in
          List.iter
            (fun latch ->
              let latch_i =
                match maps.(i) with
                | None -> latch
                | Some m -> Clone.map_label m latch
              in
              let lb = Func.block f latch_i in
              lb.Block.term <-
                Instr.term_map_labels
                  (fun l -> if l = own_header then next_header else l)
                  lb.Block.term)
            loop.latches
        done;
        (* Headers of copies 1..u-1 receive control only from the previous
           copy's latches. *)
        for i = 1 to factor - 1 do
          fix_clone_header_phis f loop ~orig_header:header ~prev_map:maps.(i - 1)
            ~cur_map:maps.(i)
        done;
        (* The original header's latch entries now come from the last copy. *)
        let last = maps.(factor - 1) in
        let hb = Func.block f header in
        hb.Block.phis <-
          List.map
            (fun (p : Instr.phi) ->
              { p with
                incoming =
                  List.map
                    (fun (l, v) ->
                      if List.mem l loop.latches then
                        match last with
                        | None -> (l, v)
                        | Some m -> (Clone.map_label m l, Clone.map_value m v)
                      else (l, v))
                    p.incoming
              })
            hb.Block.phis;
        (* Exit-target phis: each exiting block now has u copies reaching
           the same dedicated exit; add entries for the new edges. *)
        List.iter
          (fun ex ->
            let exb = Func.block f ex in
            exb.Block.phis <-
              List.map
                (fun (p : Instr.phi) ->
                  let extra =
                    List.concat_map
                      (fun (l, v) ->
                        if Value.Label_set.mem l loop.blocks then
                          List.filter_map
                            (fun m ->
                              match m with
                              | None -> None
                              | Some m ->
                                Some (Clone.map_label m l, Clone.map_value m v))
                            (Array.to_list maps)
                        else [])
                      p.incoming
                  in
                  { p with incoming = p.incoming @ extra })
                exb.Block.phis)
          exit_targets;
        (* Exact trip count equal to the factor: the back edge is never
           taken, so redirect the last copy's latches straight to the
           header's exit successor and drop the (now dead) latch entries
           from the original header's phis — the unrolled chain then
           constant-folds into straight-line code. *)
        if exact then begin
          let hb = Func.block f header in
          let exit_succ =
            List.find_opt
              (fun s -> not (Value.Label_set.mem s loop.blocks))
              (Block.successors hb)
          in
          match exit_succ with
          | None -> ()
          | Some e ->
            let last_latches =
              List.map
                (fun l ->
                  match last with None -> l | Some m -> Clone.map_label m l)
                loop.latches
            in
            (* Exit phi entries for the redirected edges: the value that
               the header phi would have carried from that latch. *)
            let eb = Func.block f e in
            eb.Block.phis <-
              List.map
                (fun (p : Instr.phi) ->
                  match List.assoc_opt header p.incoming with
                  | None -> p
                  | Some v ->
                    let value_from latch =
                      match v with
                      | Value.Var x -> (
                        match
                          List.find_opt
                            (fun (hp : Instr.phi) -> hp.dst = x)
                            hb.Block.phis
                        with
                        | Some hp -> (
                          match List.assoc_opt latch hp.incoming with
                          | Some v' -> v'
                          | None -> v)
                        | None -> v)
                      | Value.Imm_int _ | Value.Imm_float _ | Value.Undef _ -> v
                    in
                    { p with
                      incoming =
                        p.incoming @ List.map (fun l -> (l, value_from l)) last_latches
                    })
                eb.Block.phis;
            List.iter
              (fun ll ->
                let lb = Func.block f ll in
                lb.Block.term <-
                  Instr.term_map_labels
                    (fun l -> if l = header then e else l)
                    lb.Block.term)
              last_latches;
            hb.Block.phis <-
              List.map
                (fun (p : Instr.phi) ->
                  { p with
                    incoming =
                      List.filter
                        (fun (l, _) -> not (List.mem l last_latches))
                        p.incoming
                  })
                hb.Block.phis
        end;
        Statistic.incr stat_unrolled;
        Remark.applied ~pass:"unroll" ~func:f.Func.name ~block:header
          ~args:[ ("factor", Remark.Int factor); ("exact", Remark.Bool exact) ]
          "unrolled loop by whole-body cloning";
        true
      end

let baseline_full_unroll ?(max_trip = 16) ?(size_budget = 320) () =
  let run f =
    let changed = ref false in
    let continue = ref true in
    (* Re-analyze after each unroll; innermost loops first. *)
    while !continue do
      continue := false;
      let forest = Loops.analyze f in
      let candidate =
        List.find_opt
          (fun (l : Loops.loop) ->
            (not (Hashtbl.mem f.Func.pragmas l.header))
            &&
            match Trip_count.constant_trip_count f l with
            | Some n ->
              n >= 2 && n <= max_trip
              && n * Cost_model.loop_size f l <= size_budget
            | None -> false)
          (Loops.innermost_first forest)
      in
      match candidate with
      | Some l ->
        let n =
          match Trip_count.constant_trip_count f l with
          | Some n -> n
          | None -> assert false
        in
        if unroll_loop ~exact:true f ~header:l.header ~factor:n then begin
          Hashtbl.replace f.Func.pragmas l.header Func.Pragma_nounroll;
          Statistic.incr stat_full;
          Remark.applied ~pass:"full-unroll" ~func:f.Func.name ~block:l.header
            ~args:[ ("trip_count", Remark.Int n) ]
            "constant-trip-count loop fully unrolled; back edge eliminated";
          changed := true;
          continue := true
        end
        else Hashtbl.replace f.Func.pragmas l.header Func.Pragma_nounroll
      | None -> ()
    done;
    !changed
  in
  { Pass.name = "full-unroll"; run }

let unroll_only_pass ~factor ~headers =
  let run f =
    let forest = Loops.analyze f in
    let selected =
      match headers with
      | [] -> List.map (fun (l : Loops.loop) -> l.header) (Loops.innermost_first forest)
      | hs -> hs
    in
    List.fold_left
      (fun changed h ->
        let c = unroll_loop f ~header:h ~factor in
        if c then Hashtbl.replace f.Func.pragmas h Func.Pragma_nounroll;
        c || changed)
      false selected
  in
  { Pass.name = Printf.sprintf "unroll-x%d" factor; run }
