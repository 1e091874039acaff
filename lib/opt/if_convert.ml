open Uu_support
open Uu_ir

let stat_diamonds = Statistic.counter "ifconvert.diamonds_converted"
let stat_triangles = Statistic.counter "ifconvert.triangles_converted"
let stat_selects = Statistic.counter "ifconvert.selects_created"

let speculatable b =
  b.Block.phis = []
  && List.for_all
       (fun i ->
         match i with
         | Instr.Load _ -> false
         | _ -> Instr.is_pure i)
       b.Block.instrs

let side_size b = List.fold_left (fun s i -> s + Instr.size_units i) 0 b.Block.instrs

(* Rewrite M's phis: entries from [t_lbl]/[f_lbl] collapse into one entry
   from [x] whose value is a select emitted at the end of X. *)
let collapse_phis f x cond m ~t_from ~f_from =
  let xb = Func.block f x in
  let mb = Func.block f m in
  mb.Block.phis <-
    List.map
      (fun (p : Instr.phi) ->
        let vt = List.assoc_opt t_from p.incoming in
        let vf = List.assoc_opt f_from p.incoming in
        match vt, vf with
        | Some vt, Some vf ->
          let value =
            if Value.equal vt vf then vt
            else begin
              Statistic.incr stat_selects;
              let dst = Func.fresh_var ~hint:"sel" f in
              xb.Block.instrs <-
                xb.Block.instrs
                @ [ Instr.Select { dst; ty = p.ty; cond; if_true = vt; if_false = vf } ];
              Value.Var dst
            end
          in
          let kept =
            List.filter (fun (l, _) -> l <> t_from && l <> f_from) p.incoming
          in
          { p with incoming = kept @ [ (x, value) ] }
        | _ -> p)
      mb.Block.phis

let try_convert f ~threshold preds x =
  let xb = Func.block f x in
  match xb.Block.term with
  | Instr.Cond_br { cond; if_true = t; if_false = fl } when t <> fl -> (
    let single_pred l =
      match Hashtbl.find_opt preds l with Some [ p ] -> p = x | _ -> false
    in
    let tb = Func.find_block f t and fb = Func.find_block f fl in
    match tb, fb with
    | Some tb, Some fb -> (
      let diamond =
        single_pred t && single_pred fl && speculatable tb && speculatable fb
        && side_size tb <= threshold
        && side_size fb <= threshold
        &&
        match tb.Block.term, fb.Block.term with
        | Instr.Br mt, Instr.Br mf -> mt = mf && mt <> x && mt <> t && mt <> fl
        | _, _ -> false
      in
      let triangle_t =
        (* X -> T -> M and X -> M (F = M). *)
        single_pred t && speculatable tb
        && side_size tb <= threshold
        &&
        match tb.Block.term with
        | Instr.Br mt -> mt = fl && mt <> x && mt <> t
        | _ -> false
      in
      let triangle_f =
        single_pred fl && speculatable fb
        && side_size fb <= threshold
        &&
        match fb.Block.term with
        | Instr.Br mf -> mf = t && mf <> x && mf <> fl
        | _ -> false
      in
      if diamond then begin
        let m = match tb.Block.term with Instr.Br m -> m | _ -> assert false in
        Cfg.set_term preds xb (Instr.Br m);
        xb.Block.instrs <- xb.Block.instrs @ tb.Block.instrs @ fb.Block.instrs;
        collapse_phis f x cond m ~t_from:t ~f_from:fl;
        Cfg.set_term preds tb Instr.Unreachable;
        Cfg.set_term preds fb Instr.Unreachable;
        Func.remove_block f t;
        Func.remove_block f fl;
        Statistic.incr stat_diamonds;
        Remark.applied ~pass:"if-convert" ~func:f.Func.name ~block:x
          ~args:[ ("shape", Remark.Str "diamond") ]
          "speculated both sides of a branch and predicated the join with \
           selects";
        true
      end
      else if triangle_t then begin
        let m = fl in
        Cfg.set_term preds xb (Instr.Br m);
        xb.Block.instrs <- xb.Block.instrs @ tb.Block.instrs;
        collapse_phis f x cond m ~t_from:t ~f_from:x;
        Cfg.set_term preds tb Instr.Unreachable;
        Func.remove_block f t;
        Statistic.incr stat_triangles;
        Remark.applied ~pass:"if-convert" ~func:f.Func.name ~block:x
          ~args:[ ("shape", Remark.Str "triangle") ]
          "speculated the taken side of a branch and predicated the join \
           with selects";
        true
      end
      else if triangle_f then begin
        let m = t in
        Cfg.set_term preds xb (Instr.Br m);
        xb.Block.instrs <- xb.Block.instrs @ fb.Block.instrs;
        collapse_phis f x cond m ~t_from:x ~f_from:fl;
        Cfg.set_term preds fb Instr.Unreachable;
        Func.remove_block f fl;
        Statistic.incr stat_triangles;
        Remark.applied ~pass:"if-convert" ~func:f.Func.name ~block:x
          ~args:[ ("shape", Remark.Str "triangle") ]
          "speculated the not-taken side of a branch and predicated the \
           join with selects";
        true
      end
      else false)
    | _, _ -> false)
  | Instr.Cond_br _ | Instr.Br _ | Instr.Ret _ | Instr.Unreachable -> false

let run ~threshold f =
  (* Rounds of non-overlapping conversions in label order: a candidate
     whose block or successors a conversion touched this round waits for
     the next, which fixes the order selects are created in. One
     predecessor map per call is kept current by [Cfg.set_term]. After
     the first round only deferred candidates and the predecessors of
     converted blocks are visited: a converted block is now a straight
     side its predecessors may speculate, and nothing else a conversion
     changes can let another candidate convert. *)
  let preds = Cfg.predecessors f in
  let changed = ref false in
  let rec round = function
    | [] -> ()
    | labels ->
      let touched = Hashtbl.create 16 in
      let next = ref [] in
      List.iter
        (fun x ->
          match Func.find_block f x with
          | None -> ()
          | Some b ->
            let parts = x :: Block.successors b in
            if List.exists (Hashtbl.mem touched) parts then next := x :: !next
            else if try_convert f ~threshold preds x then begin
              List.iter (fun l -> Hashtbl.replace touched l ()) parts;
              (* The merge block's preds changed too. *)
              List.iter (fun l -> Hashtbl.replace touched l ()) (Block.successors b);
              changed := true;
              next := (try Hashtbl.find preds x with Not_found -> []) @ !next
            end)
        labels;
      round (List.sort_uniq compare !next)
  in
  round (Func.labels f);
  !changed

let pass_with_threshold threshold =
  { Pass.name = "if-convert"; run = run ~threshold }

let pass = pass_with_threshold 12
