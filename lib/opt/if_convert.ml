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

(* Rewrite M's phis through [edits]: entries from [t_from]/[f_from]
   collapse into one entry from [x] whose value is a select emitted at
   the end of X. *)
let collapse_phis f edits x cond m ~t_from ~f_from =
  let xb = Func.block f x in
  List.iter
    (fun phi ->
      match Phi_edits.first phi t_from, Phi_edits.first phi f_from with
      | Some vt, Some vf ->
        let value =
          if Value.equal vt vf then vt
          else begin
            Statistic.incr stat_selects;
            let dst = Func.fresh_var ~hint:"sel" f in
            let ty = (Phi_edits.phi phi).ty in
            xb.Block.instrs <-
              xb.Block.instrs @ [ Instr.Select { dst; ty; cond; if_true = vt; if_false = vf } ];
            Value.Var dst
          end
        in
        Phi_edits.drop edits phi t_from;
        Phi_edits.drop edits phi f_from;
        Phi_edits.append edits phi x value
      | _ -> ())
    (Phi_edits.phis edits (Func.block f m))

let try_convert f edits ~threshold x =
  let xb = Func.block f x in
  match xb.Block.term with
  | Instr.Cond_br { cond; if_true = t; if_false = fl } when t <> fl -> (
    let single_pred l = Cfg.preds_of f l = [ x ] in
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
        Func.set_term f xb (Instr.Br m);
        xb.Block.instrs <- xb.Block.instrs @ tb.Block.instrs @ fb.Block.instrs;
        collapse_phis f edits x cond m ~t_from:t ~f_from:fl;
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
        Func.set_term f xb (Instr.Br m);
        xb.Block.instrs <- xb.Block.instrs @ tb.Block.instrs;
        collapse_phis f edits x cond m ~t_from:t ~f_from:x;
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
        Func.set_term f xb (Instr.Br m);
        xb.Block.instrs <- xb.Block.instrs @ fb.Block.instrs;
        collapse_phis f edits x cond m ~t_from:x ~f_from:fl;
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
  (* Non-overlapping conversions in [Cfg.rounds]: a candidate whose block
     or successors a conversion touched this round waits for the next,
     which fixes the order selects are created in. After the first round
     only deferred candidates and the predecessors of converted blocks
     are visited: a converted block is now a straight side its
     predecessors may speculate, and nothing else a conversion changes
     can let another candidate convert. *)
  let changed = ref false in
  let edits = Phi_edits.create () in
  let visit touched b =
    let x = b.Block.label in
    let parts = x :: Block.successors b in
    if List.exists (Hashtbl.mem touched) parts then [ x ]
    else if try_convert f edits ~threshold x then begin
      List.iter (fun l -> Hashtbl.replace touched l ()) parts;
      (* The merge block's preds changed too. *)
      List.iter (fun l -> Hashtbl.replace touched l ()) (Block.successors b);
      changed := true;
      Cfg.preds_of f x
    end
    else []
  in
  Cfg.rounds f visit (Func.labels f);
  Phi_edits.flush edits;
  !changed

let pass_with_threshold threshold =
  { Pass.name = "if-convert"; run = run ~threshold }

let pass = pass_with_threshold 12
