open Uu_ir

let check f =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let dom = Dominance.compute f in
  (* Params and shared declarations are both defined "before entry". *)
  let params =
    Value.Var_set.of_list
      (Func.param_vars f
      @ List.map (fun (s : Func.shared) -> s.Func.s_var) f.Func.shared)
  in
  (* Where is each register defined: block and position within it.
     Position -1 = phi (defined "at the top"). *)
  let def_site : (Value.var, Value.label * int) Hashtbl.t = Hashtbl.create 64 in
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun (p : Instr.phi) -> Hashtbl.replace def_site p.dst (b.Block.label, -1))
        b.Block.phis;
      List.iteri
        (fun i instr ->
          match Instr.def instr with
          | Some v -> Hashtbl.replace def_site v (b.Block.label, i)
          | None -> ())
        b.Block.instrs)
    f;
  let check_use ~where ~use_block ~use_pos v =
    match v with
    | Value.Imm_int _ | Value.Imm_float _ | Value.Undef _ -> ()
    | Value.Var x ->
      if not (Value.Var_set.mem x params) then (
        match Hashtbl.find_opt def_site x with
        | None -> err "%s: use of undefined register %%%d" (where ()) x
        | Some (def_block, def_pos) ->
          if def_block = use_block then begin
            if def_pos >= use_pos then
              err "%s: register %%%d used before its definition" (where ()) x
          end
          else if not (Dominance.dominates dom def_block use_block) then
            err "%s: use of %%%d not dominated by its definition (bb%d)" (where ()) x
              def_block)
  in
  let reachable = Cfg.reachable f in
  Func.iter_blocks
    (fun b ->
      if Value.Label_set.mem b.Block.label reachable then begin
        (* The block's name is formatted only when an error names it. *)
        let where () = Format.asprintf "%a" (Printer.pp_label f) b.Block.label in
        (* A phi use must be dominated by its def at the end of the
           corresponding predecessor. *)
        List.iter
          (fun (p : Instr.phi) ->
            List.iter
              (fun (pred, v) ->
                check_use ~where ~use_block:pred ~use_pos:max_int v)
              p.incoming)
          b.Block.phis;
        List.iteri
          (fun i instr ->
            List.iter (check_use ~where ~use_block:b.Block.label ~use_pos:i)
              (Instr.uses instr))
          b.Block.instrs;
        List.iter
          (check_use ~where ~use_block:b.Block.label ~use_pos:max_int)
          (Instr.term_uses b.Block.term)
      end)
    f;
  match !errs with [] -> Ok () | es -> Error (List.rev es)

let check_exn f =
  match check f with
  | Ok () -> ()
  | Error (e :: _ as all) ->
    failwith
      (Printf.sprintf "SSA dominance check failed in @%s: %s (%d issue(s))"
         f.Func.name e (List.length all))
  | Error [] -> assert false
