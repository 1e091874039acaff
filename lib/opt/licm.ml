open Uu_support
open Uu_ir
open Uu_analysis

let stat_hoisted = Statistic.counter "licm.instrs_hoisted"

let hoistable = function
  | Instr.Binop _ | Instr.Cmp _ | Instr.Unop _ | Instr.Select _ | Instr.Gep _
  | Instr.Intrinsic _ ->
    true
  (* Special registers are per-thread constants and could be hoisted, but
     keeping them put keeps the lowering's shape; they are cheap. *)
  | Instr.Special _ | Instr.Alloca _ | Instr.Load _ | Instr.Store _
  | Instr.Atomic_add _ | Instr.Syncthreads ->
    false

let run_on_loop f header =
  match Loop_utils.canonicalize f header with
  | None -> false
  | Some (loop, pre) ->
    (* A value is invariant if defined outside the loop (or a constant),
       or defined in the loop by an already-hoisted instruction. *)
    let defs_in_loop =
      Value.Label_set.fold
        (fun l acc ->
          List.fold_left
            (fun acc v -> Value.Var_set.add v acc)
            acc
            (Block.defs (Func.block f l)))
        loop.Loops.blocks Value.Var_set.empty
    in
    let hoisted = ref Value.Var_set.empty in
    let invariant_value v =
      match v with
      | Value.Var x ->
        (not (Value.Var_set.mem x defs_in_loop)) || Value.Var_set.mem x !hoisted
      | Value.Imm_int _ | Value.Imm_float _ | Value.Undef _ -> true
    in
    let moved = ref [] in
    let changed = ref true in
    while !changed do
      changed := false;
      Value.Label_set.iter
        (fun l ->
          let b = Func.block f l in
          let keep, hoist =
            List.partition
              (fun i ->
                not
                  (hoistable i
                  && List.for_all invariant_value (Instr.uses i)
                  && match Instr.def i with
                     | Some d -> not (Value.Var_set.mem d !hoisted)
                     | None -> false))
              b.Block.instrs
          in
          if hoist <> [] then begin
            List.iter
              (fun i ->
                match Instr.def i with
                | Some d -> hoisted := Value.Var_set.add d !hoisted
                | None -> ())
              hoist;
            moved := !moved @ hoist;
            b.Block.instrs <- keep;
            changed := true
          end)
        loop.Loops.blocks
    done;
    if !moved = [] then false
    else begin
      let pb = Func.block f pre in
      pb.Block.instrs <- pb.Block.instrs @ !moved;
      Statistic.incr ~by:(List.length !moved) stat_hoisted;
      Remark.applied ~pass:"licm" ~func:f.Func.name ~block:header
        ~args:[ ("hoisted", Remark.Int (List.length !moved)) ]
        "hoisted loop-invariant instructions into the preheader";
      true
    end

let run f =
  let forest = Loops.analyze f in
  (* Innermost first: invariants escape one level per application; the
     pass manager's fixpoint grouping reruns it as needed. *)
  List.fold_left
    (fun changed (l : Loops.loop) -> run_on_loop f l.Loops.header || changed)
    false
    (Loops.innermost_first forest)

let pass = { Pass.name = "licm"; run }
