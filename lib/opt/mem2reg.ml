open Uu_support
open Uu_ir
open Uu_analysis

let stat_promoted = Statistic.counter "mem2reg.allocas_promoted"

type slot = { var : Value.var; ty : Types.t }

let promotable_allocas f =
  let allocas = Hashtbl.create 17 in
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match i with
          | Instr.Alloca { dst; ty } -> Hashtbl.replace allocas dst { var = dst; ty }
          | _ -> ())
        b.Block.instrs)
    f;
  (* Disqualify any alloca whose address is used outside load/store
     address position. *)
  let disqualify v = Hashtbl.remove allocas v in
  let check_value = function
    | Value.Var v -> if Hashtbl.mem allocas v then disqualify v
    | Value.Imm_int _ | Value.Imm_float _ | Value.Undef _ -> ()
  in
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun (p : Instr.phi) -> List.iter (fun (_, v) -> check_value v) p.incoming)
        b.Block.phis;
      List.iter
        (fun i ->
          match i with
          | Instr.Load _ | Instr.Alloca _ -> ()
          | Instr.Store { value; _ } -> check_value value
          | _ -> List.iter check_value (Instr.uses i))
        b.Block.instrs;
      List.iter check_value (Instr.term_uses b.Block.term))
    f;
  allocas

let run f =
  ignore (Cfg.remove_unreachable f);
  let slots = promotable_allocas f in
  if Hashtbl.length slots = 0 then false
  else begin
    let dom = Dominance.compute f in
    let frontier = Dominance.frontier dom f in
    let reachable = Cfg.reachable f in
    (* Blocks storing to each slot. *)
    let def_blocks : (Value.var, Value.Label_set.t) Hashtbl.t = Hashtbl.create 17 in
    Func.iter_blocks
      (fun b ->
        List.iter
          (fun i ->
            match i with
            | Instr.Store { addr = Value.Var a; _ } when Hashtbl.mem slots a ->
              let cur =
                match Hashtbl.find_opt def_blocks a with
                | Some s -> s
                | None -> Value.Label_set.empty
              in
              Hashtbl.replace def_blocks a (Value.Label_set.add b.Block.label cur)
            | _ -> ())
          b.Block.instrs)
      f;
    (* Phi placement at iterated dominance frontiers. *)
    let phi_for : (Value.label * Value.var, Value.var) Hashtbl.t = Hashtbl.create 17 in
    Hashtbl.iter
      (fun a slot ->
        let placed = Hashtbl.create 7 in
        let worklist = ref (Value.Label_set.elements
          (match Hashtbl.find_opt def_blocks a with
           | Some s -> s
           | None -> Value.Label_set.empty)) in
        let rec process () =
          match !worklist with
          | [] -> ()
          | blk :: rest ->
            worklist := rest;
            let df =
              match Hashtbl.find_opt frontier blk with
              | Some s -> s
              | None -> Value.Label_set.empty
            in
            Value.Label_set.iter
              (fun d ->
                if Value.Label_set.mem d reachable && not (Hashtbl.mem placed d) then begin
                  Hashtbl.replace placed d ();
                  let hint =
                    match Func.var_hint f a with Some h -> Some h | None -> None
                  in
                  let dst = Func.fresh_var ?hint f in
                  Hashtbl.replace phi_for (d, a) dst;
                  let b = Func.block f d in
                  b.Block.phis <-
                    b.Block.phis @ [ { Instr.dst; ty = slot.ty; incoming = [] } ];
                  worklist := d :: !worklist
                end)
              df;
            process ()
        in
        process ())
      slots;
    (* Renaming along the dominator tree. *)
    let subst = ref Value.Var_map.empty in
    let rec rename blk (env : Value.t Value.Var_map.t) =
      let b = Func.block f blk in
      (* Phis placed for slots define new current values. *)
      let env =
        Hashtbl.fold
          (fun (d, a) dst acc ->
            if d = blk then Value.Var_map.add a (Value.Var dst) acc else acc)
          phi_for env
      in
      let env = ref env in
      let rewritten =
        List.filter_map
          (fun i ->
            match i with
            | Instr.Alloca { dst; _ } when Hashtbl.mem slots dst -> None
            | Instr.Store { addr = Value.Var a; value; _ } when Hashtbl.mem slots a ->
              env := Value.Var_map.add a value !env;
              None
            | Instr.Load { dst; ty; addr = Value.Var a } when Hashtbl.mem slots a ->
              let v =
                match Value.Var_map.find_opt a !env with
                | Some v -> v
                | None -> Value.Undef ty
              in
              (* Replace the load's result everywhere via a copy: record a
                 substitution instead of keeping an instruction. *)
              subst := Value.Var_map.add dst v !subst;
              None
            | _ -> Some i)
          b.Block.instrs
      in
      b.Block.instrs <- rewritten;
      (* Fill successor phi incomings for slot phis. *)
      List.iter
        (fun s ->
          Hashtbl.iter
            (fun (d, a) dst ->
              if d = s then begin
                let v =
                  match Value.Var_map.find_opt a !env with
                  | Some v -> v
                  | None -> Value.Undef (Hashtbl.find slots a).ty
                in
                let sb = Func.block f s in
                sb.Block.phis <-
                  List.map
                    (fun (p : Instr.phi) ->
                      if p.dst = dst then
                        { p with incoming = p.incoming @ [ (blk, v) ] }
                      else p)
                    sb.Block.phis
              end)
            phi_for)
        (Block.successors b);
      List.iter (fun child -> rename child !env) (Dominance.children dom blk)
    in
    rename f.Func.entry Value.Var_map.empty;
    (* Loads were replaced by values; chains occur when a load feeds a
       store of another slot. [apply_subst] resolves them. *)
    Clone.apply_subst f !subst;
    Statistic.incr ~by:(Hashtbl.length slots) stat_promoted;
    Remark.applied ~pass:"mem2reg" ~func:f.Func.name
      ~args:[ ("allocas", Remark.Int (Hashtbl.length slots)) ]
      "promoted stack slots to SSA registers";
    true
  end

let pass = { Pass.name = "mem2reg"; run }
