open Uu_ir
open Uu_support

(* Launch-wide state that is immutable (or, for [mem], written at
   block-disjoint cells) during the grid walk, plus the shard-private
   sinks: [Kernel] builds one base env per launch and one copy per shard
   with a fresh [tracer] and [atomics], so nothing here is ever mutated
   by two domains. *)
type env = {
  device : Device.t;
  fn : Func.t;
  mem : Memory.t;
  args : (Value.var * Eval.rvalue) list;
  block_dim : int;
  grid_dim : int;
  max_warp_cycles : int;
  tracer : Trace.t option;
  atomics : Atomics.t;
}

type entry = {
  mutable block : Value.label;
  mutable mask : Mask.t;
  rpc : Value.label option;
}

let default_of_ty = function
  | Types.F64 -> Eval.Float 0.0
  | Types.I1 | Types.I32 | Types.I64 -> Eval.Int 0L
  | Types.Ptr _ -> Eval.Ptr { buffer = -1; offset = 0 }
  | Types.Void -> Eval.Int 0L

let make ~layout ~ipdom env ~smem cost ~block_id ~warp_id ~lanes =
  let d = env.device in
  let fn = env.fn in
  let nvars = fn.Func.next_var in
  let regs = Array.init d.Device.warp_size (fun _ -> Array.make nvars (Eval.Int 0L)) in
  List.iter
    (fun (v, value) -> Array.iter (fun r -> r.(v) <- value) regs)
    env.args;
  let prev = Array.make d.Device.warp_size (-1) in
  let retired = ref Mask.empty in
  let stack : entry list ref =
    ref [ { block = fn.Func.entry; mask = Mask.full ~width:lanes; rpc = None } ]
  in
  let eval lane v =
    match v with
    | Value.Var x -> regs.(lane).(x)
    | Value.Imm_int (n, ty) -> Eval.Int (Eval.normalize ty n)
    | Value.Imm_float x -> Eval.Float x
    | Value.Undef ty -> default_of_ty ty
  in
  let expect_ptr = function
    | Eval.Ptr { buffer; offset } -> (buffer, offset)
    | Eval.Int _ | Eval.Float _ -> failwith "simulator: address is not a pointer"
  in
  (* Evaluate lane [lane]'s address and stage it for the instruction's
     [Cost] call. *)
  let abuf = Cost.addr_buf cost and aoff = Cost.addr_off cost in
  let address lane v =
    let ((buffer, offset) as p) = expect_ptr (eval lane v) in
    abuf.(lane) <- buffer;
    aoff.(lane) <- offset;
    p
  in
  let exec_instr mask instr =
    let active = Mask.popcount mask in
    match instr with
    | Instr.Binop { dst; op; ty; lhs; rhs } ->
      Mask.iter
        (fun lane -> regs.(lane).(dst) <- Eval.binop op ty (eval lane lhs) (eval lane rhs))
        mask;
      Cost.issue cost ~cycles:(Cost.binop_cost d op) ~active
    | Instr.Cmp { dst; op; lhs; rhs; _ } ->
      Mask.iter
        (fun lane -> regs.(lane).(dst) <- Eval.cmp op (eval lane lhs) (eval lane rhs))
        mask;
      Cost.alu cost ~active
    | Instr.Unop { dst; op; src } ->
      Mask.iter (fun lane -> regs.(lane).(dst) <- Eval.unop op (eval lane src)) mask;
      Cost.alu cost ~active
    | Instr.Select { dst; cond; if_true; if_false; _ } ->
      Mask.iter
        (fun lane ->
          let c = eval lane cond in
          regs.(lane).(dst) <-
            (if Eval.is_true c then eval lane if_true else eval lane if_false))
        mask;
      Cost.misc cost ~active
    | Instr.Gep { dst; base; index; _ } ->
      Mask.iter
        (fun lane ->
          let buffer, offset = expect_ptr (eval lane base) in
          let idx =
            match eval lane index with
            | Eval.Int n -> Int64.to_int n
            | Eval.Float _ | Eval.Ptr _ -> failwith "simulator: gep index not an int"
          in
          regs.(lane).(dst) <- Eval.Ptr { buffer; offset = offset + idx })
        mask;
      Cost.alu cost ~active
    | Instr.Load { dst; ty; addr } ->
      Mask.iter
        (fun lane ->
          let buffer, offset = address lane addr in
          regs.(lane).(dst) <-
            (if Memory.is_shared buffer then
               Memory.shared_load smem ~buffer_id:buffer ~offset
             else Memory.load env.mem ~buffer_id:buffer ~offset))
        mask;
      Cost.load cost ~mask:(Mask.bits mask) ~bytes:(Types.size_bytes ty)
        ~streams:(List.length !stack)
    | Instr.Store { ty; addr; value } ->
      Mask.iter
        (fun lane ->
          let buffer, offset = address lane addr in
          if Memory.is_shared buffer then
            Memory.shared_store smem ~buffer_id:buffer ~offset (eval lane value)
          else Memory.store env.mem ~buffer_id:buffer ~offset (eval lane value))
        mask;
      Cost.store cost ~mask:(Mask.bits mask) ~bytes:(Types.size_bytes ty)
    | Instr.Atomic_add { dst; addr; value; _ } ->
      Mask.iter
        (fun lane ->
          let buffer, offset = address lane addr in
          regs.(lane).(dst) <-
            (if Memory.is_shared buffer then
               Memory.shared_atomic_add smem ~buffer_id:buffer ~offset (eval lane value)
             else Atomics.add env.atomics ~block_id ~buffer ~offset (eval lane value)))
        mask;
      Cost.atomic cost ~mask:(Mask.bits mask)
    | Instr.Intrinsic { dst; op; args } ->
      Mask.iter
        (fun lane ->
          regs.(lane).(dst) <- Eval.intrinsic op (List.map (eval lane) args))
        mask;
      Cost.intrinsic cost ~active
    | Instr.Special { dst; op } ->
      Mask.iter
        (fun lane ->
          let v =
            match op with
            | Instr.Thread_idx -> (warp_id * d.Device.warp_size) + lane
            | Instr.Block_idx -> block_id
            | Instr.Block_dim -> env.block_dim
            | Instr.Grid_dim -> env.grid_dim
          in
          regs.(lane).(dst) <- Eval.Int (Int64.of_int v))
        mask;
      Cost.alu cost ~active
    | Instr.Alloca { dst; ty } ->
      (* One cell per lane, so each lane gets a private slot. Arenas live
         in the block's shared bank: their ids are a pure function of
         (block, allocation index within the block), so they are
         identical at any shard width, and the bank drops them wholesale
         at the next block entry. *)
      let bid = Memory.bank_alloca smem ty d.Device.warp_size in
      Mask.iter
        (fun lane -> regs.(lane).(dst) <- Eval.Ptr { buffer = bid; offset = lane })
        mask;
      Cost.alu cost ~active
    | Instr.Syncthreads ->
      (* Intercepted by the block walker below, which suspends the warp
         at the barrier; reaching it here would bypass the scheduler. *)
      assert false
  in
  let exec_phis mask b =
    match b.Block.phis with
    | [] -> ()
    | phis ->
      (* Parallel evaluation: gather all new values before writing. *)
      let updates = ref [] in
      List.iter
        (fun (p : Instr.phi) ->
          Mask.iter
            (fun lane ->
              let pred = prev.(lane) in
              match List.assoc_opt pred p.incoming with
              | Some v -> updates := (lane, p.dst, eval lane v) :: !updates
              | None ->
                failwith
                  (Printf.sprintf
                     "simulator: phi in bb%d has no incoming for predecessor bb%d"
                     b.Block.label pred))
            mask;
          Cost.misc cost ~active:(Mask.popcount mask))
        phis;
      List.iter (fun (lane, dst, v) -> regs.(lane).(dst) <- v) !updates
  in
  (* Walk a block's instruction tail; [Some rest] means the warp arrived
     at a barrier (already charged) with [rest] still to execute. *)
  let rec exec_instrs mask = function
    | [] -> None
    | Instr.Syncthreads :: rest ->
      Cost.sync cost ~mask:(Mask.bits mask);
      Some rest
    | i :: rest ->
      exec_instr mask i;
      exec_instrs mask rest
  in
  let set_prev mask cur = Mask.iter (fun lane -> prev.(lane) <- cur) mask in
  let pop () = match !stack with [] -> () | _ :: rest -> stack := rest in
  let push e = stack := e :: !stack in
  (* Instructions left in the current block when the warp suspended at a
     barrier — the resume point. The rest of the live state (registers,
     [prev], [retired], the reconvergence stack) survives in this
     closure across suspensions. *)
  let pending = ref None in
  let step ~epoch =
    Cost.set_epoch cost epoch;
    let status = ref None in
    while Option.is_none !status do
      match !stack with
      | [] -> status := Some Scheduler.Exited
      | top :: _ ->
        Cost.guard cost ~limit:env.max_warp_cycles;
        let mask = Mask.diff top.mask !retired in
        if Mask.is_empty mask then pop ()
        else if Some top.block = top.rpc then pop ()
        else begin
          let b = Func.block fn top.block in
          let instrs =
            match !pending with
            | Some rest ->
              (* Resuming mid-block: trace, fetch, and phis already
                 happened when the block was entered. *)
              pending := None;
              rest
            | None ->
              (match env.tracer with
              | Some t ->
                Trace.record t { Trace.block_id; warp_id; label = top.block; mask }
              | None -> ());
              let first, last = Layout.lines layout top.block in
              Cost.fetch cost ~first ~last;
              exec_phis mask b;
              b.Block.instrs
          in
          match exec_instrs mask instrs with
          | Some rest ->
            pending := Some rest;
            status := Some Scheduler.Arrived
          | None -> (
            let cur = top.block in
            let active = Mask.popcount mask in
            match b.Block.term with
            | Instr.Ret _ ->
              Cost.branch cost ~active;
              retired := Mask.union !retired mask;
              pop ()
            | Instr.Unreachable ->
              failwith (Printf.sprintf "simulator: reached unreachable bb%d" cur)
            | Instr.Br target ->
              Cost.branch cost ~active;
              set_prev mask cur;
              if Some target = top.rpc then pop () else top.block <- target
            | Instr.Cond_br { cond; if_true; if_false } ->
              Cost.branch cost ~active;
              let m_t = ref Mask.empty in
              Mask.iter
                (fun lane ->
                  if Eval.is_true (eval lane cond) then m_t := Mask.add lane !m_t)
                mask;
              let m_t = !m_t in
              let m_f = Mask.diff mask m_t in
              set_prev mask cur;
              if Mask.is_empty m_f then begin
                if Some if_true = top.rpc then pop () else top.block <- if_true
              end
              else if Mask.is_empty m_t then begin
                if Some if_false = top.rpc then pop () else top.block <- if_false
              end
              else begin
                Cost.diverge cost;
                let r = ipdom cur in
                pop ();
                (match r with
                | Some rp -> push { block = rp; mask; rpc = top.rpc }
                | None -> ());
                let part_rpc = match r with Some _ -> r | None -> top.rpc in
                if Some if_false <> part_rpc then
                  push { block = if_false; mask = m_f; rpc = part_rpc };
                if Some if_true <> part_rpc then
                  push { block = if_true; mask = m_t; rpc = part_rpc }
              end)
        end
    done;
    Option.get !status
  in
  { Scheduler.step; cost }
