type t = { fn : Func.t; mutable cur : Block.t }

let create fn = { fn; cur = Func.block fn fn.Func.entry }
let func b = b.fn
let position b = b.cur
let set_position b blk = b.cur <- blk
let append_block ?hint b = Func.fresh_block ?hint b.fn

let emit b instr =
  b.cur.Block.instrs <- b.cur.Block.instrs @ [ instr ]

let def_value ?hint b mk =
  let dst = Func.fresh_var ?hint b.fn in
  emit b (mk dst);
  Value.Var dst

let binop ?hint b op ty lhs rhs =
  def_value ?hint b (fun dst -> Instr.Binop { dst; op; ty; lhs; rhs })

let cmp ?hint b op ty lhs rhs =
  def_value ?hint b (fun dst -> Instr.Cmp { dst; op; ty; lhs; rhs })

let unop ?hint b op src = def_value ?hint b (fun dst -> Instr.Unop { dst; op; src })

let select ?hint b ty ~cond ~if_true ~if_false =
  def_value ?hint b (fun dst -> Instr.Select { dst; ty; cond; if_true; if_false })

let alloca ?hint b ty = def_value ?hint b (fun dst -> Instr.Alloca { dst; ty })
let load ?hint b ty addr = def_value ?hint b (fun dst -> Instr.Load { dst; ty; addr })
let store b ty ~addr ~value = emit b (Instr.Store { ty; addr; value })

let gep ?hint b elt ~base ~index =
  def_value ?hint b (fun dst -> Instr.Gep { dst; elt; base; index })

let intrinsic ?hint b op args =
  def_value ?hint b (fun dst -> Instr.Intrinsic { dst; op; args })

let special ?hint b op = def_value ?hint b (fun dst -> Instr.Special { dst; op })

let atomic_add ?hint b ty ~addr ~value =
  def_value ?hint b (fun dst -> Instr.Atomic_add { dst; ty; addr; value })

let syncthreads b = emit b Instr.Syncthreads

let phi ?hint b ty incoming =
  let dst = Func.fresh_var ?hint b.fn in
  b.cur.Block.phis <- b.cur.Block.phis @ [ { Instr.dst; ty; incoming } ];
  Value.Var dst

let br b target = Func.set_term b.fn b.cur (Instr.Br target.Block.label)

let cond_br b cond if_true if_false =
  Func.set_term b.fn b.cur
    (Instr.Cond_br { cond; if_true = if_true.Block.label; if_false = if_false.Block.label })

let ret b v = Func.set_term b.fn b.cur (Instr.Ret v)
