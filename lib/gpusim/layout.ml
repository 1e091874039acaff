open Uu_ir

type t = {
  extents : (Value.label, int * int) Hashtbl.t;
  total : int;
  line_bytes : int;
}

let compute (device : Device.t) f =
  let extents = Hashtbl.create 32 in
  let addr = ref 0 in
  let place l =
    let b = Func.block f l in
    let count = List.length b.Block.phis + List.length b.Block.instrs + 1 in
    let bytes = count * device.Device.instr_bytes in
    Hashtbl.replace extents l (!addr, bytes);
    addr := !addr + bytes
  in
  List.iter place (Cfg.reverse_postorder f);
  (* Unreachable blocks still occupy space until cleaned up. *)
  Func.iter_blocks
    (fun b -> if not (Hashtbl.mem extents b.Block.label) then place b.Block.label)
    f;
  { extents; total = !addr; line_bytes = device.Device.icache_line_bytes }

let code_bytes t = t.total

type icache = Cache.t

let icache_create (device : Device.t) =
  Cache.create
    ~capacity:(max 1 (device.Device.icache_bytes / device.Device.icache_line_bytes))

let lines t l =
  let start, bytes = Hashtbl.find t.extents l in
  (start / t.line_bytes, (start + bytes - 1) / t.line_bytes)
