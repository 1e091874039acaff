open Uu_ir
open Uu_support

(* Per-warp scratch, re-initialised by [make] and reused across the
   blocks of a shard: unboxed register files (one row of [warp_size]
   lanes per slot), phi staging, and the reconvergence stack as parallel
   int arrays. Each concurrently-live warp of a block needs its own
   state — register files stay alive across barrier suspensions while
   other warps run. *)
type state = {
  fregs : float array;
  iregs : int array;
  pregs_buf : int array;
  pregs_off : int array;
  dprev : int array;
  ph_f : float array;
  ph_i : int array;
  ph_pb : int array;
  ph_po : int array;
  mutable st_blk : int array;
  mutable st_msk : int array;
  mutable st_rpc : int array;
}

let state (p : Decode.t) (env : Warp.env) =
  let ws = env.device.Device.warp_size in
  let st =
    {
      fregs = Array.make (max 1 (p.Decode.n_f * ws)) 0.0;
      iregs = Array.make (max 1 (p.Decode.n_i * ws)) 0;
      pregs_buf = Array.make (max 1 (p.Decode.n_p * ws)) (-1);
      pregs_off = Array.make (max 1 (p.Decode.n_p * ws)) 0;
      dprev = Array.make ws (-1);
      ph_f = Array.make (max 1 (p.Decode.max_phis * ws)) 0.0;
      ph_i = Array.make (max 1 (p.Decode.max_phis * ws)) 0;
      ph_pb = Array.make (max 1 (p.Decode.max_phis * ws)) 0;
      ph_po = Array.make (max 1 (p.Decode.max_phis * ws)) 0;
      st_blk = Array.make 16 0;
      st_msk = Array.make 16 0;
      st_rpc = Array.make 16 (-1);
    }
  in
  (* Parameters and constants are warp-invariant, so their rows are
     written once per launch here. Everything else is SSA — every use is
     dominated by a def executed earlier in the same warp — so the
     register files need no per-warp reset. *)
  let fill_ptr row buffer offset =
    Array.fill st.pregs_buf row ws buffer;
    Array.fill st.pregs_off row ws offset
  in
  List.iter
    (fun (v, value) ->
      let row = p.Decode.row.(v) in
      match value with
      | Eval.Float x -> Array.fill st.fregs row ws x
      | Eval.Int n -> Array.fill st.iregs row ws (Int64.to_int n)
      | Eval.Ptr { buffer; offset } -> fill_ptr row buffer offset)
    env.Warp.args;
  List.iter
    (function
      | Decode.C_int { row; value } -> Array.fill st.iregs row ws value
      | Decode.C_float { row; value } -> Array.fill st.fregs row ws value
      | Decode.C_ptr { row; buffer; offset } -> fill_ptr row buffer offset)
    p.Decode.consts;
  st

(* Copy of [Mask.popcount]'s SWAR (masks never set bit 62), kept here so
   the per-instruction active-lane count is a direct static call. *)
let popcount62 m =
  let m = m - ((m lsr 1) land 0x1555_5555_5555_5555) in
  let m = (m land 0x3333_3333_3333_3333) + ((m lsr 2) land 0x3333_3333_3333_3333) in
  let m = (m + (m lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (m * 0x0101_0101_0101_0101) lsr 56

let oob buffer offset len =
  failwith
    (Printf.sprintf "simulated memory: buffer %d access out of bounds (%d of %d)"
       buffer offset len)

(* Native-int integer ops, value-identical to [Eval.binop] over the
   sign-extended range the benchmarks live in. [Int64] fallbacks cover
   the corners where a 63-bit word could diverge (I64 unsigned division
   and logical shifts of negative values, shift counts of 63). *)

let inorm w v =
  match w with
  | Decode.W1 -> v land 1
  | Decode.W32 -> (v lsl 31) asr 31
  | Decode.W64 -> v

let wbits = function Decode.W1 -> 0 | Decode.W32 -> 31 | Decode.W64 -> 63

let iexec op w x y =
  match op with
  | Instr.Add -> inorm w (x + y)
  | Instr.Sub -> inorm w (x - y)
  | Instr.Mul -> inorm w (x * y)
  | Instr.Sdiv -> if y = 0 then 0 else inorm w (x / y)
  | Instr.Srem -> if y = 0 then 0 else inorm w (x mod y)
  | Instr.Udiv ->
    if y = 0 then 0
    else (
      match w with
      | Decode.W1 -> x land 1
      | Decode.W32 -> inorm w ((x land 0xFFFF_FFFF) / (y land 0xFFFF_FFFF))
      | Decode.W64 ->
        if x >= 0 && y >= 0 then x / y
        else Int64.to_int (Int64.unsigned_div (Int64.of_int x) (Int64.of_int y)))
  | Instr.Shl ->
    let c = y land wbits w in
    if c > 62 then Int64.to_int (Int64.shift_left (Int64.of_int x) c)
    else inorm w (x lsl c)
  | Instr.Lshr -> (
    let c = y land wbits w in
    match w with
    | Decode.W1 -> x land 1
    | Decode.W32 -> inorm w ((x land 0xFFFF_FFFF) lsr c)
    | Decode.W64 ->
      if x >= 0 then (if c > 62 then 0 else x lsr c)
      else Int64.to_int (Int64.shift_right_logical (Int64.of_int x) c))
  | Instr.Ashr -> inorm w (x asr min (y land wbits w) 62)
  | Instr.And -> x land y
  | Instr.Or -> x lor y
  | Instr.Xor -> x lxor y
  | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv -> assert false

let b2i b = if b then 1 else 0

(* Unsigned order of sign-extended values survives the 64 -> 63 bit
   narrowing: flipping the native sign bit sorts negatives (huge
   unsigned) above the non-negatives, exactly as
   [Int64.unsigned_compare] does. *)
let icmp_exec op x y =
  match op with
  | Instr.Eq -> b2i (x = y)
  | Instr.Ne -> b2i (x <> y)
  | Instr.Slt -> b2i (x < y)
  | Instr.Sle -> b2i (x <= y)
  | Instr.Sgt -> b2i (x > y)
  | Instr.Sge -> b2i (x >= y)
  | Instr.Ult -> b2i (x lxor min_int < y lxor min_int)
  | Instr.Ule -> b2i (x lxor min_int <= y lxor min_int)
  | Instr.Ugt -> b2i (x lxor min_int > y lxor min_int)
  | Instr.Uge -> b2i (x lxor min_int >= y lxor min_int)
  | _ -> assert false

(* Full-mask lane loops: a plain [for] over lanes [0 .. n - 1]. The
   opcodes that carry most of the registry apps' full-mask traffic get a
   loop of their own with the opcode matched once, outside it; the rest
   share a loop that dispatches per lane (counts and timings in
   docs/gpusim.md). [fbin] has only four opcodes, all hot. *)

let ibin_full (r : int array) op w ~dst ~a ~b n =
  match (op, w) with
  | Instr.Add, Decode.W64 ->
    for l = 0 to n - 1 do
      let x = Array.unsafe_get r (a + l) and y = Array.unsafe_get r (b + l) in
      Array.unsafe_set r (dst + l) (x + y)
    done
  | Instr.Sub, Decode.W64 ->
    for l = 0 to n - 1 do
      let x = Array.unsafe_get r (a + l) and y = Array.unsafe_get r (b + l) in
      Array.unsafe_set r (dst + l) (x - y)
    done
  | Instr.Mul, Decode.W64 ->
    for l = 0 to n - 1 do
      let x = Array.unsafe_get r (a + l) and y = Array.unsafe_get r (b + l) in
      Array.unsafe_set r (dst + l) (x * y)
    done
  | _ ->
    for l = 0 to n - 1 do
      let x = Array.unsafe_get r (a + l) and y = Array.unsafe_get r (b + l) in
      Array.unsafe_set r (dst + l) (iexec op w x y)
    done

let fbin_full (r : float array) op ~dst ~a ~b n =
  match op with
  | Instr.Fadd ->
    for l = 0 to n - 1 do
      let x = Array.unsafe_get r (a + l) and y = Array.unsafe_get r (b + l) in
      Array.unsafe_set r (dst + l) (x +. y)
    done
  | Instr.Fsub ->
    for l = 0 to n - 1 do
      let x = Array.unsafe_get r (a + l) and y = Array.unsafe_get r (b + l) in
      Array.unsafe_set r (dst + l) (x -. y)
    done
  | Instr.Fmul ->
    for l = 0 to n - 1 do
      let x = Array.unsafe_get r (a + l) and y = Array.unsafe_get r (b + l) in
      Array.unsafe_set r (dst + l) (x *. y)
    done
  | Instr.Fdiv ->
    for l = 0 to n - 1 do
      let x = Array.unsafe_get r (a + l) and y = Array.unsafe_get r (b + l) in
      Array.unsafe_set r (dst + l) (x /. y)
    done
  | _ -> assert false

let icmp_full (r : int array) op ~dst ~a ~b n =
  match op with
  | Instr.Slt ->
    for l = 0 to n - 1 do
      let x = Array.unsafe_get r (a + l) and y = Array.unsafe_get r (b + l) in
      Array.unsafe_set r (dst + l) (b2i (x < y))
    done
  | Instr.Sgt ->
    for l = 0 to n - 1 do
      let x = Array.unsafe_get r (a + l) and y = Array.unsafe_get r (b + l) in
      Array.unsafe_set r (dst + l) (b2i (x > y))
    done
  | _ ->
    for l = 0 to n - 1 do
      let x = Array.unsafe_get r (a + l) and y = Array.unsafe_get r (b + l) in
      Array.unsafe_set r (dst + l) (icmp_exec op x y)
    done

let fcmp_full (fr : float array) (ir : int array) op ~dst ~a ~b n =
  for l = 0 to n - 1 do
    let x = Array.unsafe_get fr (a + l) and y = Array.unsafe_get fr (b + l) in
    Array.unsafe_set ir (dst + l)
      (match op with
      | Instr.Foeq -> b2i (x = y)
      | Instr.Fone -> b2i (x < y || x > y)
      | Instr.Folt -> b2i (x < y)
      | Instr.Fole -> b2i (x <= y)
      | Instr.Fogt -> b2i (x > y)
      | Instr.Foge -> b2i (x >= y)
      | _ -> assert false)
  done

(* Lane copies between rows of one file, for the lanes of [mask]. *)

let copy_i (r : int array) ~src (d : int array) ~dst ~mask ~full n =
  if mask = full then
    for l = 0 to n - 1 do
      Array.unsafe_set d (dst + l) (Array.unsafe_get r (src + l))
    done
  else begin
    let mm = ref mask and l = ref 0 in
    while !mm <> 0 do
      if !mm land 1 <> 0 then Array.unsafe_set d (dst + !l) (Array.unsafe_get r (src + !l));
      incr l;
      mm := !mm lsr 1
    done
  end

let copy_f (r : float array) ~src (d : float array) ~dst ~mask ~full n =
  if mask = full then
    for l = 0 to n - 1 do
      Array.unsafe_set d (dst + l) (Array.unsafe_get r (src + l))
    done
  else begin
    let mm = ref mask and l = ref 0 in
    while !mm <> 0 do
      if !mm land 1 <> 0 then Array.unsafe_set d (dst + !l) (Array.unsafe_get r (src + !l));
      incr l;
      mm := !mm lsr 1
    done
  end

let make (env : Warp.env) (p : Decode.t) st ~smem cost ~block_id ~warp_id ~lanes =
  let ws = env.device.Device.warp_size in
  let blocks = p.Decode.blocks in
  let fregs = st.fregs and iregs = st.iregs in
  let pbuf = st.pregs_buf and poff = st.pregs_off in
  let abuf = Cost.addr_buf cost and aoff = Cost.addr_off cost in
  Array.fill st.dprev 0 ws (-1);
  let retired = ref 0 in
  let full_mask = Mask.bits (Mask.full ~width:lanes) in
  (* The reconvergence stack holds [depth] entries — under ITS, also the
     number of divergent groups that hide a load's latency. *)
  let depth = ref 1 in
  st.st_blk.(0) <- p.Decode.entry;
  st.st_msk.(0) <- full_mask;
  st.st_rpc.(0) <- -1;
  (* Every operand is a register row, so lane [l] of operand [a] is
     [a + l] whatever the operand was in the IR. Under the full mask the
     hot arms run a plain [for] over the lanes (the [*_full] loops
     above). A partial mask walks the mask
     by shifting it right one lane per iteration — ascending lane order,
     two ALU ops per lane. Per-lane arithmetic is inlined, so no float
     ever crosses a call boundary (which would box it on this non-flambda
     compiler). Memory arms stage each lane's address in [abuf]/[aoff]
     for the instruction's one [Cost] call. *)
  let stage mask addr =
    if mask = full_mask then
      for l = 0 to lanes - 1 do
        Array.unsafe_set abuf l (Array.unsafe_get pbuf (addr + l));
        Array.unsafe_set aoff l (Array.unsafe_get poff (addr + l))
      done
    else begin
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then begin
          Array.unsafe_set abuf !l (Array.unsafe_get pbuf (addr + !l));
          Array.unsafe_set aoff !l (Array.unsafe_get poff (addr + !l))
        end;
        incr l;
        mm := !mm lsr 1
      done
    end
  in
  let exec_instr mask instr =
    let active = popcount62 mask in
    let full = mask = full_mask in
    match instr with
    | Decode.D_ibin { dst; op; w; a; b; cost = cycles } ->
      if full then ibin_full iregs op w ~dst ~a ~b lanes
      else begin
        let mm = ref mask and l = ref 0 in
        while !mm <> 0 do
          if !mm land 1 <> 0 then
            Array.unsafe_set iregs (dst + !l)
              (iexec op w (Array.unsafe_get iregs (a + !l)) (Array.unsafe_get iregs (b + !l)));
          incr l;
          mm := !mm lsr 1
        done
      end;
      Cost.issue cost ~cycles ~active
    | Decode.D_fbin { dst; op; a; b; cost = cycles } ->
      if full then fbin_full fregs op ~dst ~a ~b lanes
      else begin
        let mm = ref mask and l = ref 0 in
        while !mm <> 0 do
          if !mm land 1 <> 0 then begin
            let x = Array.unsafe_get fregs (a + !l) and y = Array.unsafe_get fregs (b + !l) in
            Array.unsafe_set fregs (dst + !l)
              (match op with
              | Instr.Fadd -> x +. y
              | Instr.Fsub -> x -. y
              | Instr.Fmul -> x *. y
              | Instr.Fdiv -> x /. y
              | _ -> assert false)
          end;
          incr l;
          mm := !mm lsr 1
        done
      end;
      Cost.issue cost ~cycles ~active
    | Decode.D_icmp { dst; op; a; b } ->
      if full then icmp_full iregs op ~dst ~a ~b lanes
      else begin
        let mm = ref mask and l = ref 0 in
        while !mm <> 0 do
          if !mm land 1 <> 0 then
            Array.unsafe_set iregs (dst + !l)
              (icmp_exec op (Array.unsafe_get iregs (a + !l)) (Array.unsafe_get iregs (b + !l)));
          incr l;
          mm := !mm lsr 1
        done
      end;
      Cost.alu cost ~active
    | Decode.D_fcmp { dst; op; a; b } ->
      if full then fcmp_full fregs iregs op ~dst ~a ~b lanes
      else begin
        let mm = ref mask and l = ref 0 in
        while !mm <> 0 do
          if !mm land 1 <> 0 then begin
            let x = Array.unsafe_get fregs (a + !l) and y = Array.unsafe_get fregs (b + !l) in
            Array.unsafe_set iregs (dst + !l)
              (match op with
              | Instr.Foeq -> b2i (x = y)
              | Instr.Fone -> b2i (x < y || x > y)
              | Instr.Folt -> b2i (x < y)
              | Instr.Fole -> b2i (x <= y)
              | Instr.Fogt -> b2i (x > y)
              | Instr.Foge -> b2i (x >= y)
              | _ -> assert false)
          end;
          incr l;
          mm := !mm lsr 1
        done
      end;
      Cost.alu cost ~active
    | Decode.D_pcmp { dst; negate; a; b } ->
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then begin
          let same =
            Array.unsafe_get pbuf (a + !l) = Array.unsafe_get pbuf (b + !l)
            && Array.unsafe_get poff (a + !l) = Array.unsafe_get poff (b + !l)
          in
          Array.unsafe_set iregs (dst + !l) (b2i (if negate then not same else same))
        end;
        incr l;
        mm := !mm lsr 1
      done;
      Cost.alu cost ~active
    | Decode.D_iunop { dst; op; src } ->
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then begin
          let x = Array.unsafe_get iregs (src + !l) in
          Array.unsafe_set iregs (dst + !l)
            (match op with
            | Instr.Trunc_i32 -> (x lsl 31) asr 31
            | Instr.Sext_i64 -> x
            | Instr.Zext_i64 -> x land 0xFFFF_FFFF
            | Instr.Not -> lnot x
            | _ -> assert false)
        end;
        incr l;
        mm := !mm lsr 1
      done;
      Cost.alu cost ~active
    | Decode.D_sitofp { dst; src } ->
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then
          Array.unsafe_set fregs (dst + !l) (float_of_int (Array.unsafe_get iregs (src + !l)));
        incr l;
        mm := !mm lsr 1
      done;
      Cost.alu cost ~active
    | Decode.D_fptosi { dst; src } ->
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then
          Array.unsafe_set iregs (dst + !l)
            (Int64.to_int (Int64.of_float (Array.unsafe_get fregs (src + !l))));
        incr l;
        mm := !mm lsr 1
      done;
      Cost.alu cost ~active
    | Decode.D_fneg { dst; src } ->
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then
          Array.unsafe_set fregs (dst + !l) (-.Array.unsafe_get fregs (src + !l));
        incr l;
        mm := !mm lsr 1
      done;
      Cost.alu cost ~active
    | Decode.D_iselect { dst; cond; t; f } ->
      if full then
        for l = 0 to lanes - 1 do
          let o = if Array.unsafe_get iregs (cond + l) land 1 <> 0 then t else f in
          Array.unsafe_set iregs (dst + l) (Array.unsafe_get iregs (o + l))
        done
      else begin
        let mm = ref mask and l = ref 0 in
        while !mm <> 0 do
          if !mm land 1 <> 0 then begin
            let o = if Array.unsafe_get iregs (cond + !l) land 1 <> 0 then t else f in
            Array.unsafe_set iregs (dst + !l) (Array.unsafe_get iregs (o + !l))
          end;
          incr l;
          mm := !mm lsr 1
        done
      end;
      Cost.misc cost ~active
    | Decode.D_fselect { dst; cond; t; f } ->
      if full then
        for l = 0 to lanes - 1 do
          let o = if Array.unsafe_get iregs (cond + l) land 1 <> 0 then t else f in
          Array.unsafe_set fregs (dst + l) (Array.unsafe_get fregs (o + l))
        done
      else begin
        let mm = ref mask and l = ref 0 in
        while !mm <> 0 do
          if !mm land 1 <> 0 then begin
            let o = if Array.unsafe_get iregs (cond + !l) land 1 <> 0 then t else f in
            Array.unsafe_set fregs (dst + !l) (Array.unsafe_get fregs (o + !l))
          end;
          incr l;
          mm := !mm lsr 1
        done
      end;
      Cost.misc cost ~active
    | Decode.D_pselect { dst; cond; t; f } ->
      if full then
        for l = 0 to lanes - 1 do
          let o = if Array.unsafe_get iregs (cond + l) land 1 <> 0 then t else f in
          Array.unsafe_set pbuf (dst + l) (Array.unsafe_get pbuf (o + l));
          Array.unsafe_set poff (dst + l) (Array.unsafe_get poff (o + l))
        done
      else begin
        let mm = ref mask and l = ref 0 in
        while !mm <> 0 do
          if !mm land 1 <> 0 then begin
            let o = if Array.unsafe_get iregs (cond + !l) land 1 <> 0 then t else f in
            Array.unsafe_set pbuf (dst + !l) (Array.unsafe_get pbuf (o + !l));
            Array.unsafe_set poff (dst + !l) (Array.unsafe_get poff (o + !l))
          end;
          incr l;
          mm := !mm lsr 1
        done
      end;
      Cost.misc cost ~active
    | Decode.D_gep { dst; base; index } ->
      if full then
        for l = 0 to lanes - 1 do
          Array.unsafe_set pbuf (dst + l) (Array.unsafe_get pbuf (base + l));
          Array.unsafe_set poff (dst + l)
            (Array.unsafe_get poff (base + l) + Array.unsafe_get iregs (index + l))
        done
      else begin
        let mm = ref mask and l = ref 0 in
        while !mm <> 0 do
          if !mm land 1 <> 0 then begin
            Array.unsafe_set pbuf (dst + !l) (Array.unsafe_get pbuf (base + !l));
            Array.unsafe_set poff (dst + !l)
              (Array.unsafe_get poff (base + !l) + Array.unsafe_get iregs (index + !l))
          end;
          incr l;
          mm := !mm lsr 1
        done
      end;
      Cost.alu cost ~active
    | Decode.D_iload { dst; addr; bytes } ->
      stage mask addr;
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then begin
          let buffer = Array.unsafe_get abuf !l and offset = Array.unsafe_get aoff !l in
          Array.unsafe_set iregs (dst + !l)
            (if buffer < -1 then Memory.shared_loadi smem ~buffer_id:buffer ~offset
             else Memory.loadi env.mem ~buffer_id:buffer ~offset)
        end;
        incr l;
        mm := !mm lsr 1
      done;
      Cost.load cost ~mask ~bytes ~streams:!depth
    | Decode.D_fload { dst; addr; bytes } ->
      stage mask addr;
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then begin
          let buffer = Array.unsafe_get abuf !l and offset = Array.unsafe_get aoff !l in
          let a =
            if buffer < -1 then Memory.shared_fdata smem ~buffer_id:buffer
            else Memory.fdata env.mem ~buffer_id:buffer
          in
          if offset < 0 || offset >= Array.length a then
            oob buffer offset (Array.length a);
          Array.unsafe_set fregs (dst + !l) (Array.unsafe_get a offset)
        end;
        incr l;
        mm := !mm lsr 1
      done;
      Cost.load cost ~mask ~bytes ~streams:!depth
    | Decode.D_pload { dst; addr; bytes } ->
      (* Shared declarations hold only f64/i64 elements (see the
         verifier), but alloca arenas may hold pointers; the bank raises
         the usual type confusion on a non-P slot. *)
      stage mask addr;
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then begin
          let buffer = Array.unsafe_get abuf !l and offset = Array.unsafe_get aoff !l in
          let vb, vo =
            if buffer < -1 then Memory.shared_loadp smem ~buffer_id:buffer ~offset
            else Memory.loadp env.mem ~buffer_id:buffer ~offset
          in
          Array.unsafe_set pbuf (dst + !l) vb;
          Array.unsafe_set poff (dst + !l) vo
        end;
        incr l;
        mm := !mm lsr 1
      done;
      Cost.load cost ~mask ~bytes ~streams:!depth
    | Decode.D_istore { addr; value; bytes } ->
      stage mask addr;
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then begin
          let buffer = Array.unsafe_get abuf !l and offset = Array.unsafe_get aoff !l in
          let v = Array.unsafe_get iregs (value + !l) in
          if buffer < -1 then Memory.shared_storei smem ~buffer_id:buffer ~offset v
          else Memory.storei env.mem ~buffer_id:buffer ~offset v
        end;
        incr l;
        mm := !mm lsr 1
      done;
      Cost.store cost ~mask ~bytes
    | Decode.D_fstore { addr; value; bytes } ->
      stage mask addr;
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then begin
          let buffer = Array.unsafe_get abuf !l and offset = Array.unsafe_get aoff !l in
          let a =
            if buffer < -1 then Memory.shared_fdata smem ~buffer_id:buffer
            else Memory.fdata env.mem ~buffer_id:buffer
          in
          if offset < 0 || offset >= Array.length a then
            oob buffer offset (Array.length a);
          Array.unsafe_set a offset (Array.unsafe_get fregs (value + !l))
        end;
        incr l;
        mm := !mm lsr 1
      done;
      Cost.store cost ~mask ~bytes
    | Decode.D_pstore { addr; value; bytes } ->
      (* Shared declarations hold only f64/i64 elements, but alloca
         arenas may hold pointers; [shared_storep] raises the reference
         engine's type confusion on a non-P slot. *)
      stage mask addr;
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then begin
          let buffer = Array.unsafe_get abuf !l and offset = Array.unsafe_get aoff !l in
          let vb = Array.unsafe_get pbuf (value + !l) and vo = Array.unsafe_get poff (value + !l) in
          if buffer < -1 then
            Memory.shared_storep smem ~buffer_id:buffer ~offset ~pbuffer:vb ~poffset:vo
          else Memory.storep env.mem ~buffer_id:buffer ~offset ~pbuffer:vb ~poffset:vo
        end;
        incr l;
        mm := !mm lsr 1
      done;
      Cost.store cost ~mask ~bytes
    | Decode.D_iatomic { dst; addr; value } ->
      stage mask addr;
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then begin
          let buffer = Array.unsafe_get abuf !l and offset = Array.unsafe_get aoff !l in
          let v = Array.unsafe_get iregs (value + !l) in
          Array.unsafe_set iregs (dst + !l)
            (if buffer < -1 then Memory.shared_atomic_addi smem ~buffer_id:buffer ~offset v
             else Atomics.addi env.atomics ~block_id ~buffer ~offset v)
        end;
        incr l;
        mm := !mm lsr 1
      done;
      Cost.atomic cost ~mask
    | Decode.D_fatomic { dst; addr; value } ->
      stage mask addr;
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then begin
          let buffer = Array.unsafe_get abuf !l and offset = Array.unsafe_get aoff !l in
          let v = Array.unsafe_get fregs (value + !l) in
          Array.unsafe_set fregs (dst + !l)
            (if buffer < -1 then Memory.shared_atomic_addf smem ~buffer_id:buffer ~offset v
             else Atomics.addf env.atomics ~block_id ~buffer ~offset v)
        end;
        incr l;
        mm := !mm lsr 1
      done;
      Cost.atomic cost ~mask
    | Decode.D_fintrinsic { dst; op; args } ->
      let a0 = args.(0) and a1 = if Array.length args > 1 then args.(1) else args.(0) in
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then begin
          let x = Array.unsafe_get fregs (a0 + !l) and y = Array.unsafe_get fregs (a1 + !l) in
          Array.unsafe_set fregs (dst + !l)
            (match op with
            | Instr.Sqrt -> sqrt x
            | Instr.Exp -> exp x
            | Instr.Log -> log x
            | Instr.Sin -> sin x
            | Instr.Cos -> cos x
            | Instr.Fabs -> Float.abs x
            | Instr.Pow -> Float.pow x y
            | Instr.Fmin -> Float.min x y
            | Instr.Fmax -> Float.max x y
            | _ -> assert false)
        end;
        incr l;
        mm := !mm lsr 1
      done;
      Cost.intrinsic cost ~active
    | Decode.D_iintrinsic { dst; op; args } ->
      let a0 = args.(0) and a1 = if Array.length args > 1 then args.(1) else args.(0) in
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then begin
          let x = Array.unsafe_get iregs (a0 + !l) and y = Array.unsafe_get iregs (a1 + !l) in
          Array.unsafe_set iregs (dst + !l)
            (match op with
            | Instr.Imin -> min x y
            | Instr.Imax -> max x y
            | Instr.Iabs -> abs x
            | _ -> assert false)
        end;
        incr l;
        mm := !mm lsr 1
      done;
      Cost.intrinsic cost ~active
    | Decode.D_special { dst; op } ->
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then
          Array.unsafe_set iregs (dst + !l)
            (match op with
            | Instr.Thread_idx -> (warp_id * ws) + !l
            | Instr.Block_idx -> block_id
            | Instr.Block_dim -> env.block_dim
            | Instr.Grid_dim -> env.grid_dim);
        incr l;
        mm := !mm lsr 1
      done;
      Cost.alu cost ~active
    | Decode.D_alloca { dst; ty } ->
      (* One cell per lane, so each lane gets a private slot. Arenas live
         in the block's shared bank: their ids are a pure function of
         (block, allocation index within the block), so they are
         identical at any shard width, and the bank drops them wholesale
         at the next block entry. *)
      let bid = Memory.bank_alloca smem ty ws in
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then begin
          Array.unsafe_set pbuf (dst + !l) bid;
          Array.unsafe_set poff (dst + !l) !l
        end;
        incr l;
        mm := !mm lsr 1
      done;
      Cost.alu cost ~active
    | Decode.D_sync ->
      (* Intercepted by the block walker below, which suspends the warp
         at the barrier; reaching it here would bypass the scheduler. *)
      assert false
  in
  (* The block every lane last branched from, when the last branch ran
     under the full mask; -1 when lanes may differ (see [dprev]). *)
  let uniform_prev = ref (-1) in
  let incoming (b : Decode.dblock) inc pr =
    let r = if pr >= 0 then inc.(pr) else -1 in
    if r < 0 then
      failwith
        (Printf.sprintf "simulator: phi in bb%d has no incoming for predecessor bb%d"
           b.Decode.orig
           (if pr >= 0 then blocks.(pr).Decode.orig else pr));
    r
  in
  let exec_phis mask (b : Decode.dblock) =
    let nph = Array.length b.Decode.phis in
    if nph > 0 then begin
      let active = popcount62 mask in
      (* Stage every incoming value first (parallel semantics). When all
         lanes came from one predecessor, each phi resolves its incoming
         once and copies the whole row; the staging rows are scratch, so
         inactive lanes may be copied too. *)
      let uniform = !uniform_prev in
      for pi = 0 to nph - 1 do
        let pbase = pi * ws in
        (match b.Decode.phis.(pi) with
        | Decode.Phi_f { inc; _ } ->
          if uniform >= 0 then
            copy_f fregs ~src:(incoming b inc uniform) st.ph_f ~dst:pbase ~mask:full_mask
              ~full:full_mask lanes
          else begin
            let mm = ref mask and l = ref 0 in
            while !mm <> 0 do
              if !mm land 1 <> 0 then
                st.ph_f.(pbase + !l) <-
                  Array.unsafe_get fregs (incoming b inc st.dprev.(!l) + !l);
              incr l;
              mm := !mm lsr 1
            done
          end
        | Decode.Phi_i { inc; _ } ->
          if uniform >= 0 then
            copy_i iregs ~src:(incoming b inc uniform) st.ph_i ~dst:pbase ~mask:full_mask
              ~full:full_mask lanes
          else begin
            let mm = ref mask and l = ref 0 in
            while !mm <> 0 do
              if !mm land 1 <> 0 then
                st.ph_i.(pbase + !l) <-
                  Array.unsafe_get iregs (incoming b inc st.dprev.(!l) + !l);
              incr l;
              mm := !mm lsr 1
            done
          end
        | Decode.Phi_p { inc; _ } ->
          if uniform >= 0 then begin
            let src = incoming b inc uniform in
            copy_i pbuf ~src st.ph_pb ~dst:pbase ~mask:full_mask ~full:full_mask lanes;
            copy_i poff ~src st.ph_po ~dst:pbase ~mask:full_mask ~full:full_mask lanes
          end
          else begin
            let mm = ref mask and l = ref 0 in
            while !mm <> 0 do
              if !mm land 1 <> 0 then begin
                let s = incoming b inc st.dprev.(!l) in
                st.ph_pb.(pbase + !l) <- Array.unsafe_get pbuf (s + !l);
                st.ph_po.(pbase + !l) <- Array.unsafe_get poff (s + !l)
              end;
              incr l;
              mm := !mm lsr 1
            done
          end);
        Cost.misc cost ~active
      done;
      (* Parallel semantics: all reads above, all writes here. *)
      for pi = 0 to nph - 1 do
        let src = pi * ws in
        match b.Decode.phis.(pi) with
        | Decode.Phi_f { dst; _ } -> copy_f st.ph_f ~src fregs ~dst ~mask ~full:full_mask lanes
        | Decode.Phi_i { dst; _ } -> copy_i st.ph_i ~src iregs ~dst ~mask ~full:full_mask lanes
        | Decode.Phi_p { dst; _ } ->
          copy_i st.ph_pb ~src pbuf ~dst ~mask ~full:full_mask lanes;
          copy_i st.ph_po ~src poff ~dst ~mask ~full:full_mask lanes
      done
    end
  in
  let push blk msk rpc =
    if !depth >= Array.length st.st_blk then begin
      let n = 2 * Array.length st.st_blk in
      let grow a = Array.append a (Array.make (n - Array.length a) 0) in
      st.st_blk <- grow st.st_blk;
      st.st_msk <- grow st.st_msk;
      st.st_rpc <- grow st.st_rpc
    end;
    st.st_blk.(!depth) <- blk;
    st.st_msk.(!depth) <- msk;
    st.st_rpc.(!depth) <- rpc;
    incr depth
  in
  let set_prev mask cur =
    if mask = full_mask then begin
      for l = 0 to lanes - 1 do
        Array.unsafe_set st.dprev l cur
      done;
      uniform_prev := cur
    end
    else begin
      let mm = ref mask and l = ref 0 in
      while !mm <> 0 do
        if !mm land 1 <> 0 then st.dprev.(!l) <- cur;
        incr l;
        mm := !mm lsr 1
      done;
      uniform_prev := -1
    end
  in
  (* Program counter within the current block after a barrier
     suspension; -1 when the next entry into the top block starts from
     its beginning. Everything else — flat register files, [dprev],
     [retired], the int-array stack — lives in [st] across suspensions,
     so resuming costs nothing and boxes nothing. *)
  let pend = ref (-1) in
  let step ~epoch =
    Cost.set_epoch cost epoch;
    let status = ref None in
    while Option.is_none !status do
      if !depth = 0 then status := Some Scheduler.Exited
      else begin
        let ti = !depth - 1 in
        Cost.guard cost ~limit:env.max_warp_cycles;
        let mask = st.st_msk.(ti) land lnot !retired in
        let cur = st.st_blk.(ti) in
        let rpc = st.st_rpc.(ti) in
        if mask = 0 then decr depth
        else if cur = rpc then decr depth
        else begin
          let b = blocks.(cur) in
          let k0 =
            if !pend >= 0 then begin
              (* Resuming mid-block: trace, fetch, and phis already
                 happened when the block was entered. *)
              let k = !pend in
              pend := -1;
              k
            end
            else begin
              (match env.tracer with
              | Some t ->
                Trace.record t
                  {
                    Trace.block_id;
                    warp_id;
                    label = b.Decode.orig;
                    mask = Mask.of_bits mask;
                  }
              | None -> ());
              Cost.fetch cost ~first:b.Decode.line_first ~last:b.Decode.line_last;
              exec_phis mask b;
              0
            end
          in
          let instrs = b.Decode.instrs in
          let ni = Array.length instrs in
          let k = ref k0 in
          let arrived = ref false in
          while (not !arrived) && !k < ni do
            (match instrs.(!k) with
            | Decode.D_sync ->
              Cost.sync cost ~mask;
              arrived := true
            | i -> exec_instr mask i);
            incr k
          done;
          if !arrived then begin
            pend := !k;
            status := Some Scheduler.Arrived
          end
          else begin
            let active = popcount62 mask in
            match b.Decode.term with
            | Decode.T_ret ->
              Cost.branch cost ~active;
              retired := !retired lor mask;
              decr depth
            | Decode.T_unreachable ->
              failwith
                (Printf.sprintf "simulator: reached unreachable bb%d" b.Decode.orig)
            | Decode.T_br target ->
              Cost.branch cost ~active;
              set_prev mask cur;
              if target = rpc then decr depth else st.st_blk.(ti) <- target
            | Decode.T_cbr { cond; if_true; if_false } ->
              Cost.branch cost ~active;
              let mt = ref 0 in
              if mask = full_mask then
                for l = 0 to lanes - 1 do
                  mt := !mt lor ((Array.unsafe_get iregs (cond + l) land 1) lsl l)
                done
              else begin
                let mm = ref mask and l = ref 0 in
                while !mm <> 0 do
                  if !mm land 1 <> 0 then
                    mt := !mt lor ((Array.unsafe_get iregs (cond + !l) land 1) lsl !l);
                  incr l;
                  mm := !mm lsr 1
                done
              end;
              let mt = !mt in
              let mf = mask land lnot mt in
              set_prev mask cur;
              if mf = 0 then begin
                if if_true = rpc then decr depth else st.st_blk.(ti) <- if_true
              end
              else if mt = 0 then begin
                if if_false = rpc then decr depth else st.st_blk.(ti) <- if_false
              end
              else begin
                Cost.diverge cost;
                let r = p.Decode.ipdom.(cur) in
                decr depth;
                if r >= 0 then push r mask rpc;
                let part_rpc = if r >= 0 then r else rpc in
                if if_false <> part_rpc then push if_false mf part_rpc;
                if if_true <> part_rpc then push if_true mt part_rpc
              end
          end
        end
      end
    done;
    Option.get !status
  in
  { Scheduler.step; cost }

let shard p (env : Warp.env) ~smem =
  let ws = env.device.Device.warp_size in
  (* One state per warp slot: the warps of a block are live concurrently
     under barrier scheduling, and each state is reused across every
     block of the shard. *)
  let states = Array.init ((env.block_dim + ws - 1) / ws) (fun _ -> state p env) in
  fun cost ~block_id ~warp_id ~lanes ->
    make env p states.(warp_id) ~smem cost ~block_id ~warp_id ~lanes
