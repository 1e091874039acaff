open Uu_ir

(* Atomic adds over a shard's memory view.

   A shared cell is private to its block, and a block runs on one
   shard, so a shared add applies in place at once.

   A global add is deferred. Each simulation shard owns one collector.
   During the grid walk no atomic ever mutates global memory: the first
   atomic touching a cell snapshots its pristine value, and every update
   only grows the current block's private delta. The old value an
   [Atomic_add] returns is therefore [pristine + the block's own
   accumulated delta] — a pure function of the block's deterministic
   execution, independent of which domain simulated which other blocks,
   at any [sim_jobs] width (including 1: Kernel uses this path
   unconditionally).

   After the shard join, [commit] applies the per-block deltas to global
   memory; Kernel commits shards in ascending order and each shard's
   deltas are recorded in ascending block order, so a float cell's final
   value is the fold [((pristine +. d_b0) +. d_b1) +. ...] — one fixed
   summation order for every width and both engines.

   Cells that are plain-written by one block and atomically updated by
   another are inter-block races (the race checker flags them); for such
   inputs the pristine snapshot is not well-defined and neither is the
   result, exactly as on real hardware. *)

type cell = {
  buffer : int;
  offset : int;
  is_float : bool;
  base_i : int;
  base_f : float;
  mutable cur_block : int;
  mutable cur_i : int;
  mutable cur_f : float;
  (* (block, int delta, float delta) of earlier blocks, most recent
     first; blocks of a shard run in ascending order, so reversing this
     list at commit restores it. *)
  mutable flushed : (int * int * float) list;
}

(* Cells keyed by one int, so a lane's lookup allocates nothing. *)
module Cells = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = { mem : Memory.view; cells : cell Cells.t }

let create mem = { mem; cells = Cells.create 64 }

(* Global buffer ids are small non-negative allocation indices and a
   real cell's offset fits in 32 bits, so [(buffer lsl 32) lor offset]
   names each cell once. Any other pair is out of bounds: it gets -1,
   which names no cell, and the pristine read reports its failure. *)
let key ~buffer ~offset =
  if buffer >= 0 && buffer < 1 lsl 30 && offset >= 0 && offset < 1 lsl 32 then
    (buffer lsl 32) lor offset
  else -1

let cell t ~block_id ~buffer ~offset ~is_float =
  let key = key ~buffer ~offset in
  match Cells.find t.cells key with
  | c ->
    if c.is_float <> is_float then
      failwith "simulated memory: atomic_add type mismatch";
    if c.cur_block <> block_id then begin
      c.flushed <- (c.cur_block, c.cur_i, c.cur_f) :: c.flushed;
      c.cur_block <- block_id;
      c.cur_i <- 0;
      c.cur_f <- 0.0
    end;
    c
  | exception Not_found ->
    (* The pristine read carries the unknown-buffer, out-of-bounds, and
       type-mismatch failures of the in-place atomics. *)
    let base_i =
      if is_float then 0 else Memory.atomic_readi t.mem ~buffer_id:buffer ~offset
    in
    let base_f =
      if is_float then Memory.atomic_readf t.mem ~buffer_id:buffer ~offset
      else 0.0
    in
    let c =
      {
        buffer;
        offset;
        is_float;
        base_i;
        base_f;
        cur_block = block_id;
        cur_i = 0;
        cur_f = 0.0;
        flushed = [];
      }
    in
    Cells.add t.cells key c;
    c

let addi t ~block_id ~buffer ~offset v =
  if Memory.is_shared buffer then Memory.atomic_addi t.mem ~buffer_id:buffer ~offset v
  else begin
    let c = cell t ~block_id ~buffer ~offset ~is_float:false in
    let old = c.base_i + c.cur_i in
    c.cur_i <- c.cur_i + v;
    old
  end

let addf t ~block_id ~buffer ~offset v =
  if Memory.is_shared buffer then Memory.atomic_addf t.mem ~buffer_id:buffer ~offset v
  else begin
    let c = cell t ~block_id ~buffer ~offset ~is_float:true in
    let old = c.base_f +. c.cur_f in
    c.cur_f <- c.cur_f +. v;
    old
  end

let add t ~block_id ~buffer ~offset v =
  match v with
  | Eval.Int x ->
    (* The cell's unknown-buffer, out-of-bounds and type-mismatch
       failures precede the 63-bit fit failure: adding 0 first runs
       those checks and changes nothing. *)
    ignore (addi t ~block_id ~buffer ~offset 0);
    Eval.Int (Int64.of_int (addi t ~block_id ~buffer ~offset (Memory.fit x)))
  | Eval.Float x -> Eval.Float (addf t ~block_id ~buffer ~offset x)
  | Eval.Ptr _ ->
    (* An in-place add checks its cell before the value's type; a
       deferred one fails at once. *)
    if Memory.is_shared buffer then ignore (addi t ~block_id ~buffer ~offset 0);
    failwith "simulated memory: atomic_add type mismatch"

let commit t =
  Cells.iter
    (fun _ c ->
      List.iter
        (fun (_, di, df) ->
          if c.is_float then
            ignore
              (Memory.atomic_addf t.mem ~buffer_id:c.buffer ~offset:c.offset df)
          else
            ignore
              (Memory.atomic_addi t.mem ~buffer_id:c.buffer ~offset:c.offset di))
        (List.rev ((c.cur_block, c.cur_i, c.cur_f) :: c.flushed)))
    t.cells
