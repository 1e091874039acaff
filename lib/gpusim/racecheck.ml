(* Write-set tracking for the order-independence audit. Every global
   plain store records its (buffer, offset) cell against the writing
   block; cells plain-written by more than one block are the launch's
   inter-block write overlaps. Global Atomic_add updates are recorded
   separately: atomics commute under the deferred block-ordered commit
   ([Atomics]), so atomic-only cells are never overlaps — but a cell
   that mixes a plain write from one block with an atomic update from
   another has no well-defined value and is reported as an overlap.

   Sharded launches give every shard a private collector and [merge]
   them at the join: counters are order-independent sums and every
   reported list is sorted, so the merged [report] is byte-identical to
   a serial run's.

   Shared arrays get their own intra-block check. They are private to a
   block, so the inter-block recorder must never see them (their ids
   repeat across blocks and would alias). Instead, every shared access
   is logged against the barrier interval ("epoch") it happened in: the
   barrier scheduler advances a block-global epoch each time it releases
   a __syncthreads barrier, and two threads of the same block conflict
   iff they touch the same shared cell in the same epoch with at least
   one write from a thread the other is not. Atomic updates are logged
   apart: they commute with each other, so a cell only atomics touched
   never races, but an atomic and a plain access by another thread do. *)

(* Bump whenever the report a launch produces for the same inputs
   changes; race-checked request keys fold it in. "2": a shared cell
   that only atomics touch never races. *)
let version = "2"

type access = Read | Write | Atomic

type shared_cell = {
  mutable s_writers : int list;
  mutable s_readers : int list;
  mutable s_atomics : int list;
}

type t = {
  (* cell -> distinct blocks that plain-wrote it, most recent first *)
  writers : (int * int, int list ref) Hashtbl.t;
  mutable writes : int;
  (* cell -> distinct blocks that atomically updated it *)
  atomics : (int * int, int list ref) Hashtbl.t;
  mutable atomic_updates : int;
  (* (block, shared slot, offset, epoch) -> distinct accessing threads *)
  shared : (int * int * int * int, shared_cell) Hashtbl.t;
  mutable shared_accesses : int;
}

type overlap = { buffer : int; offset : int; blocks : int list }

type shared_race = {
  s_block : int;
  s_slot : int;
  s_offset : int;
  s_epoch : int;
  s_threads : int list;
}

let create () =
  {
    writers = Hashtbl.create 1024;
    writes = 0;
    atomics = Hashtbl.create 64;
    atomic_updates = 0;
    shared = Hashtbl.create 1024;
    shared_accesses = 0;
  }

let add_block table key block_id =
  match Hashtbl.find_opt table key with
  | Some l -> if not (List.mem block_id !l) then l := block_id :: !l
  | None -> Hashtbl.add table key (ref [ block_id ])

let record t ~block_id ~buffer ~offset =
  t.writes <- t.writes + 1;
  add_block t.writers (buffer, offset) block_id

let record_atomic t ~block_id ~buffer ~offset =
  t.atomic_updates <- t.atomic_updates + 1;
  add_block t.atomics (buffer, offset) block_id

let add_thread l thread_id = if List.mem thread_id l then l else thread_id :: l

let record_shared t ~block_id ~thread_id ~slot ~offset ~epoch access =
  t.shared_accesses <- t.shared_accesses + 1;
  let key = (block_id, slot, offset, epoch) in
  let cell =
    match Hashtbl.find_opt t.shared key with
    | Some c -> c
    | None ->
      let c = { s_writers = []; s_readers = []; s_atomics = [] } in
      Hashtbl.add t.shared key c;
      c
  in
  match access with
  | Write -> cell.s_writers <- add_thread cell.s_writers thread_id
  | Read -> cell.s_readers <- add_thread cell.s_readers thread_id
  | Atomic -> cell.s_atomics <- add_thread cell.s_atomics thread_id

let writes t = t.writes
let cells t = Hashtbl.length t.writers
let atomic_updates t = t.atomic_updates
let atomic_cells t = Hashtbl.length t.atomics
let shared_accesses t = t.shared_accesses

let overlaps t =
  Hashtbl.fold
    (fun (buffer, offset) l acc ->
      let atomic =
        match Hashtbl.find_opt t.atomics (buffer, offset) with
        | Some a -> !a
        | None -> []
      in
      let racy =
        match !l with
        | [] -> false
        | [ b ] -> List.exists (fun a -> a <> b) atomic
        | _ :: _ :: _ -> true
      in
      if racy then
        { buffer; offset; blocks = List.sort_uniq compare (!l @ atomic) } :: acc
      else acc)
    t.writers []
  |> List.sort (fun a b -> compare (a.buffer, a.offset) (b.buffer, b.offset))

(* Merge a shard's collector into the launch-wide one. Counters are
   order-independent sums; block and thread lists dedupe exactly as
   [record]/[record_shared] would have, and every report list is sorted
   before printing — so merged reports are byte-identical to a serial
   run's for any shard split. *)
let merge ~into src =
  into.writes <- into.writes + src.writes;
  Hashtbl.iter
    (fun key l -> List.iter (add_block into.writers key) (List.rev !l))
    src.writers;
  into.atomic_updates <- into.atomic_updates + src.atomic_updates;
  Hashtbl.iter
    (fun key l -> List.iter (add_block into.atomics key) (List.rev !l))
    src.atomics;
  into.shared_accesses <- into.shared_accesses + src.shared_accesses;
  Hashtbl.iter
    (fun key c ->
      match Hashtbl.find_opt into.shared key with
      | Some dst ->
        let merge into src = List.fold_left add_thread into (List.rev src) in
        dst.s_writers <- merge dst.s_writers c.s_writers;
        dst.s_readers <- merge dst.s_readers c.s_readers;
        dst.s_atomics <- merge dst.s_atomics c.s_atomics
      | None ->
        Hashtbl.add into.shared key
          { s_writers = c.s_writers; s_readers = c.s_readers; s_atomics = c.s_atomics })
    src.shared

let shared_races t =
  Hashtbl.fold
    (fun (block, slot, offset, epoch) c acc ->
      let racy_readers =
        List.filter (fun r -> not (List.mem r c.s_writers)) c.s_readers
      in
      let plain_conflict =
        match c.s_writers with
        | [] -> false
        | [ _ ] -> racy_readers <> []
        | _ :: _ :: _ -> true
      in
      let plain = c.s_writers @ c.s_readers in
      let atomic_conflict =
        List.exists (fun a -> List.exists (fun p -> p <> a) plain) c.s_atomics
      in
      if plain_conflict || atomic_conflict then
        {
          s_block = block;
          s_slot = slot;
          s_offset = offset;
          s_epoch = epoch;
          s_threads =
            List.sort_uniq compare
              (c.s_writers @ racy_readers @ if atomic_conflict then c.s_atomics else []);
        }
        :: acc
      else acc)
    t.shared []
  |> List.sort (fun a b ->
         compare
           (a.s_block, a.s_slot, a.s_offset, a.s_epoch)
           (b.s_block, b.s_slot, b.s_offset, b.s_epoch))

let report t =
  let global =
    match overlaps t with
    | [] ->
      Printf.sprintf
        "race check: no inter-block write overlaps (%d writes to %d cells)"
        (writes t) (cells t)
    | os ->
      let head =
        Printf.sprintf
          "race check: %d cell(s) written by more than one block (%d writes to \
           %d cells)"
          (List.length os) (writes t) (cells t)
      in
      let lines =
        List.map
          (fun o ->
            Printf.sprintf "  buffer %d offset %d <- blocks %s" o.buffer o.offset
              (String.concat ", " (List.map string_of_int o.blocks)))
          os
      in
      String.concat "\n" (head :: lines)
  in
  let global =
    if t.atomic_updates = 0 then global
    else
      global
      ^ Printf.sprintf
          "\n  atomics: %d atomic update(s) to %d cell(s), committed in block \
           order"
          (atomic_updates t) (atomic_cells t)
  in
  if t.shared_accesses = 0 then global
  else
    let shared =
      match shared_races t with
      | [] ->
        Printf.sprintf
          "  shared race check: no intra-block conflicts (%d accesses)"
          t.shared_accesses
      | rs ->
        let head =
          Printf.sprintf
            "  shared race check: %d racy cell(s) within a barrier interval (%d \
             accesses)"
            (List.length rs) t.shared_accesses
        in
        let lines =
          List.map
            (fun r ->
              Printf.sprintf
                "    block %d shared slot %d offset %d epoch %d <- threads %s"
                r.s_block r.s_slot r.s_offset r.s_epoch
                (String.concat ", " (List.map string_of_int r.s_threads)))
            rs
        in
        String.concat "\n" (head :: lines)
    in
    global ^ "\n" ^ shared
