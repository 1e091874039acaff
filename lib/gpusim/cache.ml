(* LRU over int keys in flat int arrays: nothing is allocated after
   [create].

   Entries are nodes [0 .. size - 1], threaded into a doubly-linked
   recency list by [prev]/[next] (-1 ends it). An open-addressing index
   (linear probing, backward-shift deletion) maps a key to its node, and
   [pos] remembers each node's index slot so [reset] clears exactly the
   live slots. Eviction picks the least recently touched key. *)

type t = {
  capacity : int;
  keys : int array;  (* node -> key *)
  prev : int array;  (* node -> node towards most recently used *)
  next : int array;  (* node -> node towards least recently used *)
  pos : int array;  (* node -> its slot in [index] *)
  index : int array;  (* slot -> node, or -1 when empty *)
  bits : int;  (* [index] holds [1 lsl bits] slots, at least twice [capacity] *)
  mutable size : int;
  mutable mru : int;
  mutable lru : int;
}

let create ~capacity =
  let capacity = max 1 capacity in
  let bits = ref 1 in
  while 1 lsl !bits < 2 * capacity do
    incr bits
  done;
  {
    capacity;
    keys = Array.make capacity 0;
    prev = Array.make capacity (-1);
    next = Array.make capacity (-1);
    pos = Array.make capacity 0;
    index = Array.make (1 lsl !bits) (-1);
    bits = !bits;
    size = 0;
    mru = -1;
    lru = -1;
  }

(* Fibonacci hashing: the top [bits] of the key times an odd constant,
   so keys that differ only in high bits (L1 keys carry the buffer id
   above bit 32) still spread. *)
let[@inline] home t key = (key * 0x1E37_79B9_7F4A_7C15) lsr (63 - t.bits)

let[@inline] wrap t i = i land ((1 lsl t.bits) - 1)

(* The slot holding [key], or the empty slot that ends its probe run. *)
let find t key =
  let i = ref (home t key) in
  while
    let n = Array.unsafe_get t.index !i in
    n >= 0 && Array.unsafe_get t.keys n <> key
  do
    i := wrap t (!i + 1)
  done;
  !i

(* Empty slot [i], shifting later members of its probe run back so that
   every remaining key stays reachable from its home slot. *)
let delete t i =
  let hole = ref i and j = ref (wrap t (i + 1)) in
  while t.index.(!j) >= 0 do
    let n = t.index.(!j) in
    (* [n] may fill the hole unless its home lies cyclically in
       (hole, j]. *)
    let h = home t t.keys.(n) in
    let stays = if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j in
    if not stays then begin
      t.index.(!hole) <- n;
      t.pos.(n) <- !hole;
      hole := !j
    end;
    j := wrap t (!j + 1)
  done;
  t.index.(!hole) <- -1

let unlink t n =
  let p = t.prev.(n) and s = t.next.(n) in
  if p >= 0 then t.next.(p) <- s else t.mru <- s;
  if s >= 0 then t.prev.(s) <- p else t.lru <- p

let push_front t n =
  t.prev.(n) <- -1;
  t.next.(n) <- t.mru;
  if t.mru >= 0 then t.prev.(t.mru) <- n else t.lru <- n;
  t.mru <- n

let touch t key =
  let i = find t key in
  let n = t.index.(i) in
  if n >= 0 then begin
    if n <> t.mru then begin
      unlink t n;
      push_front t n
    end;
    false
  end
  else begin
    let fresh = t.size < t.capacity in
    let n = if fresh then t.size else t.lru in
    if fresh then t.size <- t.size + 1
    else begin
      unlink t n;
      delete t t.pos.(n)
    end;
    (* Evicting may shift [key]'s probe run, so probe again. *)
    let i = if fresh then i else find t key in
    t.keys.(n) <- key;
    t.index.(i) <- n;
    t.pos.(n) <- i;
    push_front t n;
    true
  end

let mem t key = t.index.(find t key) >= 0

let reset t =
  for n = 0 to t.size - 1 do
    t.index.(t.pos.(n)) <- -1
  done;
  t.size <- 0;
  t.mru <- -1;
  t.lru <- -1
