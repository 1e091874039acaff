open Uu_ir

(* Buffers store their elements unboxed, selected by element type: floats
   in a flat [float array], integers as native [int]s (the simulator's
   integer values are 63-bit; see the fit check in [storei]), pointers as
   parallel buffer/offset arrays. This keeps kernel-side loads and stores
   allocation-free for the decoded engine, and makes host-side workload
   setup a plain array copy instead of an element-wise boxing map. *)
type payload =
  | F of float array
  | I of int array
  | P of { pbuf : int array; poff : int array }

type buffer = { id : int; elt : Types.t; esz : int; payload : payload }

(* Buffer ids are allocated densely from 0, so the id -> buffer table is a
   growable array rather than a hashtable: [find] on the load/store path
   is a bounds check and an array read. *)
type t = { mutable buffers : buffer option array; mutable next_id : int }

let create () = { buffers = Array.make 16 None; next_id = 0 }

let register t b =
  if t.next_id >= Array.length t.buffers then begin
    let grown = Array.make (2 * Array.length t.buffers) None in
    Array.blit t.buffers 0 grown 0 (Array.length t.buffers);
    t.buffers <- grown
  end;
  t.buffers.(b.id) <- Some b;
  t.next_id <- t.next_id + 1

let payload_len = function
  | F a -> Array.length a
  | I a -> Array.length a
  | P { pbuf; _ } -> Array.length pbuf

let int_fits v = Int64.of_int (Int64.to_int v) = v

let fit v =
  if int_fits v then Int64.to_int v
  else
    failwith
      (Printf.sprintf
         "simulated memory: integer %Ld does not fit the simulator's 63-bit \
          storage"
         v)

let alloc t elt payload =
  let b = { id = t.next_id; elt; esz = Types.size_bytes elt; payload } in
  register t b;
  b

let alloc_f64 t host = alloc t Types.F64 (F (Array.copy host))
let alloc_i64 t host = alloc t Types.I64 (I (Array.map fit host))
let zeros_f64 t n = alloc t Types.F64 (F (Array.make n 0.0))
let zeros_i64 t n = alloc t Types.I64 (I (Array.make n 0))

let buffer_id b = b.id
let buffer_elt b = b.elt

let find t id =
  if id >= 0 && id < t.next_id then
    match t.buffers.(id) with Some b -> b | None -> assert false
  else failwith (Printf.sprintf "simulated memory: unknown buffer %d" id)

let read_f64 b =
  match b.payload with
  | F a -> Array.copy a
  | I _ | P _ -> invalid_arg "Memory.read_f64: not an f64 buffer"

let read_i64 b =
  match b.payload with
  | I a -> Array.map Int64.of_int a
  | F _ | P _ -> invalid_arg "Memory.read_i64: not an i64 buffer"

(* Block-scoped shared memory, and the one place that tells the address
   spaces apart.

   Shared arrays live in a per-shard bank addressed by negative buffer
   ids: slot [k] is buffer [-2 - k] (id -1 stays the null/undef pointer,
   so [is_shared] is a single compare). The first [decls] slots are the
   kernel's [__shared__] declarations; slots appended after them are
   per-block [Alloca] arenas ([alloca]). The bank is created once per
   simulation shard, and at every block entry the declaration slots are
   zeroed and the arenas dropped ([shared_reset]) — so an arena's id is a
   pure function of the block's own deterministic execution order, never
   of global allocation order, which keeps block-order sharding
   byte-identical for any [sim_jobs].

   A [view] pairs the launch's global memory with one shard's bank, and
   [resolve] maps any buffer id to its buffer: every device access below
   is written once over it. *)

type view = {
  global : t;
  mutable slots : buffer array;  (* declarations, then live arenas *)
  mutable n : int;               (* live slots: [decls] + arenas *)
  decls : int;
}

let is_shared id = id < -1
let shared_id k = -2 - k
let shared_slot id = -2 - id

let view global decl_list =
  let slots =
    Array.of_list
      (List.mapi
         (fun k (elt, size) ->
           if size <= 0 then
             invalid_arg (Printf.sprintf "Memory.view: non-positive shared size %d" size);
           let payload =
             match elt with
             | Types.F64 -> F (Array.make size 0.0)
             | Types.I64 -> I (Array.make size 0)
             | other ->
               invalid_arg
                 (Printf.sprintf "Memory.view: unbankable element type %s"
                    (Types.to_string other))
           in
           { id = shared_id k; elt; esz = Types.size_bytes elt; payload })
         decl_list)
  in
  let n = Array.length slots in
  { global; slots; n; decls = n }

let shared_reset v =
  for k = 0 to v.decls - 1 do
    match v.slots.(k).payload with
    | F a -> Array.fill a 0 (Array.length a) 0.0
    | I a -> Array.fill a 0 (Array.length a) 0
    | P _ -> assert false
  done;
  v.n <- v.decls

let alloca v elt size =
  let payload =
    match elt with
    | Types.F64 -> F (Array.make size 0.0)
    | Types.I1 | Types.I32 | Types.I64 | Types.Void -> I (Array.make size 0)
    | Types.Ptr _ -> P { pbuf = Array.make size (-1); poff = Array.make size 0 }
  in
  let b = { id = shared_id v.n; elt; esz = Types.size_bytes elt; payload } in
  if v.n >= Array.length v.slots then begin
    let cap = max 4 (2 * Array.length v.slots) in
    let grown = Array.make cap b in
    Array.blit v.slots 0 grown 0 v.n;
    v.slots <- grown
  end;
  v.slots.(v.n) <- b;
  v.n <- v.n + 1;
  b.id

let[@inline] resolve v id =
  if is_shared id then begin
    let k = shared_slot id in
    if k < v.n then v.slots.(k)
    else failwith (Printf.sprintf "simulated memory: unknown shared buffer %d" id)
  end
  else find v.global id

(* {1 Device access} *)

let out_of_bounds buffer offset len =
  failwith
    (Printf.sprintf "simulated memory: buffer %d access out of bounds (%d of %d)" buffer
       offset len)

let check b offset =
  let len = payload_len b.payload in
  if offset < 0 || offset >= len then out_of_bounds b.id offset len

let type_confusion b what =
  failwith
    (Printf.sprintf "simulated memory: buffer %d holds %s, accessed as %s" b.id
       (Types.to_string b.elt) what)

let atomic_mismatch () = failwith "simulated memory: atomic_add type mismatch"

let elt_size v ~buffer_id = (resolve v buffer_id).esz

let load v ~buffer_id ~offset =
  let b = resolve v buffer_id in
  check b offset;
  match b.payload with
  | F a -> Eval.Float a.(offset)
  | I a -> Eval.Int (Int64.of_int a.(offset))
  | P { pbuf; poff } -> Eval.Ptr { buffer = pbuf.(offset); offset = poff.(offset) }

let store v ~buffer_id ~offset x =
  let b = resolve v buffer_id in
  check b offset;
  match b.payload, x with
  | F a, Eval.Float x -> a.(offset) <- x
  | I a, Eval.Int x -> a.(offset) <- fit x
  | P { pbuf; poff }, Eval.Ptr p ->
    pbuf.(offset) <- p.buffer;
    poff.(offset) <- p.offset
  | F _, (Eval.Int _ | Eval.Ptr _) -> type_confusion b "a non-float"
  | I _, (Eval.Float _ | Eval.Ptr _) -> type_confusion b "a non-integer"
  | P _, (Eval.Float _ | Eval.Int _) -> type_confusion b "a non-pointer"

let fdata v ~buffer_id =
  let b = resolve v buffer_id in
  match b.payload with
  | F a -> a
  | I _ | P _ -> type_confusion b "a float"

let loadi v ~buffer_id ~offset =
  let b = resolve v buffer_id in
  check b offset;
  match b.payload with
  | I a -> a.(offset)
  | F _ | P _ -> type_confusion b "an integer"

let loadp v ~buffer_id ~offset =
  let b = resolve v buffer_id in
  check b offset;
  match b.payload with
  | P { pbuf; poff } -> (pbuf.(offset), poff.(offset))
  | F _ | I _ -> type_confusion b "a pointer"

let storei v ~buffer_id ~offset x =
  let b = resolve v buffer_id in
  check b offset;
  match b.payload with
  | I a -> a.(offset) <- x
  | F _ | P _ -> type_confusion b "an integer"

let storep v ~buffer_id ~offset ~pbuffer ~poffset =
  let b = resolve v buffer_id in
  check b offset;
  match b.payload with
  | P { pbuf; poff } ->
    pbuf.(offset) <- pbuffer;
    poff.(offset) <- poffset
  | F _ | I _ -> type_confusion b "a pointer"

let atomic_readi v ~buffer_id ~offset =
  let b = resolve v buffer_id in
  check b offset;
  match b.payload with I a -> a.(offset) | F _ | P _ -> atomic_mismatch ()

let atomic_readf v ~buffer_id ~offset =
  let b = resolve v buffer_id in
  check b offset;
  match b.payload with F a -> a.(offset) | I _ | P _ -> atomic_mismatch ()

let atomic_addi v ~buffer_id ~offset x =
  let b = resolve v buffer_id in
  check b offset;
  match b.payload with
  | I a ->
    let old = a.(offset) in
    a.(offset) <- old + x;
    old
  | F _ | P _ -> atomic_mismatch ()

let atomic_addf v ~buffer_id ~offset x =
  let b = resolve v buffer_id in
  check b offset;
  match b.payload with
  | F a ->
    let old = a.(offset) in
    a.(offset) <- old +. x;
    old
  | I _ | P _ -> atomic_mismatch ()

let dump t =
  List.init t.next_id (fun id ->
      let b = find t id in
      let data =
        match b.payload with
        | F a -> Array.map (fun x -> Eval.Float x) a
        | I a -> Array.map (fun x -> Eval.Int (Int64.of_int x)) a
        | P { pbuf; poff } ->
          Array.init (Array.length pbuf) (fun i ->
              Eval.Ptr { buffer = pbuf.(i); offset = poff.(i) })
      in
      (id, data))
