(** Simulated device memory: typed element buffers addressed by
    (buffer id, element offset) pointers. The host side creates global
    buffers, passes them as kernel arguments, and reads results back;
    kernels access global and shared buffers through a {!view}. *)

open Uu_ir

type buffer

type t
(** A global memory space. *)

val create : unit -> t

val alloc_f64 : t -> float array -> buffer
(** Copy a host array into a fresh f64 buffer. *)

val alloc_i64 : t -> int64 array -> buffer
(** Integers are stored unboxed as native [int]s.
    @raise Failure if a value does not fit in 63 bits. *)

val zeros_f64 : t -> int -> buffer
val zeros_i64 : t -> int -> buffer

val buffer_id : buffer -> int
val buffer_elt : buffer -> Types.t

val read_f64 : buffer -> float array
(** Copy a buffer back to the host. @raise Invalid_argument on non-f64. *)

val read_i64 : buffer -> int64 array

val fit : int64 -> int
(** Narrow to the simulator's 63-bit storage.
    @raise Failure when the value does not fit. *)

val dump : t -> (int * Eval.rvalue array) list
(** Snapshot of every buffer (id, copied contents) in allocation order —
    used by the engine-equivalence tests to compare whole memory spaces. *)

(** {1 A shard's view: both address spaces}

    Shared arrays live in a per-shard bank beside global memory. The
    first bank slots are the kernel's [__shared__] declarations; slots
    appended after them are per-block [Alloca] arenas ({!alloca}). A
    {!view} pairs the launch's global memory with one shard's bank and
    resolves any buffer id, global or shared, so every device access
    below exists once for both spaces. This module is the only one that
    knows which space an id names: everything else asks {!is_shared} and
    {!shared_slot}, or binds a declaration through {!shared_id}.

    The bank is created once per simulation shard, and at every block
    entry the declaration slots are zeroed and the arenas dropped
    ({!shared_reset}), so results are independent of how blocks are
    sharded across domains. *)

type view

val view : t -> (Types.t * int) list -> view
(** [view mem decls] pairs [mem] with a fresh bank of one zeroed array
    per kernel [shared] declaration [(elt, size)], in declaration order.
    @raise Invalid_argument on a non-positive size or an element type
    other than f64/i64. *)

val shared_id : int -> int
(** The buffer id of bank slot [k]: what a kernel's [k]-th [__shared__]
    declaration points at, for the whole launch. *)

val is_shared : int -> bool
(** [is_shared id] is true iff [id] addresses a shard's bank. *)

val shared_slot : int -> int
(** The bank slot of a shared buffer id (the inverse of {!shared_id}). *)

val shared_reset : view -> unit
(** Zero-fill every declaration array and drop the [Alloca] arenas — run
    at each block entry so blocks observe a freshly initialized bank
    regardless of execution order. *)

val alloca : view -> Types.t -> int -> int
(** Append a zero-initialized per-block arena of [size] elements after
    the declaration slots and return its (shared) buffer id. Arena ids
    follow the declarations in allocation order, and {!shared_reset}
    reclaims them — so within a block, an arena's id is a pure function
    of the block's own deterministic execution order. Backs [Alloca] in
    both engines (each warp-level [Alloca] allocates one arena with a
    private cell per lane). *)

(** {1 Device-side access}

    Every accessor resolves [buffer_id] in either space and raises
    [Failure] on an unknown buffer ([unknown buffer %d] or [unknown
    shared buffer %d]), an offset out of bounds, or an element-type
    mismatch. *)

val load : view -> buffer_id:int -> offset:int -> Eval.rvalue
val store : view -> buffer_id:int -> offset:int -> Eval.rvalue -> unit
(** Boxed access for the reference engine. *)

val elt_size : view -> buffer_id:int -> int
(** Element size in bytes, for coalescing and bank accounting. *)

(** Unboxed access for the decoded engine: allocation-free counterparts
    of {!load}/{!store}. Integer values are native [int]s — the
    simulator's integer domain is 63-bit (storing a value outside it
    raises, see {!alloc_i64}). *)

val loadi : view -> buffer_id:int -> offset:int -> int
val loadp : view -> buffer_id:int -> offset:int -> int * int
(** A pointer element as [(buffer, offset)]; only [Alloca] arenas hold
    pointers. *)

val fdata : view -> buffer_id:int -> float array
(** The live float payload of an f64 buffer (no copy) — float loads and
    stores read and write it directly so no box is allocated per lane.
    Callers bounds-check offsets against its length themselves and
    report a violation with {!out_of_bounds}. *)

val out_of_bounds : int -> int -> int -> 'a
(** [out_of_bounds buffer offset len] raises the [Failure] every
    accessor raises for an offset outside a buffer of [len] elements. *)

val storei : view -> buffer_id:int -> offset:int -> int -> unit
val storep : view -> buffer_id:int -> offset:int -> pbuffer:int -> poffset:int -> unit

val atomic_addi : view -> buffer_id:int -> offset:int -> int -> int
val atomic_addf : view -> buffer_id:int -> offset:int -> float -> float
(** Add in place and return the previous value. {!Atomics} applies shared
    adds with these at once and global ones only at its commit. *)

val atomic_readi : view -> buffer_id:int -> offset:int -> int
val atomic_readf : view -> buffer_id:int -> offset:int -> float
(** Read an atomic target without mutating it, with the exact checks of
    {!atomic_addi}/{!atomic_addf} — {!Atomics} snapshots a global cell's
    pristine value with these. *)
