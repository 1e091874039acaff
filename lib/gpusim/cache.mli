(** An LRU cache over [int] keys, used for both the instruction cache
    (keyed by line number) and the L1 data cache (keyed by
    [(buffer lsl 32) lor granule], negative for shared-memory buffers).
    Flat int arrays with an open-addressing index: {!touch} allocates
    nothing, and {!reset} costs time in proportion to the live entries. *)

type t

val create : capacity:int -> t
(** An empty cache holding at most [max 1 capacity] keys. *)

val touch : t -> int -> bool
(** Access a key, inserting it (and evicting the least recently used entry
    if full). Returns [true] on a miss. *)

val mem : t -> int -> bool

val reset : t -> unit
(** Drop every entry, keeping the capacity — indistinguishable from a
    fresh {!create}. The per-block L1 model resets one cache per block
    instead of allocating grid-size caches. *)
