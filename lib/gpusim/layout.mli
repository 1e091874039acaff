(** Code layout and instruction cache.

    Blocks are laid out linearly in reverse postorder, [instr_bytes] per
    instruction (phis and the terminator included). A warp entering a
    block touches its lines in an LRU instruction cache and {!Cost.fetch}
    stalls it per missed line — the mechanism by which heavily duplicated
    loops (u&u with large factors) lose performance to fetch stalls, as
    the paper observes for [complex] and [haccmk] (§V). *)

open Uu_ir

type t

val compute : Device.t -> Func.t -> t

val code_bytes : t -> int
(** Total laid-out code size of the function. *)

type icache = Cache.t
(** LRU over line addresses, charged by {!Cost.fetch}. *)

val icache_create : Device.t -> icache

val lines : t -> Value.label -> int * int
(** First and last icache line of a block's code. *)
