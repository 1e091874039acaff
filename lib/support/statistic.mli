(** Global pass-statistics registry — named monotonic counters in the
    style of LLVM's [Statistic] (e.g. [gvn.loads_eliminated],
    [unmerge.paths_duplicated]).

    Counters are domain-local and always on: passes bump them
    unconditionally, and consumers interested in one compilation take a
    {!snapshot} before and after and {!diff} the two (the pass manager
    does exactly this, see [Uu_opt.Pass.report]). Each domain owns an
    independent registry, so experiment jobs running in parallel on a
    [Uu_support.Parallel] pool never see each other's increments; a
    handle from {!counter} is valid on every domain. *)

type t
(** A named monotonic counter. *)

val counter : string -> t
(** [counter name] returns the counter registered under [name], creating
    it on first use. Names are dotted [pass.event] identifiers by
    convention. Calling [counter] twice with the same name returns the
    same counter. *)

val incr : ?by:int -> t -> unit
(** Increment; [by] defaults to 1. *)

val value : t -> int
val name : t -> string

val snapshot : unit -> (string * int) list
(** All registered counters with their current values, sorted by name. *)

val diff : before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-name increase from [before] to [after]; names that did not grow
    are dropped. Counters unknown at [before] count from zero. *)

val merge : (string * int) list -> (string * int) list -> (string * int) list
(** Pointwise sum of two deltas, sorted by name. *)

val render : (string * int) list -> string
(** Aligned [name  value] lines, one per counter. *)
