(** On-disk cache of serialized responses.

    Every cached answer — a daemon response, an experiment job's
    schedule response — is the [Uu_serve.Response.to_string] text of an
    [Ok] response, stored under its request's content hash
    ([Uu_serve.Request.key]). One file per key under
    [<dir>/<ab>/<key>.json] (canonically [results/cache/]), where [ab]
    is the key's first two hex digits — a 256-way fan-out, so the store
    stays a small-directory workload at millions of entries.

    {b Entry format.} A one-line header, then the stored bytes verbatim:
    {v uu-cache 1 <length> <md5-hex>\n<bytes> v}
    {!lookup_raw} returns the bytes only when their length and MD5 match
    the header. Anything else — a truncated, bit-flipped, empty or
    foreign file, including entries written before this format — is
    deleted, counted in {!corrupt}, and reported as a miss, so the
    caller recomputes and stores a good entry. Callers never see bytes
    the cache did not write.

    Entries never expire: the key already encodes everything a response
    depends on (including [Uu_core.Pipelines.version] and the
    simulator-semantics version [Uu_gpusim.Kernel.semantics_version]),
    so a stale entry is simply an entry nobody looks up anymore.

    The counters are unsynchronized: each cache is used from one thread
    at a time (the job graph's coordinating domain, the daemon's reactor
    under its lock). Stores write to a process-unique temporary file in
    the shard directory and rename, so a crash mid-write never leaves a
    truncated entry behind and several daemons can share one cache
    directory (identical keys always carry identical bytes, so a lost
    rename race still installs the right content). *)

type t

val create : dir:string -> t
(** Cache rooted at [dir]; the directory is created on first store. *)

val dir : t -> string

val lookup_raw : t -> key:string -> string option
(** Exactly the bytes {!store_raw} was given for [key], on a hit. [None]
    (counted as a miss) when the entry is absent, unreadable or fails
    its check; a failed check also deletes the entry and counts it in
    {!corrupt}. *)

val store_raw : t -> key:string -> string -> unit

val hits : t -> int
val misses : t -> int

val corrupt : t -> int
(** Entries dropped since [create] because they failed their length or
    digest check (each also counted as a miss). *)
