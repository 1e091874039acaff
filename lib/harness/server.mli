(** The [uu serve] daemon: a long-lived compile-and-simulate server.

    One process, three layers of reuse a cold [uu run] can never have:

    - {b warm compiled modules}: requests sharing a
      [Uu_serve.Request.compile_key] (same source, config, target loop,
      pipeline version) reuse one optimized module and its warm decode
      cache, so only the first request pays compilation and decoding;
    - {b in-flight dedupe}: identical concurrent requests (same
      [Request.key]) join the one admitted job and all receive its
      result — N clients, one execution;
    - {b response cache}: completed [Ok] responses are persisted as
      raw documents in [Result_cache] (the store the experiment job
      graph uses too), so repeats across daemon restarts are served
      without touching the pool. Entries are checked against their
      length and digest on every hit; a corrupt one is dropped,
      counted, and recomputed, never served and never fatal.

    Concurrency model: a single reactor thread multiplexes every
    connection — listeners and sockets are nonblocking, [Unix.select]
    drives them, and a per-connection {!Uu_serve.Protocol.Codec}
    reassembles frames across partial reads while a write buffer absorbs
    partial writes — so one thread services hundreds of idle clients
    without a stack each. Admitted requests execute on a persistent
    [Uu_support.Parallel.Pool] of worker domains; completions come back
    to the reactor over a self-pipe. Between the two sits admission
    control: at most [max_running] requests execute at once, at most
    [max_queued] wait in bounded queues (requests whose module is
    already compiled queue ahead of cold compiles; ping/stats/shutdown
    are answered inline by the reactor and never queue), and anything
    beyond that is shed deterministically with a [busy] frame the client
    can back off on.

    Responses are deterministic functions of the request identity (see
    [Uu_serve.Response]), which is what makes all three reuse layers
    sound: however a request was served, the bytes are the ones a fresh
    execution would produce. *)

type t

val create :
  ?socket:string ->
  ?tcp:string * int ->
  ?domains:int ->
  ?cache_dir:string ->
  ?max_running:int ->
  ?max_queued:int ->
  unit ->
  t
(** Bind the listening unix socket (default [Protocol.default_socket ()],
    replacing a stale socket file) — and, when [tcp] is given, a TCP
    listener on that [host, port] as well (port [0] lets the kernel pick;
    see {!tcp}) — spawn the worker pool (default
    [Parallel.available_domains ()] domains), and open the response
    cache (default [results/cache], shared with the job graph and
    shareable between daemons). [max_running] bounds concurrently
    executing requests (default: the pool width); [max_queued] bounds
    the admission queue (default 256; [0] sheds everything that cannot
    start immediately).
    @raise Unix.Unix_error when a socket cannot be bound,
    [Failure] when the unix path exists and is not a socket. *)

val socket : t -> string

val tcp : t -> (string * int) option
(** The TCP endpoint actually bound, if any — with the kernel-assigned
    port when [create] was given port [0]. *)

val serve_forever : t -> unit
(** Run the reactor until a [Shutdown] op (or {!request_stop}), then
    drain: stop accepting (listeners closed, socket file unlinked),
    finish every admitted request — shedding new ones meanwhile — flush
    the write buffers, and tear down connections and the pool. *)

val request_stop : t -> unit
(** Begin the drain described at {!serve_forever} — the in-process
    equivalent of the [Shutdown] op, for embedding the daemon in tests
    and the bench driver. Safe to call from any thread. *)

val stats : t -> (string * int) list
(** The counters behind the [Stats] op: connections, requests by
    served-status, shed and errored requests, running/queued occupancy
    and their limits, in-flight and memoized-module population,
    response-cache hits/misses/corrupt entries, pool width. Safe to call
    from any thread. *)
