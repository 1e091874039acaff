(* The daemon: one reactor thread owns every connection, the admission
   queues and the result cache, under [t.mutex]; pool domains execute
   admitted requests and hand back serialized responses. Result frames
   are built by splicing those bytes, or a validated cache entry's, into
   a fixed frame prefix and suffix, so the reactor parses no response it
   ships. Every locked section takes the mutex through [Mutex.protect],
   and a step that raises for one connection fails that connection
   only, so no exception leaves the lock held or the other clients
   waiting. *)

open Uu_support
open Uu_core
open Uu_serve

(* A compiled-module memo entry. [ce_lock] is held while compiling and
   while simulating with the entry's module: the decode cache inside a
   [Runner.compiled] is single-domain, so simulations sharing one
   compiled module are serialized on its entry (different modules still
   run fully in parallel across the pool). *)
type compiled_entry = {
  ce_lock : Mutex.t;
  mutable ce_result : (Runner.compiled, string) result option;
}

(* One multiplexed connection. The reactor owns it exclusively: a codec
   accumulating partial reads, and a write buffer accumulating frames
   the socket hasn't accepted yet ([c_out_pos] is the flushed prefix). *)
type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_codec : Protocol.Codec.t;
  c_out : Buffer.t;
  mutable c_out_pos : int;
  mutable c_closing : bool;
      (* stop reading; close once the write buffer drains (set after a
         protocol error's error frame is queued) *)
}

(* A client waiting on an admitted request: which connection, which
   client-chosen frame id, and how its result frame will be tagged. *)
type waiter = { w_conn : int; w_id : int; w_served : Protocol.served }

(* An admitted request: queued until a pool slot frees, then running.
   Identical requests arriving meanwhile join [j_waiters] instead of
   being admitted again (the in-flight dedupe). *)
type job = {
  j_request : Request.t;
  mutable j_waiters : waiter list;  (* newest first *)
}

type listener = {
  l_fd : Unix.file_descr;
  l_tcp : bool;  (* accepted connections want TCP_NODELAY *)
}

type t = {
  socket_path : string;
  tcp_addr : (string * int) option;  (* as actually bound *)
  mutable listeners : listener list;  (* emptied when draining starts *)
  pool : Parallel.Pool.t;
  cache : Result_cache.t;
  max_running : int;
  max_queued : int;
  mutex : Mutex.t;
      (* One lock for all mutable daemon state. The reactor holds it
         while processing events (between selects, never across one);
         pool workers take it briefly for the compiled memo and to push
         completions; [stats]/[request_stop] take it from any thread. *)
  completions : (string * string * bool) Queue.t;  (* key, text, ok *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
      (* self-pipe: workers and [request_stop] nudge the reactor out of
         its select *)
  conns : (int, conn) Hashtbl.t;
  jobs : (string, job) Hashtbl.t;  (* every admitted, unfinished key *)
  q_warm : string Queue.t;
      (* admitted keys whose compiled module is already memoized — they
         skip compilation, so they run before cold keys *)
  q_cold : string Queue.t;
  compiled : (string, compiled_entry) Hashtbl.t;
  validated : (string, string) Hashtbl.t;
      (* key -> digest of the cache entry last found to pass the
         cache-entry rule (see [cached]); only keys and digests, never
         response bytes *)
  mutable next_conn_id : int;
  mutable n_running : int;
  mutable n_queued : int;
  mutable stop : bool;
  mutable draining : bool;
  mutable n_connections : int;
  mutable n_requests : int;
  mutable n_executed : int;
  mutable n_cache_served : int;
  mutable n_joined : int;
  mutable n_shed : int;
  mutable n_errors : int;
}

let protocol_version = "2"

let create ?socket ?tcp ?domains ?(cache_dir = Filename.concat "results" "cache")
    ?max_running ?(max_queued = 256) () =
  let socket_path =
    match socket with Some p -> p | None -> Protocol.default_socket ()
  in
  (* A stale socket file from a crashed daemon would make bind fail. *)
  (match Unix.lstat socket_path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink socket_path
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket" socket_path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let unix_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind unix_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen unix_fd 128;
  Unix.set_nonblock unix_fd;
  let tcp_listener =
    match tcp with
    | None -> None
    | Some (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.setsockopt fd Unix.SO_REUSEADDR true with Unix.Unix_error _ -> ());
      (try
         Unix.bind fd (Protocol.resolve_tcp (host, port));
         Unix.listen fd 128
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         (try Unix.close unix_fd with Unix.Unix_error _ -> ());
         (try Unix.unlink socket_path with Unix.Unix_error _ | Sys_error _ -> ());
         raise e);
      Unix.set_nonblock fd;
      (* Port 0 asks the kernel to pick; report what it chose. *)
      let bound_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      Some ({ l_fd = fd; l_tcp = true }, (host, bound_port))
  in
  let pool = Parallel.Pool.create ?domains () in
  let max_running =
    match max_running with Some n -> max 1 n | None -> Parallel.Pool.size pool
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    socket_path;
    tcp_addr = Option.map snd tcp_listener;
    listeners =
      { l_fd = unix_fd; l_tcp = false }
      :: (match tcp_listener with Some (l, _) -> [ l ] | None -> []);
    pool;
    cache = Result_cache.create ~dir:cache_dir;
    max_running;
    max_queued = max 0 max_queued;
    mutex = Mutex.create ();
    completions = Queue.create ();
    wake_r;
    wake_w;
    conns = Hashtbl.create 63;
    jobs = Hashtbl.create 31;
    q_warm = Queue.create ();
    q_cold = Queue.create ();
    compiled = Hashtbl.create 31;
    validated = Hashtbl.create 31;
    next_conn_id = 0;
    n_running = 0;
    n_queued = 0;
    stop = false;
    draining = false;
    n_connections = 0;
    n_requests = 0;
    n_executed = 0;
    n_cache_served = 0;
    n_joined = 0;
    n_shed = 0;
    n_errors = 0;
  }

let socket t = t.socket_path
let tcp t = t.tcp_addr

let stats_locked t =
  [
    ("serve.connections", t.n_connections);
    ("serve.requests", t.n_requests);
    ("serve.executed", t.n_executed);
    ("serve.cache_served", t.n_cache_served);
    ("serve.joined", t.n_joined);
    ("serve.shed", t.n_shed);
    ("serve.errors", t.n_errors);
    ("serve.running", t.n_running);
    ("serve.queued", t.n_queued);
    ("serve.max_running", t.max_running);
    ("serve.max_queued", t.max_queued);
    ("serve.open_connections", Hashtbl.length t.conns);
    ("serve.inflight", Hashtbl.length t.jobs);
    ("serve.compiled_modules", Hashtbl.length t.compiled);
    ("serve.cache_hits", Result_cache.hits t.cache);
    ("serve.cache_misses", Result_cache.misses t.cache);
    ("serve.cache_corrupt", Result_cache.corrupt t.cache);
    ("serve.pool_domains", Parallel.Pool.size t.pool);
  ]

let stats t = Mutex.protect t.mutex (fun () -> stats_locked t)

let wake t =
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    (* a wakeup is already pending *)
    ()
  | Unix.Unix_error (Unix.EPIPE, _, _) -> ()

let request_stop t =
  Mutex.protect t.mutex (fun () -> t.stop <- true);
  wake t

(* --- executing one request (on a pool domain) ----------------------- *)

let compiled_entry t r =
  let ckey = Request.compile_key r in
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.compiled ckey with
      | Some e -> e
      | None ->
        let e = { ce_lock = Mutex.create (); ce_result = None } in
        Hashtbl.add t.compiled ckey e;
        e)

(* The request goes through the one funnel; only its compile step is
   memoized. The first request for a compile identity compiles once, and
   every later request sharing it reuses the module and its warm decode
   cache. *)
let execute_response t r =
  let entry = compiled_entry t r in
  Mutex.protect entry.ce_lock (fun () ->
      let compile r =
        match entry.ce_result with
        | Some res -> res
        | None ->
          let res = Runner.compile_request r in
          entry.ce_result <- Some res;
          res
      in
      Runner.run_request ~compile r)

(* Runs on a pool domain; must always land a completion (the reactor's
   running count is balanced by it). [Runner.run_request] turns every
   exception of the request itself into an [Error]; printing is guarded
   here. The text is the serialized response — the exact bytes cached
   and spliced into result frames, never parsed again. *)
let run_job t ~key r () =
  let response = execute_response t r in
  let text, ok =
    try (Response.to_string response, Result.is_ok response)
    with e ->
      ( Response.to_string (Error ("internal error: " ^ Printexc.to_string e)),
        false )
  in
  Mutex.protect t.mutex (fun () -> Queue.push (key, text, ok) t.completions);
  wake t

(* --- reactor: frame output ------------------------------------------ *)

(* Every result frame splices serialized response bytes into a fixed
   frame prefix and suffix ([Protocol.result_frame]); the reactor never
   parses a response it ships. Executed and joined answers carry the
   bytes a pool worker printed with [Response.to_string]; a cache hit
   carries bytes [cached] has checked are exactly such output. *)

let queue_msg conn msg =
  Buffer.add_string conn.c_out
    (Protocol.encode_frame (Protocol.server_to_json msg))

let close_conn t conn =
  Hashtbl.remove t.conns conn.c_id;
  try Unix.close conn.c_fd with Unix.Unix_error _ -> ()

let hello_frame =
  Protocol.Hello
    {
      version = protocol_version;
      pipelines = Pipelines.version;
      semantics = Uu_gpusim.Kernel.semantics_version;
    }

(* --- reactor: scheduling -------------------------------------------- *)

(* Feed the pool from the admission queues, warm keys first, never more
   than [max_running] at once. Holds t.mutex (as all reactor steps do). *)
let rec pump t =
  if t.n_running < t.max_running then begin
    let next =
      if not (Queue.is_empty t.q_warm) then Some (Queue.pop t.q_warm)
      else if not (Queue.is_empty t.q_cold) then Some (Queue.pop t.q_cold)
      else None
    in
    match next with
    | None -> ()
    | Some key ->
      (match Hashtbl.find_opt t.jobs key with
      | None -> ()  (* unreachable: jobs outlive their queue entry *)
      | Some job ->
        t.n_queued <- t.n_queued - 1;
        t.n_running <- t.n_running + 1;
        Parallel.Pool.submit t.pool (run_job t ~key job.j_request));
      pump t
  end

(* A step for one connection (read, decode, admit, deliver, flush) that
   raised fails that connection alone: it gets an error frame, is closed
   once the frame is flushed, and counts in serve.errors. A connection
   that fails again while closing is closed at once. Every other
   connection carries on. *)
let guard t conn step =
  try step ()
  with e ->
    if conn.c_closing then close_conn t conn
    else begin
      t.n_errors <- t.n_errors + 1;
      let message = "internal error: " ^ Printexc.to_string e in
      (try queue_msg conn (Protocol.Error_msg { id = None; message })
       with Protocol.Protocol_error _ -> ());
      conn.c_closing <- true
    end

let deliver t { w_conn; w_id; w_served } text =
  match Hashtbl.find_opt t.conns w_conn with
  | None -> ()  (* the client hung up while its request ran *)
  | Some conn ->
    if not conn.c_closing then
      guard t conn (fun () ->
          Buffer.add_string conn.c_out
            (Protocol.result_frame ~id:w_id ~served:w_served text))

let complete t ~key ~text ~ok =
  t.n_running <- t.n_running - 1;
  t.n_executed <- t.n_executed + 1;
  if ok then (
    try Result_cache.store_raw t.cache ~key text
    with Sys_error _ | Unix.Unix_error _ -> ())
  else t.n_errors <- t.n_errors + 1;
  (match Hashtbl.find_opt t.jobs key with
  | None -> ()
  | Some job ->
    Hashtbl.remove t.jobs key;
    List.iter (fun w -> deliver t w text) (List.rev job.j_waiters));
  pump t

(* The cached bytes for [key], ready to splice. The cache has checked
   them against the digest in the entry's header. The first time this
   daemon meets a (key, digest) pair it also applies the cache-entry
   rule the job graph shares ([Response.of_cached]: an [Ok] response
   that prints back as exactly these bytes); an entry that fails is
   rejected like a torn one, so the request is recomputed. A pair that
   passed is spliced from then on without being parsed. *)
let cached t ~key =
  match Result_cache.lookup t.cache ~key with
  | None -> None
  | Some { Result_cache.payload; digest } -> (
    match Hashtbl.find_opt t.validated key with
    | Some d when String.equal d digest -> Some payload
    | _ ->
      if Option.is_some (Response.of_cached payload) then begin
        Hashtbl.replace t.validated key digest;
        Some payload
      end
      else begin
        Result_cache.reject t.cache ~key;
        None
      end)

(* Serve one request frame: join an identical in-flight one, read the
   result cache, admit it to the execution queue, or — over the queue
   bound, or while draining — shed it with a [busy] frame the client
   can back off on. A request [Request.check] refuses skips the cache:
   it is executed, and its answer is that [Error]. *)
let admit t conn ~id request =
  t.n_requests <- t.n_requests + 1;
  let key = Request.key request in
  match Hashtbl.find_opt t.jobs key with
  | Some job ->
    t.n_joined <- t.n_joined + 1;
    job.j_waiters <-
      { w_conn = conn.c_id; w_id = id; w_served = Protocol.Joined }
      :: job.j_waiters
  | None -> (
    let hit = if Result.is_ok (Request.check request) then cached t ~key else None in
    match hit with
    | Some text ->
      t.n_cache_served <- t.n_cache_served + 1;
      Buffer.add_string conn.c_out
        (Protocol.result_frame ~id ~served:Protocol.Cache text)
    | None ->
      if
        t.draining || t.stop
        || (t.n_running >= t.max_running && t.n_queued >= t.max_queued)
      then begin
        t.n_shed <- t.n_shed + 1;
        queue_msg conn
          (Protocol.Busy { id; queued = t.n_queued; limit = t.max_queued })
      end
      else begin
        let warm = Hashtbl.mem t.compiled (Request.compile_key request) in
        Hashtbl.add t.jobs key
          {
            j_request = request;
            j_waiters =
              [ { w_conn = conn.c_id; w_id = id; w_served = Protocol.Executed } ];
          };
        Queue.push key (if warm then t.q_warm else t.q_cold);
        t.n_queued <- t.n_queued + 1;
        pump t
      end)

let handle_msg t conn = function
  | Protocol.Request { id; request } -> admit t conn ~id request
  | Protocol.Stats -> queue_msg conn (Protocol.Stats_reply (stats_locked t))
  | Protocol.Ping -> queue_msg conn Protocol.Pong
  | Protocol.Shutdown ->
    queue_msg conn Protocol.Bye;
    t.stop <- true

(* --- reactor: connection I/O ---------------------------------------- *)

let pending_out conn = Buffer.length conn.c_out - conn.c_out_pos

(* Write as much of the buffered output as the socket accepts; resets
   the buffer when fully drained. Returns [false] when the peer is gone. *)
let flush_conn conn =
  let rec go () =
    let len = Buffer.length conn.c_out in
    if conn.c_out_pos >= len then begin
      Buffer.clear conn.c_out;
      conn.c_out_pos <- 0;
      true
    end
    else
      let chunk = min 65536 (len - conn.c_out_pos) in
      let s = Buffer.sub conn.c_out conn.c_out_pos chunk in
      match Unix.write_substring conn.c_fd s 0 chunk with
      | 0 -> true
      | n ->
        conn.c_out_pos <- conn.c_out_pos + n;
        go ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        true
      | exception Unix.Unix_error _ -> false
  in
  go ()

(* Pull every whole frame out of the codec. A protocol error queues one
   error frame and marks the connection closing (flush, then close) —
   resynchronizing inside a corrupt byte stream isn't possible. *)
let drain_frames t conn =
  let rec go () =
    if not conn.c_closing then
      match Protocol.Codec.next conn.c_codec with
      | None -> ()
      | Some json ->
        (match Protocol.client_of_json json with
        | Ok msg -> handle_msg t conn msg
        | Error e -> Protocol.fail "%s" e);
        go ()
  in
  try go ()
  with Protocol.Protocol_error msg ->
    (try queue_msg conn (Protocol.Error_msg { id = None; message = msg })
     with Protocol.Protocol_error _ -> ());
    conn.c_closing <- true

let read_conn t conn buf =
  let rec go () =
    match Unix.read conn.c_fd buf 0 (Bytes.length buf) with
    | 0 -> close_conn t conn  (* EOF: the client is done *)
    | n ->
      Protocol.Codec.feed conn.c_codec (Bytes.sub_string buf 0 n) ~off:0 ~len:n;
      drain_frames t conn;
      if n = Bytes.length buf then go ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error _ -> close_conn t conn
  in
  go ()

let accept_conns t l =
  let rec go () =
    match Unix.accept l.l_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      if l.l_tcp then (
        try Unix.setsockopt fd Unix.TCP_NODELAY true
        with Unix.Unix_error _ -> ());
      let conn =
        {
          c_id = t.next_conn_id;
          c_fd = fd;
          c_codec = Protocol.Codec.create ();
          c_out = Buffer.create 1024;
          c_out_pos = 0;
          c_closing = false;
        }
      in
      t.next_conn_id <- t.next_conn_id + 1;
      t.n_connections <- t.n_connections + 1;
      Hashtbl.add t.conns conn.c_id conn;
      queue_msg conn hello_frame;
      go ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let drain_wake_pipe t buf =
  let rec go () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> go ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  in
  go ()

(* --- the reactor loop ----------------------------------------------- *)

(* How long, once all admitted work has finished during a drain, the
   reactor keeps trying to flush write buffers toward clients that have
   stopped reading before it closes them anyway. *)
let drain_flush_grace = 5.0

let serve_forever t =
  (* A peer that hangs up mid-write must surface as EPIPE on the write
     (handled per-connection), not as a fatal SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let read_buf = Bytes.create 65536 in
  let flush_deadline = ref None in
  let teardown () =
    Mutex.protect t.mutex (fun () ->
        List.iter
          (fun l -> try Unix.close l.l_fd with Unix.Unix_error _ -> ())
          t.listeners;
        t.listeners <- [];
        Hashtbl.iter
          (fun _ conn -> try ignore (flush_conn conn) with _ -> ())
          t.conns;
        let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
        List.iter (fun c -> close_conn t c) conns);
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    (try Unix.unlink t.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
    Parallel.Pool.shutdown t.pool
  in
  (* Before a select, under the lock: the descriptors to select on and
     the timeout, or [None] once a drain has finished. *)
  let prepare () =
    (* Process whatever arrived since the last select: completions from
       pool workers first (they free slots and queue result frames). *)
    while not (Queue.is_empty t.completions) do
      let key, text, ok = Queue.pop t.completions in
      complete t ~key ~text ~ok
    done;
    (* A shutdown op or [request_stop] begins the drain: stop accepting
       (close the listeners, unlink the socket file so new connects fail
       fast), finish admitted work, flush write buffers, then exit. *)
    if t.stop && not t.draining then begin
      t.draining <- true;
      List.iter
        (fun l -> try Unix.close l.l_fd with Unix.Unix_error _ -> ())
        t.listeners;
      t.listeners <- [];
      try Unix.unlink t.socket_path with Unix.Unix_error _ | Sys_error _ -> ()
    end;
    (* Closing connections whose buffers drained can be dropped now. *)
    let flushed_closing =
      Hashtbl.fold
        (fun _ c acc -> if c.c_closing && pending_out c = 0 then c :: acc else acc)
        t.conns []
    in
    List.iter (fun c -> close_conn t c) flushed_closing;
    let work_left = Hashtbl.length t.jobs > 0 in
    let unflushed =
      Hashtbl.fold (fun _ c acc -> acc || pending_out c > 0) t.conns false
    in
    let finished =
      t.draining && (not work_left)
      &&
      if not unflushed then true
      else begin
        (match !flush_deadline with
        | None -> flush_deadline := Some (Clock.now () +. drain_flush_grace)
        | Some _ -> ());
        match !flush_deadline with
        | Some d -> Clock.now () > d
        | None -> false
      end
    in
    if finished then None
    else
      let reads =
        t.wake_r
        :: List.map (fun l -> l.l_fd) t.listeners
        @ Hashtbl.fold
            (fun _ c acc -> if c.c_closing then acc else c.c_fd :: acc)
            t.conns []
      in
      let writes =
        Hashtbl.fold
          (fun _ c acc -> if pending_out c > 0 then c.c_fd :: acc else acc)
          t.conns []
      in
      Some (reads, writes, if t.draining then 0.05 else 0.5)
  in
  (* After a select, under the lock: every ready descriptor's step. *)
  let handle readable writable =
    if List.mem t.wake_r readable then drain_wake_pipe t read_buf;
    List.iter
      (fun l -> if List.mem l.l_fd readable then accept_conns t l)
      t.listeners;
    (* Snapshot: handlers may close connections as they go. *)
    let live = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    List.iter
      (fun c ->
        if Hashtbl.mem t.conns c.c_id && List.mem c.c_fd readable then
          guard t c (fun () -> read_conn t c read_buf))
      live;
    List.iter
      (fun c ->
        if
          Hashtbl.mem t.conns c.c_id
          && (List.mem c.c_fd writable || pending_out c > 0)
        then guard t c (fun () -> if not (flush_conn c) then close_conn t c))
      live
  in
  let rec loop () =
    match Mutex.protect t.mutex prepare with
    | None -> ()
    | Some (reads, writes, timeout) ->
      let readable, writable =
        match Unix.select reads writes [] timeout with
        | r, w, _ -> (r, w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
      in
      Mutex.protect t.mutex (fun () -> handle readable writable);
      loop ()
  in
  Fun.protect ~finally:teardown loop
