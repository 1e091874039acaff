(** The serve daemon's wire protocol.

    Hand-rolled in the spirit of [Uu_support.Json]: the container ships
    no RPC library, and the protocol is small. Every message is one
    {e frame} — a 4-byte big-endian payload length followed by that many
    bytes of compact JSON — over a Unix-domain stream socket. The
    server speaks first (a [hello] frame carrying its versions, so a
    client can refuse a daemon whose pipeline or simulator semantics
    differ from its own); after that the client sends ops and the
    server answers each with exactly one frame, in order.

    Requests carry an [id] chosen by the client and echoed in the
    matching result frame. [served] reports how the daemon satisfied a
    request — executed fresh, read from the on-disk result cache, or
    joined onto an identical in-flight request — as frame metadata
    rather than response content, so the [Response.t] bytes stay
    identical across all three paths. *)

exception Protocol_error of string
(** Malformed traffic: mid-frame EOF, oversized frames, unparsable JSON,
    unknown ops. Never raised for a clean EOF at a frame boundary. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Protocol_error} with the formatted message. *)

val default_socket : unit -> string
(** [$UU_SERVE_SOCKET] when set, else [<tmpdir>/uu-serve.sock]. *)

val max_frame : int
(** Refuse frames above this payload size (64 MiB) in both directions —
    a corrupt length prefix must not trigger a giant allocation. *)

val encode_frame : Uu_support.Json.t -> string
(** The frame's wire bytes (length prefix + payload) as one string —
    what the reactor appends to a connection's write buffer.
    @raise Protocol_error if oversized. *)

val write_frame : out_channel -> Uu_support.Json.t -> unit
(** Write one frame and flush. @raise Protocol_error if oversized. *)

val read_frame : in_channel -> Uu_support.Json.t option
(** [None] on clean EOF at a frame boundary.
    @raise Protocol_error on malformed traffic. *)

(** Resumable frame decoding for nonblocking reads: the reactor feeds a
    connection's codec whatever bytes the kernel delivered — frames may
    be split anywhere, including inside the length prefix — and pulls
    whole frames out as they complete. One codec per connection. *)
module Codec : sig
  type t

  val create : unit -> t

  val feed : t -> string -> off:int -> len:int -> unit
  (** Append [len] raw bytes of [s] starting at [off].
      @raise Invalid_argument on an out-of-bounds slice. *)

  val next : t -> Uu_support.Json.t option
  (** [Some frame] when a whole frame is buffered (call again — one read
      can complete several frames), [None] when more bytes are needed.
      An oversized length prefix is rejected as soon as its 4 bytes are
      in, before any body accumulates.
      @raise Protocol_error on oversized frames or unparsable payloads. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed by {!next}. *)
end

val parse_tcp : string -> (string * int, string) result
(** Parse a [HOST:PORT] listener spec; an empty host means 127.0.0.1. *)

val resolve_tcp : string * int -> Unix.sockaddr
(** Resolve a host/port pair to a connectable address.
    @raise Failure when the host does not resolve. *)

(** {1 Typed messages} *)

type client_msg =
  | Request of { id : int; request : Request.t }
  | Stats  (** ask for the daemon's counters *)
  | Ping
  | Shutdown  (** answered with [Bye], then the daemon exits *)

type served = Executed | Cache | Joined

type server_msg =
  | Hello of { version : string; pipelines : string; semantics : string }
  | Result of { id : int; served : served; response : Response.t }
  | Busy of { id : int; queued : int; limit : int }
      (** admission control shed this request: the daemon's queue held
          [queued] entries against a capacity of [limit]. The request was
          not executed and will not be; the client should back off and
          retry. *)
  | Stats_reply of (string * int) list
  | Pong
  | Bye
  | Error_msg of { id : int option; message : string }
      (** protocol-level failure (bad frame, malformed request JSON);
          work-level failures travel as [Result] with an [Error]
          response *)

val served_string : served -> string

val client_to_json : client_msg -> Uu_support.Json.t
val client_of_json : Uu_support.Json.t -> (client_msg, string) result
val server_to_json : server_msg -> Uu_support.Json.t
val server_of_json : Uu_support.Json.t -> (server_msg, string) result

val result_frame : id:int -> served:served -> string -> string
(** The wire bytes of a [Result] frame around [text], a response's
    serialized bytes, spliced in without parsing. When [text] is
    [Response.to_string r], this is byte-equal to
    [encode_frame (server_to_json (Result { id; served; response = r }))];
    the daemon writes every result frame this way.
    @raise Protocol_error if oversized. *)

val write_client : out_channel -> client_msg -> unit
val read_server : in_channel -> server_msg option
(** Framing + codec in one step; [None] on clean EOF.
    @raise Protocol_error on malformed traffic. *)
