(** A minimal JSON tree, printer, and parser.

    The container ships no JSON library, and the harness needs a real
    round-trip (the on-disk result cache stores serialized measurements
    that later runs must read back), so this module implements the small
    subset of JSON the repository emits: finite numbers, strings with
    standard escapes, booleans, null, arrays, and objects. Integers and
    floats are kept distinct: the printer writes every finite float with
    a fraction or exponent (an integral one below 1e17 as ["%.1f"]), so
    [of_string] recovers the original constructor and value. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). Non-finite floats
    are rendered as strings (["inf"], ["-inf"], ["nan"]) since JSON has
    no literal for them. *)

val of_string : string -> (t, string) result
(** Parse one JSON document; trailing garbage is an error. Numbers with
    a ['.'], ['e'], or ['E'] parse as {!Float}, all others as {!Int}
    (falling back to {!Float} on int overflow). An error names what was
    wrong and the byte offset where the parser stopped. The parser reads
    the input in place: it allocates nothing per byte, and a string
    without escapes costs one copy. It sits on the daemon's and the
    client's hot path (every request frame, every result frame). *)

val of_string_exn : string -> t
(** @raise Failure on a parse error. *)

(** {1 Accessors}

    Total accessors returning [option]; they make the cache decoder
    explicit about shape mismatches instead of raising. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing fields and non-objects. *)

val to_int : t -> int option
val to_float : t -> float option
(** [to_float] accepts both {!Int} and {!Float}. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option
