(** Structured optimization remarks — the reproduction's analogue of
    LLVM's [-Rpass]/[-Rpass-missed] machinery.

    A remark records one decision an optimization made: a transform it
    {!Applied}, an opportunity it {!Missed} (with the reason and the
    numbers that drove the decision), or a pure {!Analysis} observation.
    Remarks carry the pass name, the enclosing function, an optional
    basic-block location (a loop header or merge block label), and a typed
    key/value payload — e.g. the u&u heuristic attaches the computed
    [p], [s], [u] and the bound [c] of the paper's [f(p,s,u) < c] test.

    Emission is dynamically scoped: the pass manager installs a {!sink}
    with {!with_sink} for the duration of a pipeline run, and passes call
    {!emit} (or the {!applied}/{!missed}/{!analysis} shorthands) without
    knowing who is listening. When no sink is active, [emit] is a no-op,
    so instrumented passes cost nothing in ordinary runs. *)

type kind = Applied | Missed | Analysis

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type t = {
  kind : kind;
  pass : string;        (** pass name as registered with the manager *)
  func : string;        (** enclosing function *)
  block : int option;   (** basic-block label ([Uu_ir.Value.label]) *)
  message : string;
  args : (string * arg) list;  (** typed payload, in emission order *)
}

(** {1 Sinks} *)

type sink
(** A mutable collection of remarks, in emission order. *)

val create : unit -> sink
val remarks : sink -> t list
val clear : sink -> unit

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s body] makes [s] the active sink while [body] runs,
    restoring the previously active sink (if any) afterwards, also on
    exceptions. Nested calls shadow correctly. The active sink is
    domain-local: installing a sink on one domain is invisible to work
    running on other domains (see [Uu_support.Parallel]). *)

val enabled : unit -> bool
(** Whether a sink is currently active — lets a pass skip building an
    expensive payload when nobody is listening. *)

(** {1 Emission} *)

val emit :
  kind:kind ->
  pass:string ->
  func:string ->
  ?block:int ->
  ?args:(string * arg) list ->
  string ->
  unit
(** Append to the active sink; no-op when none is installed. *)

val applied :
  pass:string -> func:string -> ?block:int -> ?args:(string * arg) list -> string -> unit

val missed :
  pass:string -> func:string -> ?block:int -> ?args:(string * arg) list -> string -> unit

val analysis :
  pass:string -> func:string -> ?block:int -> ?args:(string * arg) list -> string -> unit

(** {1 Inspection} *)

val int_arg : t -> string -> int option

(** {1 Rendering} *)

val to_text : t -> string
(** One line: ["missed: uu-heuristic: @rainflow bb4: ... {p=6, s=42, u=8, c=1024}"]. *)

val to_json : t -> string
(** One JSON object with fields [kind], [pass], [function], [block]
    (omitted when absent), [message], [args] (omitted when empty). *)

val list_to_json : t list -> string
(** A well-formed JSON array of {!to_json} objects. *)

val stats_to_json : (string * int) list -> string
(** A flat JSON object mapping counter names to values. *)

val to_json_value : t -> Json.t
(** The same shape as {!to_json}, as a [Json.t] tree — used by the
    on-disk result cache, which needs to parse remarks back. *)

val of_json_value : Json.t -> (t, string) result
(** Inverse of {!to_json_value}. *)
