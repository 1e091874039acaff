(** The one response type every compile-and-simulate entry point
    produces — the other half of the {!Request} pair.

    A response is deliberately deterministic: every field is a pure
    function of the request identity ({!Request.spec}), never of
    wall-clock time, engine choice, or domain count. That is what lets
    the daemon cache serialized responses byte-for-byte and serve
    identical bytes to identical requests at any concurrency.
    [compile_seconds] is the {e modeled} compile time (pass work units
    over modeled throughput, see [Uu_harness.Runner]), not a stopwatch. *)

open Uu_core

type measurement = {
  label : string;  (** kernel name *)
  kernel_cycles : float;
  code_bytes : int;
  metrics : Uu_gpusim.Metrics.t;
  races : string option;  (** racecheck report, when the request asked *)
  trace : string option;
      (** rendered SIMT schedule ({!Uu_gpusim.Trace.render}), when the
          request asked *)
}

type run = {
  kernel_ms : float;
      (** simulated time of the whole launch schedule, with this run's
          clock jitter *)
  transfer_ms : float;  (** modeled host-device transfer time *)
  code_bytes : int;
      (** every launched kernel's code plus the app's rest-of-binary *)
  metrics : Uu_gpusim.Metrics.t;  (** summed over the schedule's launches *)
  launches : measurement list;
      (** one entry per launch, in schedule order, when the request
          checks races or traces; empty otherwise *)
}
(** One simulation of a bundled app's launch schedule. *)

type body =
  | Compiled of { ir : string; instr_count : int }
      (** [mode = Compile]: the optimized IR of every kernel, printed *)
  | Measured of measurement list
      (** [mode = Run]: one entry per kernel, in source order *)
  | Scheduled of run list
      (** [mode = Schedule]: one entry per protocol run *)

type ok = {
  config : Pipelines.config;
  body : body;
  compile_seconds : float;  (** modeled, deterministic *)
  remarks : Uu_support.Remark.t list;
  stats : (string * int) list;
}

type t = (ok, string) result
(** [Error] carries the failure text (parse error, unknown app, oracle
    mismatch...) — a protocol-level answer, not an exception. *)

val render : t -> string
(** The human text both [uu run] and [uu request] print — byte-identical
    between them, including the racecheck report lines CI greps for. *)

val to_json : t -> Uu_support.Json.t
val of_json : Uu_support.Json.t -> (t, string) result

val to_string : t -> string
(** [to_json] rendered compactly — the exact bytes the daemon stores in
    the result cache and ships in result frames. *)

val of_string : string -> (t, string) result
