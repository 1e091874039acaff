(** Parser for the textual IR syntax emitted by {!Printer} — the two
    round-trip, so optimized IR can be saved, inspected, edited, and fed
    back to the simulator or used as compact test fixtures.

    The accepted grammar is exactly the printer's output:

    {v
    func @name(%p: i64* restrict, %n: i64) -> void {
    bb0.entry:
      %x.5 = add i64 %n, 1:i64
      condbr %c, bb1, bb2.exit
    ...
    }
    v}

    Register tokens are [%name.N] or [%N] — the trailing integer is the
    register id and the rest a hint. Labels are [bbN] or [bbN.hint]. *)

exception Error of string * int
(** Message and 1-based line number. *)

val parse_func : string -> Func.t
(** Parse one function. The result is verified ({!Verifier.check}); a
    function the verifier rejects is malformed input.
    @raise Error on malformed input, and no other exception. *)

val parse : string -> Func.modul
(** Parse a module: one or more functions.
    @raise Error on malformed input, and no other exception. *)
