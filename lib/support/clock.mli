(** The clock for deadlines and durations.

    [CLOCK_MONOTONIC] through bechamel's [Monotonic_clock]: unlike
    [Unix.gettimeofday] it never jumps when the wall clock is stepped
    (say by NTP), so a step forward cannot expire a budget early and a
    step back cannot stretch one. *)

val now : unit -> float
(** Seconds since an arbitrary origin; only differences are meaningful. *)
