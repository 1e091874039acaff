(* Every duration the benchmark reports, span or end to end, comes from
   bechamel's monotonic clock (CLOCK_MONOTONIC, nanoseconds). *)

let now () = Monotonic_clock.now ()
let to_s ns = Int64.to_float ns /. 1e9
let since t0 = to_s (Int64.sub (now ()) t0)

let time f =
  let t0 = now () in
  let v = f () in
  (v, since t0)
