(* The block-level barrier scheduler: the one owner of the
   warps-within-a-block execution loop for both engines.

   A block's warps are resumable computations — the [step] of a warp
   built by [Warp.make] or [Decoded_warp.shard] — that run until they
   either arrive at a [__syncthreads()] barrier or exit. The scheduler
   drives them in rounds: run every live warp in ascending warp order
   until it suspends, then — if any warp arrived at a barrier — verify the
   barrier is convergent (every warp of the block must reach it; a warp
   that exited instead is the divergent-barrier error), release it, and
   resume the next interval. The race-check epoch is block-global: it
   counts released barriers, so every access between barrier [k] and
   [k + 1] is in epoch [k] for all warps of the block, whichever warp
   executes it.

   Releasing a barrier also settles the clock: warps arrive with
   different cycle counts, the barrier completes when the slowest warp
   arrives, and each faster warp is charged the difference as
   [barrier_wait_cycles] (its [cycles] advance to the release time, so
   post-barrier work is timed from a common origin). A single-warp
   block never waits, which keeps its metrics bit-identical to the
   pre-scheduler engines.

   A multi-run launch releases each barrier once per run: every run has
   its own clocks ([Cost.clock]), so its own release time and waits,
   while the warps' control flow, and so the barriers themselves, are
   the same in every run. *)

type status =
  | Arrived  (** suspended at a [__syncthreads()] barrier *)
  | Exited  (** ran to completion; metrics are final *)

type warp = {
  step : epoch:int -> status;
      (** run the warp until its next suspension; [epoch] is the current
          barrier interval, used for shared-memory race recording *)
  cost : Cost.t;  (** the warp's clocks and counters *)
}

let run_block ~fn_name ~block_id ~into warps =
  let n = Array.length warps and runs = Array.length into in
  let live = Array.make n true in
  let epoch = ref 0 in
  let running = ref (n > 0) in
  while !running do
    let arrived = ref 0 in
    for w = 0 to n - 1 do
      if live.(w) then
        match warps.(w).step ~epoch:!epoch with
        | Arrived -> incr arrived
        | Exited ->
          live.(w) <- false;
          Cost.settle warps.(w).cost
    done;
    if !arrived = 0 then running := false
    else begin
      (* Convergence: every warp of the block must reach the barrier.
         [step] only suspends at a barrier or at exit, so any shortfall
         means some warp exited (this interval or an earlier one)
         without executing the __syncthreads the others are waiting
         at — the classic divergent-barrier bug, a deadlock on real
         hardware. *)
      if !arrived < n then
        failwith
          (Printf.sprintf
             "simulator: divergent __syncthreads() in @%s: %d of %d warps of \
              block %d reached barrier %d (the rest exited)"
             fn_name !arrived n block_id !epoch);
      for w = 0 to n - 1 do
        Cost.settle warps.(w).cost
      done;
      for run = 0 to runs - 1 do
        let release = ref 0 in
        for w = 0 to n - 1 do
          release := max !release (Cost.clock warps.(w).cost ~run)
        done;
        for w = 0 to n - 1 do
          Cost.release warps.(w).cost ~run !release
        done
      done;
      incr epoch
    end
  done;
  for w = 0 to n - 1 do
    for run = 0 to runs - 1 do
      Cost.add_run warps.(w).cost ~run into.(run)
    done
  done
