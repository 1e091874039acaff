(** The §V in-depth hardware-counter analysis: XSBench (u&u factor 8),
    rainflow (factor 4), and complex (factor 8), comparing the paper's
    nvprof counters against the simulator's. *)

type comparison = {
  app : string;
  factor : int;
  base_eff : float;        (** warp execution efficiency, baseline *)
  uu_eff : float;
  misc_change : float;     (** inst_misc ratio (uu / baseline) *)
  control_change : float;
  gld_change : float;      (** global load throughput ratio *)
  ipc_change : float;
  base_stall_fetch : float;
  uu_stall_fetch : float;
  speedup : float;
}

val analyze :
  ?jobs:int -> ?sim_jobs:int -> ?cache:Result_cache.t -> unit -> comparison list
(** Runs as [Jobs] on the domain pool ([jobs] domains), with optional
    result caching; the jobs are the sweep's own, so a warm sweep cache
    serves them.
    @raise Failure if a job fails after its retry. *)

val render : comparison list -> string
