(** Ablation experiments for the design decisions DESIGN.md calls out:

    - {b order}: unroll-then-unmerge (the paper's §III-A order) against
      unmerge-then-unroll;
    - {b depth}: whole-path duplication against one-level DBDS-style
      duplication (§II-d);
    - {b selectivity}: full unmerging against the §VI future-work
      selective variant (phi-carrying merges only).

    Each variant is a pipeline configuration ([Uu 2],
    [Unmerge_then_unroll 2], [Dbds], [Uu_selective 2]) applied to loop 0
    of the first kernel of a few representative applications, and
    compared with the app's baseline on kernel time and code size. *)

type row = {
  app : string;
  variant : string;
  speedup : float;      (** vs. the app's baseline *)
  code_ratio : float;
  duplicated_blocks : int;
}

val run :
  ?apps:string list ->
  ?jobs:int ->
  ?sim_jobs:int ->
  ?cache:Result_cache.t ->
  unit ->
  row list
(** Default apps: bezier-surface, rainflow, XSBench. Every row is an
    ordinary {!Jobs.job} on the domain pool ([jobs] domains), cached
    like any other; the u&u-2 row's job is the sweep's job for the same
    loop. The duplicated-block count is the response's
    [unmerge.paths_duplicated] statistic.
    @raise Failure if a variant fails. *)

val render : row list -> string
