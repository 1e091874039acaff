(** Plain-text table and CSV rendering for the experiment outputs. *)

val render_table : header:string list -> string list list -> string
(** Monospace table with column alignment. *)

val write_csv : path:string -> header:string list -> string list list -> unit
(** Write rows as CSV, creating parent directories as needed. *)

val write_text : path:string -> string -> unit
(** Write a string to a file, creating parent directories as needed (used
    for the remark JSON dumps). *)

val render_stats : (string * int) list -> string
(** Two-column [counter value] table for pass-statistic deltas (see
    [Uu_support.Statistic]). *)

val pct : float -> string
(** "67.18%" *)

val ms : float -> string
(** "78.75" *)

val ratio : float -> string
(** "1.36x" *)
