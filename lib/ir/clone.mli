(** Region cloning — the mechanical core shared by loop unrolling and
    control-flow unmerging. Cloning a set of blocks creates fresh labels
    and fresh registers for everything defined inside the region, rewrites
    intra-region uses and branch targets to the copies, and leaves
    references to the outside untouched (the caller rewires entries,
    exits, and phis afterwards). *)

type mapping = {
  label_map : Value.label Value.Label_map.t;  (** original label -> clone label *)
  var_map : Value.var Value.Var_map.t;        (** original register -> clone register *)
}

val clone_region : Func.t -> Value.label list -> mapping
(** Clone the given blocks into the function. Phi incoming labels naming
    predecessors inside the region are remapped; incoming entries from
    outside predecessors are kept verbatim and must be fixed by the
    caller. *)

val map_label : mapping -> Value.label -> Value.label
(** The clone of a label, or the label itself when outside the region. *)

val map_value : mapping -> Value.t -> Value.t

val replace_uses_with_values : Func.t -> Value.t Value.Var_map.t -> unit
(** Substitute register uses throughout the function (definitions are not
    renamed). *)

val apply_subst : Func.t -> Value.t Value.Var_map.t -> unit
(** Like {!replace_uses_with_values} but first resolves substitution
    chains (x -> y while y -> z becomes x -> z), cutting cycles at the
    originating register. *)
