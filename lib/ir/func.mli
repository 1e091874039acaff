(** Functions (GPU kernels) and modules.

    A function owns its blocks in a hash table keyed by label and hands
    out fresh register and label ids. All iteration helpers visit blocks
    in deterministic (sorted-label) order so that passes and printers are
    reproducible. *)

type param = {
  pvar : Value.var;
  pty : Types.t;
  pname : string;
  restrict : bool;  (** [__restrict__]: does not alias other params *)
}

type pragma = Pragma_unroll of int | Pragma_nounroll

type shared = {
  s_var : Value.var;  (** the [Ptr s_elt] register the array is bound to *)
  s_elt : Types.t;
  s_size : int;  (** element count; always positive *)
  s_name : string;
}
(** A block-scoped shared array ([__shared__ float tile[64]]): declared
    at function scope, backed by a per-block scratchpad bank in the
    simulator. Declaration order assigns the shared slot the engines bind
    [s_var] to, so it is semantic. *)

type t = {
  name : string;
  params : param list;
  ret_ty : Types.t;
  mutable shared : shared list;  (** shared declarations, in slot order *)
  mutable entry : Value.label;
  blocks : (Value.label, Block.t) Hashtbl.t;
  mutable next_var : int;
  mutable next_label : int;
  var_hints : (Value.var, string) Hashtbl.t;
  pragmas : (Value.label, pragma) Hashtbl.t;
      (** user loop pragmas, keyed by the loop header's label *)
}

val create : name:string -> params:(string * Types.t * bool) list -> ret_ty:Types.t -> t
(** A fresh function whose parameters are allocated registers in order;
    an empty entry block is created. *)

val copy : t -> t
(** A deep copy: mutating the copy (or the original) does not affect the
    other. Used to make structural transforms transactional. *)

val restore : t -> from_:t -> unit
(** Overwrite a function's entire contents with those of [from_]
    (typically a {!copy} snapshot taken earlier). *)

val fresh_var : ?hint:string -> t -> Value.var
val fresh_block : ?hint:string -> t -> Block.t

val insert_block : ?hint:string -> t -> Value.label -> Block.t
(** Create a block with a caller-chosen label (used by the IR parser);
    bumps the fresh-label counter past it.
    @raise Invalid_argument if the label is taken. *)

val note_var : ?hint:string -> t -> Value.var -> unit
(** Record that a register id is in use (and optionally its hint),
    bumping the fresh-register counter past it. *)

val block : t -> Value.label -> Block.t
(** @raise Not_found on an unknown label. *)

val find_block : t -> Value.label -> Block.t option
val remove_block : t -> Value.label -> unit
val labels : t -> Value.label list
(** All block labels, sorted. *)

val iter_blocks : (Block.t -> unit) -> t -> unit
(** Visit blocks in sorted label order. *)

val fold_blocks : (Block.t -> 'a -> 'a) -> t -> 'a -> 'a
val var_hint : t -> Value.var -> string option
val param_vars : t -> Value.var list

val declare_shared :
  ?var:Value.var -> t -> name:string -> elt:Types.t -> size:int -> shared
(** Append a shared-array declaration, allocating a fresh pointer
    register for it (or registering [var] when the IR parser supplies
    one). @raise Invalid_argument on a non-positive size. *)

val instr_count : t -> int
(** Total instruction count (phis and terminators included), the basis of
    the code-size metric. *)

val size_units : t -> int
(** Cost-model size of the whole function (sum of {!Instr.size_units}
    plus 1 per terminator and phi). *)

val map_values : (Value.t -> Value.t) -> t -> unit
(** Rewrite every operand everywhere. *)

(** {1 Modules} *)

type modul = { mod_name : string; mutable funcs : t list }

val create_module : string -> modul
val add_func : modul -> t -> unit
val find_func : modul -> string -> t option
