(** Functions (GPU kernels) and modules.

    A function owns its blocks in a hash table keyed by label and hands
    out fresh register and label ids. All iteration helpers visit blocks
    in deterministic (sorted-label) order so that passes and printers are
    reproducible.

    A function also keeps every label's predecessors, as a set:
    {!set_term}, the block writers, {!copy} and {!restore} keep it
    current at O(log n) per edge, so a join of thousands of
    predecessors costs no more per edit than a join of two.
    [Cfg.preds_of] reads the set as a sorted list, built when first
    asked for and kept until the set changes; [Cfg.pred_set] reads the
    set itself, for membership tests.

    A function counts its {e CFG generation} too: adding or removing a
    block, {!set_entry}, {!restore}, and every terminator write that
    changes a block's successors bump it. Rewriting operands
    ({!map_values}, [Block.map_values]) does not. While
    {!with_analyses} runs, CFG analyses (reverse postorder, dominator
    tree, loop forest) are cached on the function until the generation
    moves. *)

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

type analysis = ..
(** A cached CFG analysis result; each analysis adds its own constructor. *)

type preds
(** The kept predecessor sets; only this module writes them. *)

type t = private {
  name : string;
  params : param list;
  ret_ty : Types.t;
  mutable shared : shared list;  (** shared declarations, in slot order *)
  mutable entry : Value.label;
  blocks : (Value.label, Block.t) Hashtbl.t;
  preds : preds;  (** read through [Cfg.preds_of] *)
  mutable next_var : int;
  mutable next_label : int;
  var_hints : (Value.var, string) Hashtbl.t;
  pragmas : (Value.label, pragma) Hashtbl.t;
      (** user loop pragmas, keyed by the loop header's label *)
  mutable sorted_labels : Value.label list option;
      (** {!labels}, kept until a block is added or removed *)
  mutable cfg_generation : int;
  mutable analyses : analysis list option;
      (** analyses of the current generation; [None] outside
          {!with_analyses} *)
}

val create : name:string -> params:(string * Types.t * bool) list -> ret_ty:Types.t -> t
(** A fresh function whose parameters are allocated registers in order;
    an empty entry block is created. *)

val copy : t -> t
(** A deep copy: mutating the copy (or the original) does not affect the
    other. Used to make structural transforms transactional. The copy
    caches no analyses and builds its predecessor lists afresh. *)

val restore : t -> from_:t -> unit
(** Overwrite a function's entire contents with those of [from_]
    (typically a {!copy} snapshot taken earlier) and rebuild its
    predecessor lists. Drops cached analyses. *)

val fresh_var : ?hint:string -> t -> Value.var
val fresh_block : ?hint:string -> t -> Block.t

val insert_block : ?hint:string -> t -> Value.label -> Block.t
(** Create a block with a caller-chosen label (used by the IR parser);
    bumps the fresh-label counter past it. Blocks that already branch
    to the label are its predecessors.
    @raise Invalid_argument if the label is taken. *)

val note_var : ?hint:string -> t -> Value.var -> unit
(** Record that a register id is in use (and optionally its hint),
    bumping the fresh-register counter past it. *)

val block : t -> Value.label -> Block.t
(** @raise Not_found on an unknown label. *)

val find_block : t -> Value.label -> Block.t option

val remove_block : t -> Value.label -> unit
(** Delete a block and take it out of its successors' predecessor
    lists. Blocks that still branch to it stay its predecessors. *)

val set_term : t -> Block.t -> Instr.terminator -> unit
(** [set_term f b term] replaces [b]'s terminator ([b] is a block of
    [f]): the one way to write a terminator whose successors may differ.
    When they do, it bumps [f]'s CFG generation, and [b] leaves the
    predecessor sets of the targets it no longer reaches and joins those
    it now reaches, at O(log n) per edge in the size of each set. Any
    other write of [Block.term] leaves the sets stale, which the
    verifier reports. *)

val preds_of : t -> Value.label -> Value.label list
(** The kept predecessors of a label as a sorted list; [[]] when no
    block branches to it. The list is built from the set on the first
    call after the set changes, and shared until it changes again.
    [Cfg.preds_of] is this query. *)

val pred_set : t -> Value.label -> Value.Label_set.t
(** The kept predecessors of a label as a set, for membership tests
    that should not build the list. [Cfg.pred_set] is this query. *)

val set_entry : t -> Value.label -> unit
(** Make another block the entry; bumps the CFG generation. *)

val labels : t -> Value.label list
(** All block labels, sorted. The list is kept until a block is added or
    removed. *)

val stale_preds : t -> Value.label option
(** The first block, in label order, whose kept predecessors differ from
    a fresh build from the terminators (the verifier's check). *)

val iter_blocks : (Block.t -> unit) -> t -> unit
(** Visit blocks in sorted label order: the labels as they were when the
    call began, skipping any block the callback removed. *)

val fold_blocks : (Block.t -> 'a -> 'a) -> t -> 'a -> 'a

val cached : t -> (analysis -> 'a option) -> ('a -> analysis) -> (t -> 'a) -> 'a
(** [cached f find inject compute]: the cached result [find] recognises,
    or [compute f], stored through [inject] while {!with_analyses} runs.
    Outside it, always [compute f]. A cached result is shared: callers
    must not mutate it. *)

val with_analyses : t -> (unit -> 'a) -> 'a
(** Cache CFG analyses of the function for the duration of the call and
    drop them when it returns (or raises), so a function kept after
    compilation holds none. Nested calls share the outer cache. *)

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
