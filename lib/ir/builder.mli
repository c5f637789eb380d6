(** Construction and surgery helpers used by the lowering pipeline, the
    peephole engine and the mutation engine. *)

type names
(** A fresh-name supply seeded with all names already used in a function. *)

val names_of_func : Ast.func -> names
val fresh : names -> string -> string

val names_reset : names -> unit
(** Reset the supply's counter to 0 without forgetting used names.  The
    peephole engine calls this before each rule application so expanding
    rules see one fresh supply per invocation (historic behavior the SFT
    traces are pinned to). *)

val name_release : names -> Ast.var -> unit
(** Forget a used name (its definition was deleted; the old per-rewrite
    supply would likewise not see it). *)

val substitute_operand : Ast.func -> from:Ast.var -> to_:Ast.operand -> Ast.func
(** Replace every use of [from] (including phi incomings) with [to_]. *)

val replace_instr : Ast.func -> name:Ast.var -> with_:Ast.named_instr list -> Ast.func
(** Replace the instruction defining [name] with a (possibly empty) list. *)

val remove_instr_at : Ast.func -> block:Ast.label -> index:int -> Ast.func
val map_blocks : Ast.func -> (Ast.block -> Ast.block) -> Ast.func

val use_counts : Ast.func -> (Ast.var, int) Hashtbl.t
(** Number of uses of each SSA value ("has one use" preconditions). *)

val def_map : Ast.func -> (Ast.var, Ast.instr) Hashtbl.t
(** Defined variable to defining instruction. *)

val renumber : Ast.func -> Ast.func
(** Rename all locals and labels to the compact clang-like scheme
    (%0, %1, ...), preserving program order. *)

val alpha_equal : Ast.func -> Ast.func -> bool
(** Structural equality modulo local/label names: the paper's "exact match
    with the reference IR" and its "copy of input" detector. *)

(** The emitting cursor: re-build a function one instruction at a time
    while keeping a live whole-function view of definitions and use counts
    (the incremental [Rewrite.ctx]).  Driven by the emit-time fold engine;
    see {!Veriopt_passes.Fold_engine}. *)
module Emit : sig
  type t

  val open_func : Ast.func -> t

  val defs : t -> (Ast.var, Ast.instr) Hashtbl.t
  (** Live def view over the whole function (shared with [Rewrite.ctx]). *)

  val uses : t -> (Ast.var, int) Hashtbl.t
  (** Live whole-function use counts (shared with [Rewrite.ctx]). *)

  val names : t -> names
  (** Live fresh-name supply. *)

  val is_param : t -> Ast.var -> bool
  val is_emitted : t -> Ast.var -> bool
  val is_deleted : t -> Ast.var -> bool
  val def_peek : t -> Ast.var -> Ast.instr option
  val resolve : t -> Ast.operand -> Ast.operand

  val total : t -> Ast.var -> int
  val pending_of : t -> Ast.var -> int

  val prefix_uses : ?cursor:Ast.instr -> t -> Ast.var -> int
  (** Uses already baked into the emitted prefix.  [cursor] is the
      instruction currently held at the cursor, whose operand occurrences
      are neither prefix nor pending. *)

  val add_use : t -> Ast.var -> int -> unit
  val drop_use : t -> Ast.var -> int
  val drop_pending : t -> Ast.var -> unit

  val users_of : t -> Ast.var -> (Ast.var * int) list
  (** Named instructions currently using a var, with occurrence counts. *)

  val user_add : t -> used:Ast.var -> user:Ast.var -> int -> unit
  val user_drop : t -> used:Ast.var -> user:Ast.var -> int -> unit

  val stage : t -> Ast.named_instr -> Ast.named_instr
  (** Pull a pending instruction to the cursor: substitution applied,
      operand occurrences moved out of the pending ledger. *)

  val commit : t -> Ast.named_instr -> unit
  val set_def : t -> Ast.var -> Ast.instr -> unit
  val redirect : t -> from:Ast.var -> to_:Ast.operand -> unit
  val introduce : t -> Ast.named_instr -> unit
  val delete : t -> Ast.var -> Ast.instr option
  val zero_use_defs : t -> Ast.var list
  val start_block : t -> Ast.label -> unit
  val seal_block : t -> Ast.terminator -> unit

  val materialize :
    t -> open_:(Ast.named_instr list * Ast.terminator) option -> rest:Ast.block list -> Ast.func
  (** Reassemble the function from the emitted prefix, the still-open
      block's unprocessed queue (if the pass stopped mid-block), and the
      untouched remaining blocks, applying the pending substitution and
      dropping deleted definitions everywhere. *)
end
