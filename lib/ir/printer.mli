(** Textual form of the IR, close to LLVM's `.ll` syntax; output round-trips
    through {!Parser}. *)

val pp_const : Format.formatter -> Ast.const -> unit
val pp_operand : Format.formatter -> Ast.operand -> unit
val pp_instr : Format.formatter -> Ast.named_instr -> unit
val pp_terminator : Format.formatter -> Ast.terminator -> unit
val pp_block : Format.formatter -> Ast.block -> unit
val pp_func : Format.formatter -> Ast.func -> unit
val pp_module : Format.formatter -> Ast.modul -> unit

val func_to_string : Ast.func -> string
val module_to_string : Ast.modul -> string
