(** IR well-formedness: type rules plus SSA dominance.

    Model output that parses but fails these checks is "invalid IR" in the
    paper's Table I/II sense; the error strings double as training
    diagnostics. *)

type error = string

val validate_func : ?module_:Ast.modul -> Ast.func -> (unit, error list) result
(** Check one function.  [module_] supplies call-target signatures and
    global names when available. *)
