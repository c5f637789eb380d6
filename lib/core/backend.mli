(** Verified-fallback deployment: because the model transforms IR to IR,
    every output can be formally checked and the original kept on failure —
    the LLM never has to be trusted (the paper's key safety stance). *)

type outcome = {
  output : Veriopt_ir.Ast.func;  (** always safe to use *)
  used_model : bool;  (** false = fell back to the input *)
  verdict : Veriopt_alive.Alive.verdict;
  completion : string;  (** the raw model completion, for inspection *)
}

val optimize :
  ?mode:Veriopt_llm.Prompt.mode ->
  ?max_conflicts:int ->
  Veriopt_llm.Model.t ->
  Veriopt_ir.Ast.modul ->
  Veriopt_ir.Ast.func ->
  outcome
(** Greedy-decode, verify, fall back. *)
