(** The translation validator's public verdict API.

    Verdicts use the paper's four categories (its Tables I/II).  A solver
    counterexample is re-executed in the concrete interpreter before
    committing to "semantic error": if concrete execution does not confirm
    the mismatch (an artifact of the encoding's approximations), the verdict
    degrades to "inconclusive", keeping counterexamples — and the training
    diagnostics built from them — trustworthy. *)

type category = Equivalent | Semantic_error | Syntax_error | Inconclusive

type verdict = {
  category : category;
  message : string;  (** Alive2-style diagnostic *)
  example : (string * int64) list;  (** counterexample inputs, when any *)
  bounded : bool;  (** loops were unrolled: bounded validation *)
  copy_of_input : bool;  (** target is alpha-equal to source *)
}

val signature_matches : Veriopt_ir.Ast.func -> Veriopt_ir.Ast.func -> bool
(** Same return type and positionally equal parameter types. *)

val signature_verdict : verdict
(** The [Syntax_error] verdict for a pair failing {!signature_matches}. *)

val parse_target : Veriopt_ir.Ast.modul -> string -> (Veriopt_ir.Ast.func, verdict) result
(** Tier 0 for model-produced IR text: parse it and validate it against
    the module.  A failure is the [Syntax_error] verdict {!verify_text}
    returns, as in the paper's tables. *)

val unroll_schedule : int -> int list
(** The iterative-deepening schedule for a bound: doubling depths ending
    exactly at the bound ([4 -> [1; 2; 4]], [6 -> [1; 2; 4; 6]]). *)

val verify_funcs :
  ?unroll:int ->
  ?max_conflicts:int ->
  ?deadline:float ->
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt:Veriopt_ir.Ast.func ->
  verdict
(** Does [tgt] refine [src]?  Both functions must already be well-formed;
    route untrusted text through {!verify_text}.  [unroll] bounds loop
    unrolling (default 4); [max_conflicts] is the solver budget; [deadline]
    is an absolute wall-clock instant — past it the solver reports
    [Inconclusive] instead of continuing.

    A loop-bearing pair with [unroll > 1] runs an iterative-deepening
    unroll schedule (see {!unroll_schedule}) over one persistent solver
    session, stopping early on a conclusive verdict; the [max_conflicts]
    and [deadline] budgets are amortized across the whole schedule.
    Verdicts agree with {!verify_funcs_single_shot}: only the final bound's
    "no mismatch" proves equivalence, counterexamples are depth-independent
    (and still concretely re-validated), and resource exhaustion anywhere
    is inconclusive.  Every other pair is solved single-shot. *)

val verify_funcs_single_shot :
  ?unroll:int ->
  ?max_conflicts:int ->
  ?deadline:float ->
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt:Veriopt_ir.Ast.func ->
  verdict
(** {!verify_funcs} with one fresh solve at the full [unroll] bound, even
    for loop-bearing pairs: the path every acyclic pair takes, and the
    differential reference the deepening schedule is tested against. *)

val verify_text :
  ?unroll:int ->
  ?max_conflicts:int ->
  ?deadline:float ->
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt_text:string ->
  verdict
(** Verify model-produced IR text: {!parse_target}, then {!verify_funcs}. *)

val semantics_version : int
(** Bump when the verdict taxonomy or concrete re-validation changes
    meaning; registered in the verdict store's semantics digest so stale
    entries are skipped. *)
