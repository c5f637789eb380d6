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
  ?sat:Veriopt_smt.Sat.config ->
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
    is inconclusive.  Every other pair is solved single-shot.

    [sat] diversifies the underlying SAT solver's search trajectory
    (portfolio members); it affects solver speed, never verdicts. *)

val verify_funcs_single_shot :
  ?unroll:int ->
  ?max_conflicts:int ->
  ?deadline:float ->
  ?sat:Veriopt_smt.Sat.config ->
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
  ?sat:Veriopt_smt.Sat.config ->
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt_text:string ->
  verdict
(** Verify model-produced IR text: {!parse_target}, then {!verify_funcs}. *)

(** {1 Cube-and-conquer}

    The engine's portfolio tier-2 path.  The parent runs {!cube_probe} on a
    small conflict budget; a conclusive probe is a verdict outright, an
    inconclusive one yields a plan whose [2^k] cubes are raced across
    worker processes, each running {!verify_funcs_cube}.  Every worker
    re-encodes the same pair at the same single-shot full bound, so the raw
    SAT literals in the cubes name the same variables in every process
    (structural blast order).  At the join, {!probe_join} merges the
    workers' learned unit clauses back into the probe solver. *)

type cube_outcome =
  | Cube_refines  (** no mismatch within this cube (and bound) *)
  | Cube_cex of verdict
      (** a concretely-confirmed counterexample — decides the whole query *)
  | Cube_unknown  (** budget/deadline/unsupported within this cube *)

val verify_funcs_cube :
  ?unroll:int ->
  ?max_conflicts:int ->
  ?deadline:float ->
  ?sat:Veriopt_smt.Sat.config ->
  cube:int list ->
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt:Veriopt_ir.Ast.func ->
  cube_outcome * int list
(** Solve one cube of the pair's refinement query (worker side); also
    returns the level-0 unit literals learned, for {!probe_join}.  Solver
    counterexamples are concretely re-validated {e here} — only a confirmed
    [Semantic_error] becomes [Cube_cex]; an encoding artifact degrades to
    [Cube_unknown], exactly like {!verify_funcs}'s policy.  The result is
    closure-free and crosses process boundaries. *)

type cube_plan = {
  plan_probe : Veriopt_smt.Solver.probe;
  cubes : int list list;  (** the [2^k] assumption lists, a partition *)
  plan_m : Veriopt_ir.Ast.modul;
  plan_src : Veriopt_ir.Ast.func;
  plan_tgt : Veriopt_ir.Ast.func;
  plan_s_sum : Encode.summary;
  plan_t_sum : Encode.summary;
  plan_bounded : bool;
  plan_copy : bool;
}

val cube_probe :
  ?unroll:int ->
  ?max_conflicts:int ->
  ?deadline:float ->
  ?sat:Veriopt_smt.Sat.config ->
  k:int ->
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt:Veriopt_ir.Ast.func ->
  [ `Verdict of verdict | `Split of cube_plan ]
(** Probe the pair on a small budget (default 500 conflicts, single-shot at
    the full [unroll] bound).  Conclusive probes — including signature
    mismatches and unsupported encodings — return [`Verdict]; an
    inconclusive probe returns a [`Split] over the probe's top-[k] VSIDS
    variables. *)

val probe_join : ?max_conflicts:int -> ?deadline:float -> cube_plan -> units:int list -> verdict option
(** Merge cube workers' unit literals into the probe and re-solve on a
    small budget (default 10k conflicts).  [Some v] if jointly conclusive;
    [None] means the units didn't close the query. *)

val semantics_version : int
(** Bump when the verdict taxonomy or concrete re-validation changes
    meaning; registered in the verdict store's semantics digest so stale
    entries are skipped. *)
