(** The refinement check: does the target summary refine the source?

    [Unsat] on the mismatch formula proves refinement within the unrolling
    bound; a model is a candidate counterexample (re-validated concretely by
    the verdict layer).  Pure calls are related by Ackermann constraints;
    impure calls must match positionally or the query is rejected as
    unsupported rather than risking an unsound "not equivalent". *)

type outcome =
  | Refines
  | Counterexample of Veriopt_smt.Solver.model
  | Unknown

val check :
  ?max_conflicts:int ->
  ?deadline:float ->
  ?sat:Veriopt_smt.Sat.config ->
  Encode.summary ->
  Encode.summary ->
  outcome
(** [deadline] is an absolute wall-clock instant forwarded to the solver;
    [sat] diversifies the underlying SAT solver (portfolio members). *)

(** {1 Cube-and-conquer}

    The parent probes the refinement query on a small budget; on [Unknown]
    its VSIDS order names the split variables, each cube is solved by
    {!check_cube} in a separate process, and unit clauses learned by the
    cube workers are merged back at {!probe_join}.  Raw SAT literals travel
    between planner and workers, which is sound because both sides blast
    the {e same} deterministic query assertion list in a fresh context —
    variable numbering is structural, independent of solver config. *)

val probe :
  ?max_conflicts:int ->
  ?deadline:float ->
  ?sat:Veriopt_smt.Sat.config ->
  Encode.summary ->
  Encode.summary ->
  Veriopt_smt.Solver.probe * outcome
(** Budget-limited check (default 500 conflicts) whose solver context stays
    alive for splitting and joining. *)

val probe_top_vars : Veriopt_smt.Solver.probe -> int -> int list
(** The probe's top-[k] split variables, most-active first. *)

val probe_join :
  ?max_conflicts:int ->
  ?deadline:float ->
  Veriopt_smt.Solver.probe ->
  units:int list ->
  outcome
(** Merge cube workers' level-0 unit literals into the probe and re-solve
    on a small budget: units from different cubes may be jointly
    conclusive. *)

val check_cube :
  ?max_conflicts:int ->
  ?deadline:float ->
  ?sat:Veriopt_smt.Sat.config ->
  cube:int list ->
  Encode.summary ->
  Encode.summary ->
  outcome * int list
(** Decide the refinement query under a cube of raw assumption literals;
    also returns the level-0 units learned (safe to {!probe_join}).
    [Refines] means "no mismatch within this cube" only. *)

(** {1 Incremental deepening}

    One persistent solver session shared across an iterative-deepening
    unroll schedule.  Each depth's query is asserted under a fresh guard
    literal and checked with that guard assumed; deepening retracts the old
    depth by asserting the guard's negation, so the clause set only ever
    grows and learned clauses stay sound across depths. *)

type session

val session_create : ?sat:Veriopt_smt.Sat.config -> unit -> session
val session_release : session -> unit

val session_conflicts : session -> int
(** Conflicts spent so far, for amortizing one budget over the schedule. *)

val check_incremental :
  ?max_conflicts:int ->
  ?deadline:float ->
  session ->
  depth:int ->
  Encode.summary ->
  Encode.summary ->
  outcome
(** Assert the depth-[depth] refinement query (guarded) and check it under
    its guard.  [Refines] means "no mismatch within this bound" — only the
    final scheduled depth's [Refines] is a verdict.  May raise
    [Encode.Unsupported] (before touching the session state). *)

val retract : session -> depth:int -> unit
(** Permanently disable the depth-[depth] query before deepening. *)

val semantics_version : int
(** Bump when the refinement obligation changes meaning; registered in the
    verdict store's semantics digest so stale entries are skipped. *)
