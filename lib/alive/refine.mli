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
  Encode.summary ->
  Encode.summary ->
  outcome
(** [deadline] is an absolute wall-clock instant forwarded to the solver. *)

(** {1 Incremental deepening}

    One persistent solver session shared across an iterative-deepening
    unroll schedule.  Each depth's query is asserted under a fresh guard
    literal and checked with that guard assumed; deepening retracts the old
    depth by asserting the guard's negation, so the clause set only ever
    grows and learned clauses stay sound across depths. *)

type session

val session_create : unit -> session
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
