(** Top-level SMT interface: assert boolean terms, decide satisfiability,
    extract models (the verifier's counterexamples). *)

type model = {
  bv_value : string -> (int * int64) option;  (** width, canonical value *)
  bool_value : string -> bool option;
}

type outcome = Sat of model | Unsat | Unknown

type stats = {
  checks : int;  (** [check] invocations *)
  sat : int;
  unsat : int;
  unknown : int;  (** conflict budget exhausted *)
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;  (** Luby restarts across all checks *)
  learned : int;  (** learned clauses stored across all checks *)
  deleted : int;  (** learned clauses deleted by DB reductions *)
  reductions : int;  (** clause-DB reduction passes *)
  db_peak : int;  (** largest live learned-DB of any single check *)
  sessions : int;  (** incremental sessions created *)
  session_reuse : int;  (** session checks beyond each session's first *)
  lbd_hist : int array;
      (** learned clauses by LBD at learning time; bucket [i] is LBD
          [i + 1], the last bucket pools LBD >= {!Sat.lbd_buckets} *)
}
(** Aggregate CDCL work across all [check] calls since the last
    {!reset_stats}; domain-safe (atomic counters). *)

val stats : unit -> stats
val reset_stats : unit -> unit

val diff : stats -> stats -> stats
(** [diff after before]: per-field difference ([db_peak] keeps [after]'s
    value — it is a maximum, not a sum).  A forked worker snapshots around a
    call and ships the delta home. *)

val absorb : stats -> unit
(** Fold a worker-shipped delta into this process's counters, so Report and
    bench JSON count the work forked workers did, not just the parent's own
    solves. *)

val check :
  ?max_conflicts:int ->
  ?deadline:float ->
  Expr.t list ->
  outcome
(** Decide the conjunction of the assertions.  [max_conflicts] is the
    conflict-count resource budget; [deadline] is an absolute
    [Unix.gettimeofday] instant checked in the SAT loop alongside it.
    Exceeding either yields [Unknown], so a hostile query can exhaust at
    most its budget — it can never hang the caller.  The SAT core always
    runs with learned-clause-DB reduction on. *)

val valid : ?max_conflicts:int -> ?deadline:float -> Expr.t -> outcome
(** [valid t]: [Unsat] means [t] holds under all assignments; [Sat m] is a
    counterexample. *)

(** {1 Incremental sessions}

    A persistent solver instance shared across a sequence of checks.
    Assertions are permanent — the instance only ever strengthens, so
    learned clauses, variable activities and saved phases carry over and
    stay sound — while per-check conditions are passed as [~assumptions]
    (MiniSat-style assumption literals, in force for one check only).
    Not domain-safe: use one session per domain. *)

module Session : sig
  type t

  val create : unit -> t

  val assert_ : t -> Expr.t -> unit
  (** Permanently conjoin a term.  Terms already asserted in this session
      (by physical hash-consed identity) are skipped. *)

  val check :
    ?max_conflicts:int ->
    ?deadline:float ->
    ?assumptions:Expr.t list ->
    t ->
    outcome
  (** Decide the conjunction of everything asserted so far, under
      [assumptions].  [Unsat] means unsatisfiable {e under these
      assumptions}; the session stays usable afterwards.  The conflict
      budget is per-call.  A [Sat] model's closures read live solver state
      and are invalidated by the next operation on this session. *)

  val conflicts : t -> int
  (** Total conflicts spent by this session's checks, for amortizing one
      [max_conflicts] budget across a deepening schedule. *)

  val checks : t -> int

  val release : t -> unit
  (** Mark the session dead: later operations raise [Invalid_argument].
      Memory is reclaimed by the GC as usual. *)
end

(** {1 Concrete evaluation}

    Reference semantics of the term language, used for differential testing
    of the bit-blaster and for evaluating terms under solver models. *)

val eval_bool : (string -> int64) -> (string -> bool) -> Expr.t -> bool
val eval_bv : (string -> int64) -> (string -> bool) -> Expr.t -> int64
