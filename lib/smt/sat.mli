(** A CDCL SAT solver: two-watched-literal propagation, first-UIP learning,
    VSIDS with phase saving, Luby restarts, and Glucose-style learned-clause
    management (LBD scoring, clause activities, periodic DB reduction).  A
    conflict budget turns hard instances into [Unknown] (the verifier's
    "inconclusive").

    There is one search configuration: Luby restarts with base 100, every
    variable's initial phase false, VSIDS ties left in heap insertion order,
    no random decisions, and a first DB reduction at 2000 learned clauses.  The
    same instance therefore replays the same search bit for bit.

    Literals: variable [v >= 0]; positive literal [2v], negative [2v+1]. *)

type result = Sat | Unsat | Unknown

val lit_of_var : ?sign:bool -> int -> int
val var_of_lit : int -> int
val lit_neg : int -> int
val lit_sign : int -> bool

type t

val create : unit -> t
val new_var : t -> int

val add_clause : t -> int list -> unit
(** Add a problem clause.  May be called between [solve] calls: the solver
    first backtracks to decision level 0, where the clause simplification is
    sound.  Adding clauses only ever strengthens the instance, so learned
    clauses from earlier calls remain valid. *)

val solve :
  ?max_conflicts:int ->
  ?deadline:float ->
  ?reduce:bool ->
  ?reduce_first:int ->
  ?assumptions:int list ->
  t ->
  result
(** [deadline] is an absolute [Unix.gettimeofday] instant; exceeding either
    the conflict budget or the deadline yields [Unknown].  The conflict
    budget is per-call, so a long-lived solver can be re-queried with a fresh
    budget each time.

    [assumptions] are literals decided (in order, before any heuristic
    decision) for the duration of this call only — MiniSat-style incremental
    solving.  [Unsat] then means "unsatisfiable under these assumptions";
    the solver itself stays usable, learned clauses are consequences of the
    clause DB alone, and later calls may pass different assumptions.

    [reduce] (default [true]) enables learned-clause-DB reduction: when the
    live learned-clause count reaches [reduce_first] (default 2000) the
    worse half — highest LBD, then lowest activity — is deleted and the
    threshold grows geometrically (x3/2).  Glue clauses (LBD <= 2), binary
    clauses and locked reason clauses are never deleted.  Reduction changes
    the search trajectory but never the verdict; [?reduce:false] exists so
    differential harnesses can check exactly that, and [reduce_first] lets
    them force early reductions. *)

val model_value : t -> int -> bool
(** Variable assignment after [Sat]. *)

val stats : t -> int * int * int
(** (conflicts, decisions, propagations). *)

val restarts : t -> int
(** Luby restarts performed over the solver's lifetime. *)

val lbd_buckets : int
(** Length of [db_stats.lbd_hist]. *)

type db_stats = {
  learned : int;  (** learned clauses ever stored *)
  deleted : int;  (** learned clauses deleted by reductions *)
  live : int;  (** current learned-DB size ([learned - deleted]) *)
  peak : int;  (** largest learned-DB size ever *)
  reductions : int;  (** clause-DB reduction passes *)
  lbd_hist : int array;
      (** bucket [i]: learned clauses with LBD [i + 1] at learning time;
          the last bucket pools LBD >= [lbd_buckets] *)
}

val db_stats : t -> db_stats

val check_invariants : t -> unit
(** Structural invariants of the clause DB — no deleted clause is watched,
    is a reason, or lingers in the learnt index; counters are consistent.
    Raises [Failure] on violation.  Test hook for the fuzz harness. *)

val semantics_version : int
(** Bump when a change affects what Sat/Unsat/Unknown mean (budget
    semantics, soundness fixes) rather than just the search path;
    registered in the verdict store's semantics digest. *)
