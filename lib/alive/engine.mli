(** The tiered, cached verification engine — the GRPO reward hot path.

    Verification proceeds through three tiers, cheapest first:

    - {b Tier 0} (always): {!Alive.parse_target}, the signature check
      ({!Alive.signature_verdict}) and alpha-equality copy detection.
    - {b Tier 1}: a concrete counterexample hunt with the I/O oracle
      ({!Veriopt_eval.Exec_oracle}).  A confirmed concrete mismatch yields
      [Semantic_error] immediately, with the distinguishing input as the
      diagnostic, skipping bit-blasting entirely.  Concrete counterexamples
      are trusted by construction — unlike the solver's, which must be
      re-executed concretely anyway before the verdict layer believes them.
    - {b Tier 2}: the full SMT path ({!Alive.verify_funcs}).

    Tier-1 results for misses and all tier-2 verdicts are memoized in a
    bounded {!Vcache} keyed by the canonical query text, so GRPO groups full
    of duplicate or copied completions pay for each distinct candidate once.

    Invariant: tiers never {e flip} a verdict.  Tier 1 only ever reports
    mismatches that concrete execution witnessed, so it can only refine a
    would-be [Inconclusive] (solver budget exhaustion) into the
    [Semantic_error] the solver was hunting for; [Equivalent] and
    [Syntax_error] outcomes are untouched. *)

type t

type isolate =
  | Domains  (** tier 2 runs in-process (the default; deadlines are cooperative) *)
  | Proc
      (** tier 2 runs in a forked {!Veriopt_vproc.Vproc} worker: hard SIGKILL
          deadlines, [setrlimit] memory/CPU caps, automatic respawn.  A dead
          worker degrades to an {e uncached} [Inconclusive] verdict with a
          distinct reason — never an exception in the reward path. *)

val isolate_of_env : unit -> isolate
(** The backend [VERIOPT_ISOLATE] selects: ["proc"] → [Proc], ["domain"],
    empty or unset → [Domains]; anything else warns once and falls back to
    [Domains]. *)

val create :
  ?capacity:int ->
  ?tier1_samples:int ->
  ?tier1_fuel:int ->
  ?isolate:isolate ->
  ?store:string ->
  unit ->
  t
(** [capacity] bounds the verdict cache (default 8192 per generation);
    [tier1_samples] is the concrete-oracle battery size (default 16;
    [0] disables tier 1); [tier1_fuel] bounds each concrete run (default
    200k steps — the miner lowers it so loopy mutants cannot stall the
    battery; an exhausted run never distinguishes, so a small budget only
    weakens tier 1, it cannot make it wrong).

    [isolate] (default {!isolate_of_env}) picks the tier-2 backend.  [Proc]
    forks its worker pool eagerly here — the safest moment for a multicore
    runtime, before reward traffic spins up the Par domains — and silently
    degrades to [Domains] when fork is unavailable (non-Unix, or
    [VERIOPT_NO_FORK] set), with a one-time warning.  The pool has
    [VERIOPT_PROC_JOBS] (default 2) workers.

    [store] (default [VERIOPT_STORE] or none) mounts the shared disk-backed
    verdict store ({!Veriopt_store.Store}) at that directory as a
    read-through/write-behind tier beneath the in-memory cache: memory
    misses consult it (keyed on {!store_key}; a hit counts as a cache hit
    and feeds the admission EWMAs its near-zero latency), cacheable fresh
    verdicts are appended to it, forked [Proc] workers read it, and
    {!shutdown} flushes and closes it.  An unopenable store warns once and
    the engine runs without it. *)

val isolate : t -> isolate
(** The backend this engine actually runs (after any fallback). *)

val shutdown : t -> unit
(** Kill and reap the fork pool (no-op for the [Domains] backend) and
    flush + close the verdict store, if mounted.  Must not race in-flight
    verifications. *)

val orphans : t -> int
(** Workers still alive after {!shutdown} — a bench smoke check that the
    pool leaked no processes (always [0] after a clean shutdown). *)

val shared : unit -> t
(** The process-wide engine, created on first use: training, evaluation and
    the bench harness all share its cache and counters. *)

val verify_funcs :
  ?unroll:int ->
  ?max_conflicts:int ->
  ?deadline:float ->
  t ->
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt:Veriopt_ir.Ast.func ->
  Alive.verdict
(** Tiered + cached equivalent of {!Alive.verify_funcs} (same defaults).
    [deadline] is an absolute [Unix.gettimeofday] instant: past it the SMT
    tier answers [Inconclusive] instead of continuing.  Deadline-expired
    and dead-worker verdicts are transient and never cached.  [unroll] and
    [max_conflicts] are part of the cache key. *)

val verify_text :
  ?unroll:int ->
  ?max_conflicts:int ->
  ?deadline:float ->
  t ->
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt_text:string ->
  Alive.verdict
(** Tiered + cached equivalent of {!Alive.verify_text}.  Parse and
    validation failures ([Syntax_error]) are cheap and never cached. *)

val stats : t -> Vcache.stats
val reset_stats : t -> unit
(** Clear the cache and zero every counter (between bench phases). *)

(** {1 Pain probes}

    The adversarial miner's measurement channel: one timed,
    deadline-bounded verification plus the deltas of every misbehaviour
    counter the resilience layer keeps. *)

type pain = {
  p_verdict : Alive.verdict;
  p_wall_s : float;  (** wall time of this probe *)
  p_deadline_frac : float;  (** wall / budget; >= 1. when the deadline expired *)
  p_conflicts : int;
      (** SAT conflicts this probe burned.  Read from the process-global
          solver counters, so only meaningful for single-threaded probing on
          the in-process (Domains) backend. *)
  p_worker_kills : int;  (** vproc hard-deadline SIGKILLs (process-global) *)
  p_worker_crashes : int;  (** vproc workers that died on their own *)
  p_tier2_runs : int;  (** SMT-tier entries (0 = settled by tier 0/1) *)
  p_cached : bool;  (** answered from cache/store: no fresh work measured *)
}

type pain_stats = {
  probes : int;
  probe_inconclusive : int;
  probe_deadline_expired : int;
  probe_wall_s : float;
  probe_max_wall_s : float;
}

val verify_pain :
  ?unroll:int ->
  ?max_conflicts:int ->
  ?budget_s:float ->
  t ->
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt:Veriopt_ir.Ast.func ->
  pain
(** {!verify_funcs} under a relative deadline of [budget_s] seconds from now
    (default 0.05), returning the verdict together with the probe's cost
    deltas.  A cache or store hit sets [p_cached] — the probe measured
    nothing fresh and the miner should discard it (mine with a small or
    reset cache). *)

val pain_stats : t -> pain_stats
(** Cumulative {!verify_pain} totals for this engine (report surface). *)

(** {1 The disk-backed verdict store} *)

val store : t -> Veriopt_store.Store.t option
(** The mounted store, if any. *)

val store_stats : t -> Veriopt_store.Store.stats option
(** Hit/miss/write/corrupt/stale counters of the mounted store. *)

val semantics_digest : unit -> string
(** The engine-semantics version hash every store record carries: a digest
    of the registered [semantics_version]s of Encode, Refine, Alive, Sat,
    Expr (the word-level normal form) and Canon — the key-level canonical
    form is part of the key semantics
    (plus the runtime lineage).  Bumping any of them invalidates all prior
    store entries. *)

val store_key :
  ?unroll:int ->
  ?max_conflicts:int ->
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt:Veriopt_ir.Ast.func ->
  string
(** The store's content address for a query (defaults mirror
    {!verify_funcs}): raw canonical module text,
    {e alpha-canonical} source/target texts — renamed-but-identical pairs,
    and operand-commuted / constant-renormalized twins (the key-level
    {!Veriopt_ir.Canon} quotient), collide onto one entry, soundly,
    because renumbering and canonicalization preserve semantics — plus
    every verdict-relevant knob.  It is {!Vcache.key_text} of the engine's
    cache key, the one key both tiers, the forked workers and the miner
    use.  Exposed for the key-soundness fuzz harness. *)

val store_encode : tier:int -> delta:Veriopt_smt.Solver.stats -> Alive.verdict -> string
(** Serialize a store payload: the verdict, the tier that produced it and
    the solver-stats delta the original miss paid. *)

val store_decode : string -> (Alive.verdict * int * Veriopt_smt.Solver.stats) option
(** Inverse of {!store_encode}; [None] (never an exception) on any payload
    that does not decode, which the cache counts as a corrupt entry. *)

val coalesce_key :
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt:Veriopt_ir.Ast.func ->
  string
(** Alpha-canonical text of a query: equal for identical {e and}
    alpha-renamed copies of the same (module, src, tgt) triple.  Backed by
    the engine's canonical-text memo (a second physical-identity ring, since
    alpha-renamed text differs from the raw cache-key text), so repeated
    submissions of the same AST values cost one print.  The serve layer keys
    its in-queue coalescing on this plus the budget knobs. *)
