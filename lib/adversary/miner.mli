(** Pain-guided adversarial miner over verification pairs.

    The miner draws seeds from the synthetic data pipeline (both Cgen
    profiles, lowered and instcombined) and the serve workload generators,
    mutates them with {!Mutate}, probes each candidate through
    {!Veriopt_alive.Engine.verify_pain} under a tight deadline, and
    commits minimized high-pain cases to a crash-safe {!Corpus}.

    Minimization is delta-debugging under a concrete-oracle guard: a
    reduction is rejected when it changes the {!Veriopt_eval.Exec_oracle}
    verdict class or flips a conclusive engine verdict, so a mined case
    always exhibits the same ground-truth behaviour as the candidate that
    earned its pain score. *)

type config = {
  mc_seed : int;
  mc_budget_s : float;  (** wall budget for one mine run *)
  mc_max_cases : int;  (** stop after this many commits *)
  mc_probe_budget_s : float;  (** verify_pain deadline per probe *)
  mc_probe_unroll : int;
  mc_probe_conflicts : int;  (** probe SAT conflict budget (also recorded for replay) *)
  mc_pain_threshold : float;  (** minimum score to mine a candidate *)
  mc_oracle_samples : int;  (** concrete-oracle battery size for the guard *)
  mc_minimize_probes : int;  (** probe cap per minimization *)
}

val default_config : config

type result = {
  r_probes : int;
  r_candidates : int;
  r_invalid : int;  (** mutants rejected by the validator or with no site *)
  r_duplicates : int;  (** candidates already in the corpus by store key *)
  r_mined : int;
  r_stalls : int;  (** [miner_stall] fault firings, each a bounded counted pause *)
  r_minimize_accepted : int;
  r_minimize_flip_rejects : int;
      (** reductions rejected because they flipped a conclusive verdict or
          changed the oracle class *)
  r_committed_flips : int;
      (** audited flips between pre- and post-minimization verdicts among
          committed cases — zero by construction, asserted by the bench *)
  r_families : (string * int) list;
  r_wall_s : float;
}

(** Concrete-oracle verdict class used by the minimization guard. *)
type oclass = Oc_eq | Oc_diff | Oc_unsupported

val oracle_class : samples:int -> Mutate.pair -> oclass

val seed_pair : config -> int -> (string * Mutate.pair) option
(** The [i]-th seed of the pool: Cgen (adversarial profile on even
    residues, default on odd) lowered and instcombined, interleaved with
    serve-workload pairs and the solver-bound {!Veriopt_serve.Workload.assoc_pair}
    at widths 6–9.  Exposed for tests. *)

val mine : ?engine:Veriopt_alive.Engine.t -> ?cfg:config -> Corpus.t -> result
(** Run one budgeted mine loop, committing into the corpus.  Without
    [engine] a private one is created (small cache, oracle battery sized
    by [mc_oracle_samples]). *)

type replayed = { rp_id : int; rp_key : string; rp_family : string; rp_category : string }

val replay : ?engine:Veriopt_alive.Engine.t -> Corpus.t -> replayed list
(** Deterministic replay: every decodable case re-verified with its
    recorded conflict budget and {e no} wall deadline, so the verdict
    stream is a pure function of the corpus — two replays on fresh
    engines agree case by case. *)

val stress :
  ?seed:int ->
  ?rate:float ->
  ?duration_s:float ->
  ?mix_pct:int ->
  ?config:Veriopt_serve.Serve.config ->
  engine:Veriopt_alive.Engine.t ->
  Corpus.t ->
  Veriopt_serve.Traffic.summary option
(** Standing stress: drive open-loop traffic whose fresh queries replay
    the corpus ([mix_pct] < 100 mixes in the synthetic generators) through
    a serve instance, then drain it.  [None] when the corpus decodes to
    zero queries. *)

val pain_score : config -> Veriopt_alive.Engine.pain -> float
(** The scoring function: 1 for an inconclusive verdict, plus weighted
    deadline fraction, conflict fraction and worker kills/crashes.
    Exposed for tests and the bench. *)

val category_name : Veriopt_alive.Alive.category -> string

val pp_result : Format.formatter -> result -> unit
