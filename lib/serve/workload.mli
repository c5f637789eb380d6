(** Deterministic hostile-mix query generation for serving-layer load tests.

    Mirrors the shapes the solver's clause-DB and iterative-deepening A/Bs
    established as adversarial — bit-blasted mul commutativity and
    data-dependent-exit mul-accumulate loops — salted with per-index constants so a long arrival
    stream keeps producing genuinely distinct verification work instead of
    collapsing into the verdict cache, plus cheap equivalent and
    tier-1-refutable wrong pairs for variety.  Everything is derived from
    [(seed, index)] hashes: the same seed replays the same traffic. *)

type query = {
  w_label : string;  (** shape tag, e.g. ["mul-chain"] *)
  w_m : Veriopt_ir.Ast.modul;
  w_src : Veriopt_ir.Ast.func;
  w_tgt : Veriopt_ir.Ast.func;
  w_unroll : int option;
  w_max_conflicts : int option;
}

val make : seed:int -> index:int -> query
(** The [index]-th query of stream [seed]: ~40% mul-accumulate chain loops,
    ~20% widened mul-commutativity pairs, the rest easy equivalents, wrong
    pairs and count loops — each salted by [index] so repeats are rare. *)

val assoc_pair :
  ?delta:int -> int -> Veriopt_ir.Ast.modul * Veriopt_ir.Ast.func * Veriopt_ir.Ast.func
(** [assoc_pair w] is the solver-bound pair the test suites and benches use
    wherever they need a query that only search can decide: three-variable
    mul reassociation, [(x*y)*z] against [x*(y*z)] at width [w].  It is
    valid at every width, and the word-level normal form of
    {!Veriopt_smt.Expr} deliberately leaves non-constant reassociation to
    the SAT core.  Measured with the default solver: about 5.6k conflicts
    at i5, 42k at i6 and 180k at i7, close to the default 200k-conflict
    budget, so at wider widths any budget or deadline bites.  A
    nonzero [delta] is added to the target's result: a wrong twin with a
    counterexample. *)

val assoc_chain_pair :
  ?src_k:int ->
  ?tgt_k:int ->
  int ->
  Veriopt_ir.Ast.modul * Veriopt_ir.Ast.func * Veriopt_ir.Ast.func
(** The same reassociation inside a data-dependent-exit loop: [%z]
    iterations of [s <- s*y*v + k] ([k] = [src_k] / [tgt_k], default 3),
    so every unrolled frame re-poses it.  About 4k conflicts at i4 and
    25k at i5 with the default unroll bound. *)

val alpha_variant : query -> query
(** The same query with alpha-renamed (renumbered) functions: textually
    different, alpha-equivalent — food for in-queue coalescing. *)

(** Where a traffic stream draws its queries from. *)
type source =
  | Synthetic  (** the generators above — the historical behaviour *)
  | Mined of query array  (** pure replay of a mined adversarial corpus *)
  | Mixed of query array * int
      (** [Mixed (corpus, pct)]: [pct]% of indices replay a mined case, the
          rest stay synthetic *)

val of_pair :
  label:string ->
  ?unroll:int ->
  ?max_conflicts:int ->
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt:Veriopt_ir.Ast.func ->
  query
(** Wrap a decoded corpus case as a replayable query. *)

val make_from : source:source -> seed:int -> index:int -> query
(** [make_from ~source:Synthetic] is exactly {!make}.  Mined selection is
    keyed on the same [(seed, index)] hash family, so replay streams are as
    deterministic as synthetic ones; an empty corpus falls back to
    {!make}. *)
