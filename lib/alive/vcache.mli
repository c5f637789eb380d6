(** Bounded verdict memo table for the tiered verification engine.

    Keys are the full semantic context of a verification query: canonical
    (printed) module, source and target texts plus the unroll bound and the
    solver budget — two queries with equal keys must produce equal verdicts,
    which is what makes memoization sound.

    The table is generation-swept: when the current generation fills up, it
    becomes the old generation and a fresh one starts; entries only ever
    survive one sweep unless re-touched, bounding memory at roughly
    [2 * capacity] entries.  All operations are mutex-protected so the Par
    pool's worker domains can share one cache.

    The cache doubles as the engine's statistics hub: alongside hit/miss/
    eviction counts it accumulates per-tier run counters and wall-clock
    timings (fed by the engine via [note_tier1]/[note_tier2]).

    An optional disk-backed tier ({!Veriopt_store.Store}, attached via
    {!attach_store}) turns the memo into a read-through/write-behind cache:
    a memory miss consults the shared on-disk store under {!key_text} (a hit
    is promoted into the current generation, counted as a cache hit, and
    rolls the admission-price EWMAs with its near-zero lookup latency), and
    an insert with a serialized payload is buffered for append.  A store
    entry whose payload fails the attached decoder is counted corrupt and
    degrades to a miss. *)

type key = {
  ctx : string;  (** canonical module text (globals + declarations) *)
  src : string;  (** canonical source function text *)
  tgt : string;  (** canonical target function text *)
  unroll : int;
  max_conflicts : int;
}

val key_text : key -> string
(** The disk store's content address for a key: its four fields joined by
    NUL, with the two integer knobs rendered as one
    [u=<unroll>;c=<max_conflicts>] segment. *)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;  (** entries discarded by generation sweeps *)
  entries : int;  (** live entries right now (both generations) *)
  capacity : int;
  tier1_hits : int;  (** concrete counterexample short-circuited the SMT tier *)
  tier1_misses : int;  (** tier 1 ran but found no distinguishing input *)
  tier2_runs : int;  (** full SMT verifications *)
  tier1_seconds : float;
  tier2_seconds : float;
  tier1_ewma_s : float;
      (** rolling EWMA of per-run tier-1 latency ([0.] until the first
          sample) — the serve layer's admission-control price signal *)
  tier2_ewma_s : float;  (** rolling EWMA of per-run tier-2 latency *)
}

type 'v t

val create : ?capacity:int -> unit -> 'v t
(** [capacity] bounds one generation (default 4096). *)

val attach_store :
  'v t -> store:Veriopt_store.Store.t -> decode:(string -> 'v option) -> unit
(** Mount a disk-backed tier beneath the memo.  [decode] turns a stored
    payload back into a value; returning [None] marks the entry corrupt
    (counted on the store) and the lookup degrades to a miss. *)

val store : 'v t -> Veriopt_store.Store.t option
(** The attached disk tier, if any (for stats and shutdown flushing). *)

val find : 'v t -> key -> 'v option
(** A hit in the old generation re-inserts the entry into the current one.
    On a memory miss, an attached store is consulted under {!key_text}; a
    decodable store hit counts as a cache hit. *)

val add : ?spayload:string -> 'v t -> key -> 'v -> unit
(** Insert into the current generation; when a store is attached and
    [spayload] is given, also buffer the serialized entry under {!key_text}
    for write-behind append. *)

val note_tier1 : 'v t -> hit:bool -> seconds:float -> unit
val note_tier2 : 'v t -> seconds:float -> unit

val stats : 'v t -> stats
val reset : 'v t -> unit
(** Drop every entry and zero all counters. *)
