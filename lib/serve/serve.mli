(** Overload-safe verification service.

    Owns one {!Veriopt_alive.Engine.t} (and with it the engine's [Vproc]
    worker set) behind a bounded, two-priority-class request queue, and stays
    correct and responsive when requests arrive faster than the engine can
    absorb them.  The design contract, in deployment terms:

    - {b Every request is answered}, in bounded time, with a [Verdict] or an
      explicit [Rejected] — submission never blocks on a full queue and no
      outcome is silently dropped.
    - {b Overload degrades honestly}: a full queue sheds the lowest-priority,
      most-expired work first; a request whose deadline cannot plausibly be
      met (estimated from the engine's rolling per-tier latency EWMAs) is
      refused at admission in microseconds rather than queued to die.
    - {b Duplicate work collapses}: identical and alpha-equivalent queries
      waiting in the queue coalesce onto one engine call whose verdict fans
      back out to every waiter ({!Veriopt_alive.Engine.coalesce_key}).
    - {b Shutdown is graceful}: {!drain} stops admission, lets queued and
      in-flight work finish within a bounded timeout, sheds the remainder,
      joins every worker thread and reaps the engine's fork pool — zero
      orphaned processes.

    Chaos hooks: the [queue_full], [slow_drain] and [client_disconnect]
    fault kinds ({!Veriopt_fault.Fault}) let [VERIOPT_FAULTS] force spurious
    sheds, stalled dispatch and vanished clients, the same way the engine
    and worker layers are already chaos-tested. *)

type priority = Interactive | Bulk

type reject_reason =
  | Queue_full  (** the bounded queue was full and the shed policy found no
                    victim cheaper than the newcomer *)
  | Displaced  (** was queued, then shed to admit higher-priority work *)
  | Deadline_unmeetable
      (** admission control: estimated queue wait + service time exceeds the
          remaining client budget, so the request is refused up front *)
  | Expired  (** the deadline passed while the request sat in the queue *)
  | Draining  (** the service is draining (or drained) and admits nothing *)
  | Disconnected  (** the client vanished before its result was ready
                      (the [client_disconnect] chaos fault) *)

val reason_name : reject_reason -> string

type outcome =
  | Verdict of Veriopt_alive.Alive.verdict
  | Rejected of { reason : reject_reason; detail : string }

type config = {
  queue_capacity : int;  (** bound on queued entries, both classes combined *)
  workers : int;  (** dispatcher threads draining the queue into the engine *)
  interactive_deadline_s : float;
      (** default client budget for [Interactive] submissions *)
  bulk_deadline_s : float;  (** default client budget for [Bulk] submissions *)
  admission : bool;  (** EWMA admission control at submit *)
  coalesce : bool;  (** in-queue coalescing of alpha-equivalent queries *)
}

val default_config : config
(** [{ queue_capacity = 256; workers = 4; interactive_deadline_s = 0.1;
       bulk_deadline_s = 2.0; admission = true; coalesce = true }] *)

type t

val create : ?config:config -> engine:Veriopt_alive.Engine.t -> unit -> t
(** Wrap [engine] in a serving front end and start the worker threads.  The
    service takes ownership of the engine: {!drain} shuts its fork pool
    down.  Create the engine {e before} any domains are spawned (its [Proc]
    pool forks); the serve workers are plain systhreads and are safe to
    start afterwards. *)

val engine : t -> Veriopt_alive.Engine.t
val config : t -> config

(** {1 Submission} *)

type ticket
(** A claim on one request's outcome.  Tickets for requests refused at
    admission are born resolved, so {!await} never blocks on them. *)

val submit :
  ?priority:priority ->
  ?deadline:float ->
  ?unroll:int ->
  ?max_conflicts:int ->
  t ->
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt:Veriopt_ir.Ast.func ->
  ticket
(** Non-blocking admission.  [priority] defaults to [Bulk]; [deadline] is an
    absolute [Unix.gettimeofday] instant (default: now + the class budget
    from {!config}).  The call returns in microseconds in every case —
    admitted, coalesced onto an existing entry, or refused with a resolved
    [Rejected] ticket. *)

val await : ticket -> outcome
(** Block until the outcome is available.  Termination is bounded: queued
    work expires or is shed, engine calls carry the request deadline, and
    {!drain} resolves everything still pending. *)

val poll : ticket -> outcome option

val latency : ticket -> float
(** Submission-to-resolution wall time; meaningful once resolved (after
    {!await}), [0.] before. *)

val verify :
  ?priority:priority ->
  ?deadline:float ->
  ?unroll:int ->
  ?max_conflicts:int ->
  t ->
  Veriopt_ir.Ast.modul ->
  src:Veriopt_ir.Ast.func ->
  tgt:Veriopt_ir.Ast.func ->
  outcome
(** [submit] then [await]. *)

(** {1 Drain} *)

val request_drain : t -> unit
(** Async-signal-safe flag raise: ask the owner loop to {!drain}.  Does no
    locking, so it is callable from a signal handler. *)

val drain_requested : t -> bool

val install_signal_handlers : t -> unit
(** Route [SIGTERM]/[SIGINT] to {!request_drain}; the serving loop polls
    {!drain_requested} and performs the actual {!drain}. *)

type drain_report = {
  forced_shed : int;  (** waiters resolved [Rejected Draining] at timeout *)
  drain_orphans : int;  (** engine workers alive after pool teardown — 0 *)
}

val drain : ?timeout:float -> t -> drain_report
(** Graceful shutdown: stop admitting, let queued + in-flight work complete
    for up to [timeout] seconds (default 5), shed whatever remains, join all
    worker threads and shut the engine's fork pool down.  Idempotent — later
    calls return the first report. *)

(** {1 Observability} *)

type stats = {
  submitted_interactive : int;
  submitted_bulk : int;
  completed : int;  (** waiters resolved with a [Verdict] *)
  engine_calls : int;  (** engine invocations actually dispatched *)
  coalesced : int;  (** waiters attached to an existing queued/running entry *)
  admission_refused : int;  (** [Deadline_unmeetable] refusals at submit *)
  shed_queue_full : int;  (** newcomers rejected on a full queue *)
  shed_displaced : int;  (** queued waiters displaced by the shed policy *)
  shed_expired : int;  (** waiters whose deadline passed in the queue *)
  shed_drain : int;  (** waiters shed by a drain timeout *)
  rejected_draining : int;  (** submissions refused while draining *)
  client_disconnects : int;  (** entries dropped by the chaos fault *)
  depth_interactive : int;  (** gauge: queued [Interactive] entries *)
  depth_bulk : int;  (** gauge: queued [Bulk] entries *)
  depth_max : int;  (** high-water mark of total queue depth *)
  inflight : int;  (** gauge: entries currently inside the engine *)
  service_ewma_interactive_s : float;
      (** rolling EWMA of [Interactive] engine-call wall time *)
  service_ewma_bulk_s : float;
  store_hits : int;
      (** verdict-store hits of the wrapped engine (0 without a store) —
          answers a warm disk tier served at lookup cost *)
  store_misses : int;  (** verdict-store misses of the wrapped engine *)
}

val stats : t -> stats
