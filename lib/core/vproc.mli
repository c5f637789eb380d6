(** Fork-based verification worker pool: hard kill, rlimits, respawn.

    The in-process verification path can only honor a deadline
    cooperatively — a pathological allocation, a runaway C-speed loop, or a
    bug anywhere below the amortized check stalls the trainer itself.  A
    [Vproc] pool puts that work behind a process boundary the parent fully
    controls:

    - each worker is a {e forked child} running [handler] in a loop over
      framed [Marshal] messages on a pipe pair ("VPRC" magic, type byte,
      big-endian length, payload).  Fork inherits the address space, so the
      handler closure never crosses a pipe; only requests and responses do
      (they must be closure-free values);
    - the parent enforces a {b hard wall-clock deadline}: past [kill_at] the
      worker is [SIGKILL]ed — no cooperation needed — and the call returns
      [Error (Killed _)];
    - workers cap themselves with [setrlimit] (address-space headroom over
      the inherited image, CPU seconds), so an allocation bomb dies in the
      worker, not in the trainer;
    - a killed, crashed, or OOMed worker is {b respawned automatically}
      with exponential backoff; the pool degrades, it never breaks.

    {b Respawn survives the trainer's domains.}  OCaml 5 forbids
    [Unix.fork] in any process that has ever created a domain, so the
    parent could never refork a worker mid-training.  Instead each slot
    gets a single-threaded {e supervisor} process, forked once at pool
    creation: it forks the worker, [waitpid]s it, and forks a replacement
    whenever the worker is killed or crashes (backing off exponentially
    while replacements die young).  Every fresh worker announces its pid on
    the response pipe, which is how the parent tracks its SIGKILL target
    and counts spawns/respawns.  Create pools {e before} spawning domains:
    a pool created afterwards has no slots and every [call] returns
    [Error (Unavailable _)].
    {b Children die with their parent.}  Supervisor and worker each ask
    the kernel (Linux [PR_SET_PDEATHSIG]) for a SIGKILL when the process
    that forked them dies, so a creator that exits without {!shutdown}
    leaves nothing running, even behind a wedged worker.  The signal
    follows the forking {e thread}: create a pool on a thread that
    outlives it.

    A dead worker is a {e value}, never an exception: [call] returns
    [Error] carrying which way the worker died, and the caller decides what
    verdict that maps to.  Counters ([spawned]/[killed]/[crashed]/
    [respawned]/[frames]) are process-wide atomics in the style of
    [Solver.stats].

    Fault injection: the [worker_hang] and [worker_oom] kinds of
    {!Veriopt_fault.Fault} are checked {e inside the forked worker}, one coin
    per frame — the active fault config rides along in the request envelope,
    so chaos specs configured after the fork still reach the worker.

    Env knobs: [VERIOPT_PROC_JOBS], [VERIOPT_PROC_MEM_MB] (address-space
    headroom, [0] = off), [VERIOPT_PROC_CPU_S] ([0] = off),
    [VERIOPT_NO_FORK] (non-empty: pretend fork is unavailable). *)

type ('req, 'resp) t

type failure =
  | Killed of float
      (** the hard deadline passed; the worker was SIGKILLed after running
          this many seconds *)
  | Crashed of string  (** the worker died on its own: OOM, signal, exit *)
  | Handler_raised of string
      (** [handler] raised in the child; the worker itself survived *)
  | Unavailable of string  (** fork failed, no live slot, or pool closed *)

val failure_message : failure -> string

val available : unit -> bool
(** [fork] can be used here ([false] on non-Unix, or when [VERIOPT_NO_FORK]
    is set non-empty — the graceful-degradation escape hatch).  Note this
    cannot see whether the process has already created domains; a pool
    created after that point still degrades to [Unavailable] calls. *)

val create :
  ?jobs:int ->
  ?mem_headroom_mb:int ->
  ?cpu_limit_s:int ->
  ?backoff_base:float ->
  ?backoff_max:float ->
  ?max_call_s:float ->
  handler:('req -> 'resp) ->
  unit ->
  ('req, 'resp) t
(** Fork [jobs] supervisor+worker pairs (default [VERIOPT_PROC_JOBS] or 2)
    eagerly, each worker running [handler] over request frames.
    [mem_headroom_mb] (default [VERIOPT_PROC_MEM_MB] or 512) caps each
    worker's address space at the inherited image plus this many MB;
    [cpu_limit_s] (default [VERIOPT_PROC_CPU_S] or 300) caps CPU seconds;
    [0] disables either cap.  Backoff grows from [backoff_base] (default
    0.02s) doubling to [backoff_max] (default 0.5s): the supervisor paces
    reforks of short-lived workers, and the parent delays dispatch to a
    slot after each failed call, resetting on any completed frame.
    [max_call_s] (default 300) is the hard-kill backstop for calls with no
    explicit [kill_at]; [0.] waits forever. *)

val call : ?kill_at:float -> ('req, 'resp) t -> 'req -> ('resp, failure) result
(** Run one request on a worker (blocking; thread/domain-safe — callers
    queue on free slots).  [kill_at] is an absolute [Unix.gettimeofday]
    instant: past it the worker is SIGKILLed and the call returns
    [Error (Killed _)].  Every failure mode is a value; [call] itself never
    raises on a dead worker. *)

val orphans : _ t -> int
(** Workers still alive according to this pool's pid notices — a
    post-{!shutdown} smoke check that the pool left no orphaned processes
    behind (always [0] after a clean shutdown). *)

val slots_available : _ t -> int
(** Slots whose supervisor came up and is still believed alive.  [0] means
    every call will return [Error (Unavailable _)] — e.g. the pool was
    created after this process had already spawned domains. *)

val shutdown : _ t -> unit
(** Kill and reap every worker and supervisor.  Closes admission first, then
    blocks until every in-flight [call] has finished (in-flight work is
    deadline-bounded, so this terminates) before tearing slots down — a
    concurrent caller's kill/respawn path therefore always completes before
    teardown, and a post-shutdown {!orphans} audit is well-ordered. *)

type stats = {
  spawned : int;  (** worker forks observed, initial and respawn *)
  killed : int;  (** hard-deadline SIGKILLs *)
  crashed : int;  (** workers that died on their own (OOM, signal, exit) *)
  respawned : int;  (** forks replacing a killed/crashed worker *)
  frames : int;  (** completed request/response round trips *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
