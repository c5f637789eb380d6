(** A fixed-size [Domain]-based work pool.

    [map] distributes list elements over the pool's worker domains and
    returns results in input order, so parallel evaluation is observationally
    identical to [List.map] whenever [f] is pure — the property the GRPO
    reward hot path relies on.

    The shared pool's size comes from [VERIOPT_JOBS] (default: the runtime's
    recommended domain count, capped at 8).  [VERIOPT_JOBS=1] disables
    parallelism entirely: no domains are spawned and [map = List.map].
    Nested [map] calls from inside a worker run sequentially rather than
    deadlocking on the pool's own queue. *)

type t

val create : jobs:int -> t
(** A pool of [jobs - 1] worker domains (the caller of {!map} participates,
    so [jobs] is the total parallelism).  [jobs <= 1] spawns nothing. *)

val shutdown : t -> unit
(** Stop and join the workers.  Subsequent [map] calls run sequentially. *)

val size : t -> int
(** The [jobs] the pool was created with. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] = [List.map f xs], computed on the pool.  Result order
    is deterministic (by input index).  If any [f x] raises, the first
    exception (in input order) is re-raised after all tasks settle. *)

val default_jobs : unit -> int
(** The shared pool's sizing rule: [VERIOPT_JOBS] when it parses as an
    integer [>= 1]; otherwise the runtime's recommended domain count capped
    at 8.  An invalid setting is reported once on stderr rather than
    silently degrading to sequential execution. *)

val shared : unit -> t
(** The process-wide pool, created on first use and sized by
    [VERIOPT_JOBS]; shut down automatically at exit.  Only [shared] and
    {!run} (so [map (shared ())]) create the pool and spawn its domains. *)

val shared_jobs : unit -> int
(** Effective parallelism of the shared pool: its [jobs] once it exists,
    else {!default_jobs}.  Spawns nothing and does not create the pool, so
    a caller that only sizes its work leaves [fork] available. *)

val run : ('a -> 'b) -> 'a list -> 'b list
(** [map (shared ()) f xs]. *)
