(** EINTR-safe wrappers around the blocking syscalls {!Vproc} lives on.

    Any signal delivered to the trainer — a profiler's SIGPROF, a terminal
    resize, the interval timer of a test harness — interrupts a blocking
    [read]/[write]/[waitpid]/[select] with [EINTR].  Raw [Unix] calls
    surface that as an exception, which the worker-pool plumbing would
    misread as a dead worker.  These wrappers retry instead; an interrupted
    syscall is never an error, and a genuinely failed one still raises.

    [retries ()] counts how many times any wrapper retried after [EINTR]
    (process-wide), for observability in tests and reports. *)

val read : Unix.file_descr -> bytes -> int -> int -> int
(** [Unix.read], retried on [EINTR]. *)

val write : Unix.file_descr -> bytes -> int -> int -> int
(** [Unix.write], retried on [EINTR]. *)

val read_fully : Unix.file_descr -> bytes -> int -> int -> bool
(** Read exactly [len] bytes, looping over short reads; [false] means EOF
    arrived first (the peer closed), [true] means the buffer is full. *)

val write_fully : Unix.file_descr -> bytes -> int -> int -> unit
(** Write exactly [len] bytes, looping over short writes.  Raises
    [Unix.Unix_error] (e.g. [EPIPE]) if the peer is gone. *)

val waitpid : ?flags:Unix.wait_flag list -> int -> int * Unix.process_status
(** [Unix.waitpid], retried on [EINTR]. *)

val wait_readable : Unix.file_descr -> deadline:float option -> [ `Ready | `Timeout ]
(** Block until [fd] is readable or the absolute [deadline]
    ([Unix.gettimeofday] clock) passes; [None] waits forever.  [EINTR]
    restarts the wait with the remaining time recomputed, so signals can
    never shorten (or extend) the window. *)

val retries : unit -> int
