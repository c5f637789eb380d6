(** Fork-based verification worker pool: hard kill, rlimits, respawn. *)

module Fault = Veriopt_fault.Fault

external setrlimit_raw : int -> int -> int = "veriopt_vproc_setrlimit"
external pdeathsig_raw : unit -> int = "veriopt_vproc_pdeathsig"

(* Called first thing in a freshly forked child: the kernel SIGKILLs it
   once [parent] dies.  A parent that died before the signal was armed
   has already reparented us, so re-check and leave at once. *)
let die_with_parent parent =
  ignore (pdeathsig_raw ());
  if Unix.getppid () <> parent then Unix._exit 0

type failure =
  | Killed of float
  | Crashed of string
  | Handler_raised of string
  | Unavailable of string

let failure_message = function
  | Killed s -> Printf.sprintf "worker SIGKILLed at hard deadline after %.0fms" (1000. *. s)
  | Crashed reason -> "worker crashed: " ^ reason
  | Handler_raised msg -> "worker handler raised: " ^ msg
  | Unavailable reason -> "worker unavailable: " ^ reason

let available () =
  Sys.os_type = "Unix"
  && (match Sys.getenv_opt "VERIOPT_NO_FORK" with None | Some "" -> true | Some _ -> false)

(* ------------------------------------------------------------------ *)
(* Counters (Solver.stats idiom: process-wide atomics). *)

type stats = {
  spawned : int;
  killed : int;
  crashed : int;
  respawned : int;
  frames : int;
}

let spawned_c = Atomic.make 0
let killed_c = Atomic.make 0
let crashed_c = Atomic.make 0
let respawned_c = Atomic.make 0
let frames_c = Atomic.make 0

let stats () =
  {
    spawned = Atomic.get spawned_c;
    killed = Atomic.get killed_c;
    crashed = Atomic.get crashed_c;
    respawned = Atomic.get respawned_c;
    frames = Atomic.get frames_c;
  }

let reset_stats () =
  List.iter
    (fun c -> Atomic.set c 0)
    [ spawned_c; killed_c; crashed_c; respawned_c; frames_c ]

(* ------------------------------------------------------------------ *)
(* Pool structure.

   OCaml 5 forbids [Unix.fork] once any domain has EVER been created in the
   process — so the parent cannot fork replacement workers mid-training
   (the Par pool's domains are up by then).  Instead each slot gets a
   single-threaded SUPERVISOR process, forked once at pool creation (while
   the runtime is still domain-free): the supervisor forks the actual
   worker, [waitpid]s it, and forks a replacement whenever it dies — its
   own runtime never sees a domain, so its forks always succeed.  The
   parent talks straight to the worker over the slot's pipes (both ends
   live in the supervisor and are inherited by every replacement), and
   SIGKILLs the worker directly at the hard deadline. *)

type slot = {
  sup_pid : int;
  req_w : Unix.file_descr; (* parent -> worker requests *)
  resp_r : Unix.file_descr; (* worker -> parent responses + pid notices *)
  mutable worker_pid : int option; (* latest pid notice *)
  mutable expect_respawn : bool; (* we killed the worker; the next pid notice is routine *)
  mutable seq : int; (* request sequence, for skipping stale responses *)
  mutable failures : int; (* consecutive, for the backoff schedule *)
  mutable not_before : float; (* earliest next dispatch to this slot *)
  mutable dead : bool; (* the supervisor itself is gone; terminal *)
}

type ('req, 'resp) t = {
  n_jobs : int;
  slots : slot option array; (* None: the initial supervisor fork failed *)
  free : int Queue.t;
  mutex : Mutex.t;
  free_cond : Condition.t;
  backoff_base : float;
  backoff_max : float;
  max_call_s : float;
  mutable closed : bool;
}

(* The request envelope carries the parent's live fault config so chaos
   specs configured after the workers forked still reach them. *)
type 'req request_frame = { seq : int; payload : 'req; faults : Fault.config option }

let slots_available t =
  Array.fold_left
    (fun n -> function Some s when not s.dead -> n + 1 | _ -> n)
    0 t.slots

(* ------------------------------------------------------------------ *)
(* Fork hygiene.  Every parent-side pipe fd (across all pools) is listed
   here; a fresh supervisor closes them all, so one worker's EOF can never
   be deferred by a sibling that inherited the write end. *)

let fd_registry : Unix.file_descr list ref = ref []
let fd_registry_mutex = Mutex.create ()

let registry_add fds =
  Mutex.lock fd_registry_mutex;
  fd_registry := fds @ !fd_registry;
  Mutex.unlock fd_registry_mutex

let registry_remove fds =
  Mutex.lock fd_registry_mutex;
  fd_registry := List.filter (fun fd -> not (List.memq fd fds)) !fd_registry;
  Mutex.unlock fd_registry_mutex

(* A dead peer must surface as EPIPE on write, not kill the process. *)
let sigpipe_ignored =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Frame protocol: "VPRC" magic, 1-byte type, 4-byte big-endian length,
   Marshal payload.  Types: 'R' request, 'r' response, 'P' pid notice (a
   fresh worker announcing itself).  The magic lets the parent resynchronize
   after a worker died mid-write (torn frame). *)

let frame_magic = Bytes.of_string "VPRC"
let max_frame = 1 lsl 30

let write_frame fd ty payload =
  let len = Bytes.length payload in
  (* one buffer, one write: small frames stay atomic (PIPE_BUF) *)
  let buf = Bytes.create (9 + len) in
  Bytes.blit frame_magic 0 buf 0 4;
  Bytes.set buf 4 ty;
  Bytes.set_int32_be buf 5 (Int32.of_int len);
  Bytes.blit payload 0 buf 9 len;
  Eintr.write_fully fd buf 0 (9 + len)

(* Parent-side read under the hard deadline: select, then read, looping
   over short reads with the remaining time recomputed each round. *)
let rec read_exact fd ~deadline buf pos len =
  if len = 0 then `Ok
  else
    match Eintr.wait_readable fd ~deadline with
    | `Timeout -> `Timeout
    | `Ready -> (
      match Eintr.read fd buf pos len with
      | 0 -> `Eof
      | n -> read_exact fd ~deadline buf (pos + n) (len - n)
      | exception Unix.Unix_error _ -> `Eof)

let rec read_frame_parent fd ~deadline : [ `Frame of char * bytes | `Timeout | `Eof ] =
  let win = Bytes.create 4 in
  match read_exact fd ~deadline win 0 4 with
  | (`Timeout | `Eof) as e -> e
  | `Ok ->
    let rec sync () =
      if Bytes.equal win frame_magic then `Ok
      else begin
        (* torn frame: scan forward one byte at a time for the next magic *)
        Bytes.blit win 1 win 0 3;
        match read_exact fd ~deadline win 3 1 with
        | `Ok -> sync ()
        | (`Timeout | `Eof) as e -> e
      end
    in
    (match sync () with
    | (`Timeout | `Eof) as e -> e
    | `Ok -> (
      let hdr = Bytes.create 5 in
      match read_exact fd ~deadline hdr 0 5 with
      | (`Timeout | `Eof) as e -> e
      | `Ok ->
        let ty = Bytes.get hdr 0 in
        let len = Int32.to_int (Bytes.get_int32_be hdr 1) in
        if len < 0 || len > max_frame then
          (* a payload byte happened to spell the magic; keep scanning *)
          read_frame_parent fd ~deadline
        else
          let data = Bytes.create len in
          (match read_exact fd ~deadline data 0 len with
          | (`Timeout | `Eof) as e -> e
          | `Ok -> `Frame (ty, data))))

(* ------------------------------------------------------------------ *)
(* Worker side (grandchild of the pool's creator) *)

let apply_rlimits ~mem_headroom_mb ~cpu_limit_s =
  (if mem_headroom_mb > 0 then
     (* RLIMIT_AS is the total address space, and the OCaml 5 runtime
        reserves a large region up front — so the cap is expressed as
        headroom over the image inherited from the parent.  No /proc means
        no memory cap, never a broken worker. *)
     match
       let ic = open_in "/proc/self/statm" in
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () ->
           match String.split_on_char ' ' (input_line ic) with
           | pages :: _ -> int_of_string_opt pages
           | [] -> None)
     with
     | Some pages -> ignore (setrlimit_raw 0 ((pages * 4096) + (mem_headroom_mb * 1024 * 1024)))
     | None | (exception _) -> ());
  if cpu_limit_s > 0 then ignore (setrlimit_raw 1 cpu_limit_s)

(* Worker-side frame read: the parent never writes torn frames (it only
   dies whole-process, which shows up as EOF), so no resync needed. *)
let read_frame_worker fd : (char * bytes) option =
  let hdr = Bytes.create 9 in
  if not (Eintr.read_fully fd hdr 0 9) then None
  else if not (Bytes.equal (Bytes.sub hdr 0 4) frame_magic) then None
  else
    let len = Int32.to_int (Bytes.get_int32_be hdr 5) in
    if len < 0 || len > max_frame then None
    else
      let data = Bytes.create len in
      if not (Eintr.read_fully fd data 0 len) then None
      else Some (Bytes.get hdr 4, data)

let worker_main ~(handler : 'req -> 'resp) ~mem_headroom_mb ~cpu_limit_s req_r resp_w : 'a =
  apply_rlimits ~mem_headroom_mb ~cpu_limit_s;
  write_frame resp_w 'P' (Marshal.to_bytes (Unix.getpid ()) []);
  let rec loop () =
    match read_frame_worker req_r with
    | None -> Unix._exit 0 (* EOF: pool shutdown (or parent death) *)
    | Some ('R', data) ->
      let fr : 'req request_frame = Marshal.from_bytes data 0 in
      (match fr.faults with Some c -> Fault.configure c | None -> Fault.disable ());
      (* fault sites: the two worker-death shapes the sandbox exists for.
         worker_hang busy-spins (only SIGKILL ends it); worker_oom
         allocates until the RLIMIT_AS cap kills the child. *)
      if Fault.fire Fault.Worker_hang then
        while true do
          ignore (Sys.opaque_identity 0)
        done;
      if Fault.fire Fault.Worker_oom then begin
        let hold = ref [] in
        while true do
          hold := Bytes.create (1 lsl 20) :: !hold
        done
      end;
      let resp : ('resp, string) result =
        try Ok (handler fr.payload) with
        | (Stack_overflow | Out_of_memory) as e -> raise e (* die; the supervisor respawns *)
        | e -> Error (Printexc.to_string e)
      in
      write_frame resp_w 'r' (Marshal.to_bytes (fr.seq, resp) []);
      loop ()
    | Some _ -> Unix._exit 2
  in
  (* any escape — OOM included — becomes a visible nonzero exit, and
     [Unix._exit] skips the parent's inherited at_exit handlers *)
  try loop () with _ -> Unix._exit 2

(* ------------------------------------------------------------------ *)
(* Supervisor side (child of the pool's creator, parent of every worker
   this slot will ever run).  Single-threaded, no domains ever: its forks
   are always legal, unlike the trainer's once it has spawned domains. *)

let supervisor_main ~handler ~mem_headroom_mb ~cpu_limit_s ~backoff_base ~backoff_max req_r
    resp_w : 'a =
  (* drop every registered parent-side pipe end inherited at our fork *)
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !fd_registry;
  let delay = ref 0. and me = Unix.getpid () in
  let rec loop () =
    if Unix.getppid () = 1 then Unix._exit 0 (* orphaned: the trainer is gone *)
    else begin
      if !delay > 0. then Unix.sleepf !delay;
      let t0 = Unix.gettimeofday () in
      match Unix.fork () with
      | 0 ->
        die_with_parent me;
        worker_main ~handler ~mem_headroom_mb ~cpu_limit_s req_r resp_w
      | pid -> (
        match Eintr.waitpid pid with
        | _, Unix.WEXITED 0 -> Unix._exit 0 (* clean EOF shutdown: follow suit *)
        | _, _ | (exception _) ->
          (* killed, OOMed, or crashed: respawn with exponential backoff,
             resetting once a worker survives a full second *)
          let lived = Unix.gettimeofday () -. t0 in
          delay :=
            (if lived >= 1. then 0.
             else Float.min backoff_max (Float.max backoff_base (!delay *. 2.)));
          loop ())
      | exception _ -> Unix._exit 3
    end
  in
  try loop () with _ -> Unix._exit 3

(* ------------------------------------------------------------------ *)
(* Parent side *)

let spawn_slot ~handler ~mem_headroom_mb ~cpu_limit_s ~backoff_base ~backoff_max : slot option
    =
  let req_r, req_w = Unix.pipe ~cloexec:false () in
  let resp_r, resp_w = Unix.pipe ~cloexec:false () in
  registry_add [ req_w; resp_r ];
  let parent = Unix.getpid () in
  match Unix.fork () with
  | 0 ->
    die_with_parent parent;
    supervisor_main ~handler ~mem_headroom_mb ~cpu_limit_s ~backoff_base ~backoff_max req_r
      resp_w
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    Some
      {
        sup_pid = pid;
        req_w;
        resp_r;
        worker_pid = None;
        expect_respawn = false;
        seq = 0;
        failures = 0;
        not_before = 0.;
        dead = false;
      }
  | exception _ ->
    (* typically: a domain has already been created in this process *)
    registry_remove [ req_w; resp_r ];
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ req_r; req_w; resp_r; resp_w ];
    None

(* Record a pid notice: every one is a fork ([spawned]); every one after the
   first on a slot replaced a dead worker ([respawned]). *)
let note_pid (slot : slot) (data : bytes) : [ `Initial | `Expected_respawn | `Died_mid_call ]
    =
  let p : int = Marshal.from_bytes data 0 in
  Atomic.incr spawned_c;
  let prev = slot.worker_pid in
  slot.worker_pid <- Some p;
  match prev with
  | None -> `Initial
  | Some _ when slot.expect_respawn ->
    Atomic.incr respawned_c;
    slot.expect_respawn <- false;
    `Expected_respawn
  | Some _ ->
    Atomic.incr respawned_c;
    `Died_mid_call

let acquire (t : _ t) : int option =
  Mutex.lock t.mutex;
  while Queue.is_empty t.free && not t.closed do
    Condition.wait t.free_cond t.mutex
  done;
  let r = if t.closed then None else Some (Queue.pop t.free) in
  Mutex.unlock t.mutex;
  r

let release (t : _ t) (idx : int) =
  Mutex.lock t.mutex;
  Queue.push idx t.free;
  (* broadcast, not signal: [shutdown] waits on the same condition for the
     free queue to refill, and a woken slot waiter would otherwise swallow
     the wakeup *)
  Condition.broadcast t.free_cond;
  Mutex.unlock t.mutex

let call ?kill_at (t : ('req, 'resp) t) (req : 'req) : ('resp, failure) result =
  if t.closed then Error (Unavailable "pool is shut down")
  else
    match acquire t with
    | None -> Error (Unavailable "pool is shut down")
    | Some idx -> (
      Fun.protect ~finally:(fun () -> release t idx) @@ fun () ->
      match t.slots.(idx) with
      | None -> Error (Unavailable "worker slot failed to start (fork unavailable)")
      | Some slot when slot.dead -> Error (Unavailable "worker supervisor died")
      | Some slot -> (
        (* failure backoff: hold dispatch to a freshly-failed slot *)
        let wait = slot.not_before -. Unix.gettimeofday () in
        if wait > 0. then Unix.sleepf wait;
        slot.seq <- slot.seq + 1;
        let seq = slot.seq in
        let started = Unix.gettimeofday () in
        let deadline =
          match kill_at with
          | Some _ as d -> d
          | None -> if t.max_call_s > 0. then Some (started +. t.max_call_s) else None
        in
        let note_failure () =
          slot.failures <- slot.failures + 1;
          let delay =
            Float.min t.backoff_max
              (t.backoff_base *. (2. ** float_of_int (slot.failures - 1)))
          in
          slot.not_before <- Unix.gettimeofday () +. delay
        in
        let killed () =
          Atomic.incr killed_c;
          (match slot.worker_pid with
          | Some p -> ( try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
          | None -> ());
          slot.expect_respawn <- true;
          note_failure ();
          Error (Killed (Unix.gettimeofday () -. started))
        in
        let crashed reason =
          Atomic.incr crashed_c;
          note_failure ();
          Error (Crashed reason)
        in
        match
          write_frame slot.req_w 'R'
            (Marshal.to_bytes { seq; payload = req; faults = Fault.config () } [])
        with
        | exception Unix.Unix_error (e, _, _) ->
          slot.dead <- true;
          crashed ("request write failed: " ^ Unix.error_message e)
        | () ->
          let rec await () =
            match read_frame_parent slot.resp_r ~deadline with
            | `Timeout -> killed ()
            | `Eof ->
              slot.dead <- true;
              crashed "worker and supervisor gone (EOF)"
            | `Frame ('P', data) -> (
              match note_pid slot data with
              | `Initial | `Expected_respawn -> await ()
              | `Died_mid_call -> crashed "worker died mid-call (respawned)")
            | `Frame ('r', data) -> (
              match (Marshal.from_bytes data 0 : int * ('resp, string) result) with
              | exception _ -> crashed "corrupt response payload"
              | s, _ when s < seq -> await () (* stale answer to a pre-kill request *)
              | s, _ when s > seq -> crashed "response sequence desync"
              | _, r -> (
                slot.failures <- 0;
                Atomic.incr frames_c;
                match r with
                | Ok v -> Ok v
                | Error msg ->
                  (* the handler raised but the worker itself survived *)
                  Error (Handler_raised msg)))
            | `Frame (_, _) -> await () (* unknown frame type: ignore *)
          in
          await ()))

(** Live workers still traceable through this pool's slots: a post-shutdown
    smoke check for orphans (always 0 after a clean {!shutdown}). *)
let orphans (t : _ t) =
  Array.fold_left
    (fun acc -> function
      | Some slot -> (
        match slot.worker_pid with
        | Some p -> ( match Unix.kill p 0 with () -> acc + 1 | exception Unix.Unix_error _ -> acc)
        | None -> acc)
      | None -> acc)
    0 t.slots

(* ------------------------------------------------------------------ *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some v -> v | None -> default)
  | None -> default

let create ?jobs ?mem_headroom_mb ?cpu_limit_s ?(backoff_base = 0.02) ?(backoff_max = 0.5)
    ?(max_call_s = 300.) ~handler () =
  Lazy.force sigpipe_ignored;
  let n_jobs = match jobs with Some j -> max 1 j | None -> max 1 (env_int "VERIOPT_PROC_JOBS" 2) in
  let mem_headroom_mb =
    match mem_headroom_mb with Some m -> m | None -> env_int "VERIOPT_PROC_MEM_MB" 512
  in
  let cpu_limit_s =
    match cpu_limit_s with Some c -> c | None -> env_int "VERIOPT_PROC_CPU_S" 300
  in
  let backoff_base = Float.max 0.001 backoff_base in
  let backoff_max = Float.max backoff_base backoff_max in
  let slots =
    Array.init n_jobs (fun _ ->
        if available () then
          spawn_slot ~handler ~mem_headroom_mb ~cpu_limit_s ~backoff_base ~backoff_max
        else None)
  in
  let t =
    {
      n_jobs;
      slots;
      free = Queue.create ();
      mutex = Mutex.create ();
      free_cond = Condition.create ();
      backoff_base;
      backoff_max;
      max_call_s;
      closed = false;
    }
  in
  for i = 0 to n_jobs - 1 do
    Queue.push i t.free
  done;
  (* best-effort startup drain: collect each slot's initial pid notice so
     [stats] and the first hard kill have a target before any call runs *)
  let drain_deadline = Some (Unix.gettimeofday () +. 5.) in
  Array.iter
    (function
      | Some slot when slot.worker_pid = None -> (
        match read_frame_parent slot.resp_r ~deadline:drain_deadline with
        | `Frame ('P', data) -> ignore (note_pid slot data)
        | `Frame _ | `Timeout -> ()
        | `Eof -> slot.dead <- true)
      | _ -> ())
    t.slots;
  t

let shutdown (t : _ t) =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.free_cond;
  (* Quiesce before teardown: every in-flight [call] holds its slot until
     its [Fun.protect] finalizer releases it, and a hard kill (SIGKILL +
     respawn notice) happens before that release.  Waiting for the free
     queue to refill therefore orders the teardown below — and any
     post-shutdown [orphans] audit — strictly after all in-flight work.
     Closing pipes under an active call would let its supervisor fork a
     fresh worker that teardown had already walked past, leaking it past
     the audit.  In-flight work is deadline-bounded ([max_call_s],
     [kill_at]), so this wait terminates. *)
  while Queue.length t.free < t.n_jobs do
    Condition.wait t.free_cond t.mutex
  done;
  Mutex.unlock t.mutex;
  Array.iter
    (function
      | None -> ()
      | Some slot ->
        (* EOF first so workers and supervisors exit cleanly; then the kill
           unsticks any worker wedged mid-request *)
        (try Unix.close slot.req_w with Unix.Unix_error _ -> ());
        (match slot.worker_pid with
        | Some p -> ( try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
        | None -> ());
        (* The live worker may be a respawn whose pid notice nobody has read
           (its predecessor was hard-killed and the slot sat idle since), so
           the kill above may have hit an already-dead pid — and the
           [waitpid] below would then block forever behind a supervisor still
           nursing a wedged worker.  Every worker announces itself on
           [resp_r] before reading requests, so: drain announcements, killing
           each announced pid, until the supervisor line exits (EOF).  A
           respawn that finds the request pipe closed and drained exits 0 and
           takes the supervisor with it, so this converges; the deadline
           backstops a wedged supervisor, which then gets SIGKILLed itself,
           followed by a last announcement sweep (no forks can follow it). *)
        let rec drain_until_eof ~deadline =
          match read_frame_parent slot.resp_r ~deadline with
          | `Eof -> `Eof
          | `Timeout -> `Timeout
          | `Frame ('P', data) ->
            (match (Marshal.from_bytes data 0 : int) with
            | p ->
              slot.worker_pid <- Some p;
              ( try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
            | exception _ -> ());
            drain_until_eof ~deadline
          | `Frame _ -> drain_until_eof ~deadline
        in
        (match drain_until_eof ~deadline:(Some (Unix.gettimeofday () +. 10.)) with
        | `Eof -> ()
        | `Timeout ->
          (try Unix.kill slot.sup_pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (drain_until_eof ~deadline:(Some (Unix.gettimeofday () +. 5.))));
        (try ignore (Eintr.waitpid slot.sup_pid) with Unix.Unix_error _ -> ());
        (try Unix.close slot.resp_r with Unix.Unix_error _ -> ());
        registry_remove [ slot.req_w; slot.resp_r ])
    t.slots
