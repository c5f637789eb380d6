(** Overload-safe serving front end for the verification engine. *)

open Veriopt_ir
module Engine = Veriopt_alive.Engine
module Alive = Veriopt_alive.Alive
module Fault = Veriopt_fault.Fault

type priority = Interactive | Bulk

type reject_reason =
  | Queue_full
  | Displaced
  | Deadline_unmeetable
  | Expired
  | Draining
  | Disconnected

let reason_name = function
  | Queue_full -> "queue_full"
  | Displaced -> "displaced"
  | Deadline_unmeetable -> "deadline_unmeetable"
  | Expired -> "expired"
  | Draining -> "draining"
  | Disconnected -> "disconnected"

type outcome =
  | Verdict of Alive.verdict
  | Rejected of { reason : reject_reason; detail : string }

type config = {
  queue_capacity : int;
  workers : int;
  interactive_deadline_s : float;
  bulk_deadline_s : float;
  admission : bool;
  coalesce : bool;
}

let default_config =
  {
    queue_capacity = 256;
    workers = 4;
    interactive_deadline_s = 0.1;
    bulk_deadline_s = 2.0;
    admission = true;
    coalesce = true;
  }

(* One result cell per coalesce group; every waiter's ticket points at the
   group's cell, so fan-out is just a broadcast. *)
type cell = {
  cm : Mutex.t;
  cc : Condition.t;
  mutable c_result : outcome option;
  mutable c_done_at : float;
}

type ticket = { tk_cell : cell; tk_submitted : float }

type entry = {
  e_m : Ast.modul;
  e_src : Ast.func;
  e_tgt : Ast.func;
  e_unroll : int option;
  e_max_conflicts : int option;
  e_key : string option;
  mutable e_priority : priority;
  mutable e_deadline : float;
  mutable e_waiters : int;
  mutable e_state : [ `Queued | `Running | `Done ];
  e_cell : cell;
}

type drain_report = { forced_shed : int; drain_orphans : int }

type stats = {
  submitted_interactive : int;
  submitted_bulk : int;
  completed : int;
  engine_calls : int;
  coalesced : int;
  admission_refused : int;
  shed_queue_full : int;
  shed_displaced : int;
  shed_expired : int;
  shed_drain : int;
  rejected_draining : int;
  client_disconnects : int;
  depth_interactive : int;
  depth_bulk : int;
  depth_max : int;
  inflight : int;
  service_ewma_interactive_s : float;
  service_ewma_bulk_s : float;
  store_hits : int;
  store_misses : int;
}

type t = {
  sv_engine : Engine.t;
  cfg : config;
  mutex : Mutex.t;
  not_empty : Condition.t;
  (* both queues sorted ascending by [e_deadline]: pop the most urgent, shed
     from the front (most expired) *)
  mutable q_int : entry list;
  mutable q_bulk : entry list;
  pending : (string, entry) Hashtbl.t;  (* coalesce key -> queued/running entry *)
  mutable inflight : int;
  mutable draining : bool;
  mutable stop : bool;
  drain_flag : bool Atomic.t;
  drain_mutex : Mutex.t;
  mutable drained : drain_report option;
  mutable threads : Thread.t list;
  (* counters (under [mutex]) *)
  mutable n_submitted_i : int;
  mutable n_submitted_b : int;
  mutable n_completed : int;
  mutable n_engine_calls : int;
  mutable n_coalesced : int;
  mutable n_admission_refused : int;
  mutable n_shed_queue_full : int;
  mutable n_shed_displaced : int;
  mutable n_shed_expired : int;
  mutable n_shed_drain : int;
  mutable n_rejected_draining : int;
  mutable n_client_disc : int;
  mutable n_depth_max : int;
  mutable ewma_i : float;
  mutable ewma_b : float;
}

let engine t = t.sv_engine
let config t = t.cfg
let now () = Unix.gettimeofday ()

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* ------------------------------------------------------------------ *)
(* Tickets and cells *)

let new_cell () =
  { cm = Mutex.create (); cc = Condition.create (); c_result = None; c_done_at = 0. }

let resolve_cell (c : cell) (o : outcome) =
  Mutex.lock c.cm;
  if c.c_result = None then begin
    c.c_result <- Some o;
    c.c_done_at <- now ();
    Condition.broadcast c.cc
  end;
  Mutex.unlock c.cm

let rejected_ticket reason detail =
  let c = new_cell () in
  let t0 = now () in
  c.c_result <- Some (Rejected { reason; detail });
  c.c_done_at <- t0;
  { tk_cell = c; tk_submitted = t0 }

let await (tk : ticket) : outcome =
  let c = tk.tk_cell in
  Mutex.lock c.cm;
  while c.c_result = None do
    Condition.wait c.cc c.cm
  done;
  let r = Option.get c.c_result in
  Mutex.unlock c.cm;
  r

let poll (tk : ticket) : outcome option =
  let c = tk.tk_cell in
  Mutex.lock c.cm;
  let r = c.c_result in
  Mutex.unlock c.cm;
  r

let latency (tk : ticket) : float =
  let c = tk.tk_cell in
  Mutex.lock c.cm;
  let r = if c.c_result = None then 0. else c.c_done_at -. tk.tk_submitted in
  Mutex.unlock c.cm;
  r

(* ------------------------------------------------------------------ *)
(* Queue plumbing (callers hold [t.mutex]) *)

let insert_sorted (e : entry) (lst : entry list) : entry list =
  let rec go = function
    | x :: rest when x.e_deadline <= e.e_deadline -> x :: go rest
    | rest -> e :: rest
  in
  go lst

let remove_phys (e : entry) (lst : entry list) : entry list =
  List.filter (fun x -> x != e) lst

let depth t = List.length t.q_int + List.length t.q_bulk

let note_depth t =
  let d = depth t in
  if d > t.n_depth_max then t.n_depth_max <- d

let enqueue_locked t (e : entry) =
  (match e.e_priority with
  | Interactive -> t.q_int <- insert_sorted e t.q_int
  | Bulk -> t.q_bulk <- insert_sorted e t.q_bulk);
  note_depth t;
  Condition.signal t.not_empty

let unqueue_locked t (e : entry) =
  match e.e_priority with
  | Interactive -> t.q_int <- remove_phys e t.q_int
  | Bulk -> t.q_bulk <- remove_phys e t.q_bulk

(* Resolve a queued entry without running it (shed paths).  The caller holds
   [t.mutex]; the entry must already be out of its queue. *)
let reject_entry_locked t (e : entry) reason detail =
  e.e_state <- `Done;
  (match e.e_key with Some k -> Hashtbl.remove t.pending k | None -> ());
  resolve_cell e.e_cell (Rejected { reason; detail })

(* Find and shed one victim to make room: expired entries first (any class,
   they are dead weight), then the most-expired — front-of-queue — [Bulk]
   entry when the newcomer outranks it.  Returns [true] if a slot was
   freed. *)
let shed_for_locked t ~(incoming : priority) ~(incoming_deadline : float) : bool =
  let tnow = now () in
  let expired lst = List.find_opt (fun e -> e.e_deadline < tnow) lst in
  match expired t.q_bulk with
  | Some e ->
    t.q_bulk <- remove_phys e t.q_bulk;
    t.n_shed_expired <- t.n_shed_expired + e.e_waiters;
    reject_entry_locked t e Expired "deadline passed while queued";
    true
  | None -> (
    match expired t.q_int with
    | Some e ->
      t.q_int <- remove_phys e t.q_int;
      t.n_shed_expired <- t.n_shed_expired + e.e_waiters;
      reject_entry_locked t e Expired "deadline passed while queued";
      true
    | None -> (
      match t.q_bulk with
      | victim :: rest
        when incoming = Interactive
             || (incoming = Bulk && victim.e_deadline < incoming_deadline) ->
        t.q_bulk <- rest;
        t.n_shed_displaced <- t.n_shed_displaced + victim.e_waiters;
        reject_entry_locked t victim Displaced "displaced by higher-priority arrival";
        true
      | _ -> false))

(* ------------------------------------------------------------------ *)
(* Admission control *)

(* Price a query from the engine's rolling per-tier EWMAs: a cache hit is
   ~free, a miss pays tier 1 + tier 2, and queued work ahead of us shares
   [workers] dispatchers. *)
let estimate_locked t ~(prio : priority) : float * float =
  let s = Engine.stats t.sv_engine in
  let lookups = s.Veriopt_alive.Vcache.hits + s.Veriopt_alive.Vcache.misses in
  let hit_rate =
    if lookups = 0 then 0.
    else float_of_int s.Veriopt_alive.Vcache.hits /. float_of_int lookups
  in
  let per_miss = s.Veriopt_alive.Vcache.tier1_ewma_s +. s.Veriopt_alive.Vcache.tier2_ewma_s in
  let service = Float.max 1e-6 ((1. -. hit_rate) *. per_miss) in
  let ahead =
    match prio with
    | Interactive -> List.length t.q_int
    | Bulk -> List.length t.q_int + List.length t.q_bulk
  in
  let wait = float_of_int (ahead + t.inflight) *. service /. float_of_int (max 1 t.cfg.workers) in
  (service, wait)

(* ------------------------------------------------------------------ *)
(* Submission *)

let coalesce_suffix u mc =
  Printf.sprintf "\x00u=%d\x00c=%d"
    (match u with Some u -> u | None -> -1)
    (match mc with Some c -> c | None -> -1)

let submit ?(priority = Bulk) ?deadline ?unroll ?max_conflicts t (m : Ast.modul)
    ~(src : Ast.func) ~(tgt : Ast.func) : ticket =
  let tnow = now () in
  let deadline =
    match deadline with
    | Some d -> d
    | None ->
      tnow
      +. (match priority with
         | Interactive -> t.cfg.interactive_deadline_s
         | Bulk -> t.cfg.bulk_deadline_s)
  in
  locked t @@ fun () ->
  (match priority with
  | Interactive -> t.n_submitted_i <- t.n_submitted_i + 1
  | Bulk -> t.n_submitted_b <- t.n_submitted_b + 1);
  if t.draining then begin
    t.n_rejected_draining <- t.n_rejected_draining + 1;
    rejected_ticket Draining "service is draining"
  end
  else if
    t.cfg.admission
    && (deadline <= tnow
       ||
       let service, wait = estimate_locked t ~prio:priority in
       tnow +. wait +. service > deadline)
  then begin
    t.n_admission_refused <- t.n_admission_refused + 1;
    rejected_ticket Deadline_unmeetable
      (Printf.sprintf "remaining budget %.1fms below estimated service time"
         ((deadline -. tnow) *. 1e3))
  end
  else begin
    let key =
      if t.cfg.coalesce then
        Some (Engine.coalesce_key m ~src ~tgt ^ coalesce_suffix unroll max_conflicts)
      else None
    in
    let joined =
      match key with
      | None -> None
      | Some k -> (
        match Hashtbl.find_opt t.pending k with
        | Some e when e.e_state <> `Done ->
          e.e_waiters <- e.e_waiters + 1;
          t.n_coalesced <- t.n_coalesced + 1;
          if e.e_state = `Queued then begin
            (* inherit the joiner's urgency: tighter deadline, higher class *)
            if deadline < e.e_deadline then begin
              unqueue_locked t e;
              e.e_deadline <- deadline;
              enqueue_locked t e
            end;
            if priority = Interactive && e.e_priority = Bulk then begin
              unqueue_locked t e;
              e.e_priority <- Interactive;
              enqueue_locked t e
            end
          end;
          Some { tk_cell = e.e_cell; tk_submitted = tnow }
        | _ -> None)
    in
    match joined with
    | Some tk -> tk
    | None ->
      if Fault.fire Fault.Queue_full then begin
        t.n_shed_queue_full <- t.n_shed_queue_full + 1;
        rejected_ticket Queue_full "queue full (injected)"
      end
      else if
        depth t >= t.cfg.queue_capacity
        && not (shed_for_locked t ~incoming:priority ~incoming_deadline:deadline)
      then begin
        t.n_shed_queue_full <- t.n_shed_queue_full + 1;
        rejected_ticket Queue_full
          (Printf.sprintf "queue at capacity %d" t.cfg.queue_capacity)
      end
      else begin
        let e =
          {
            e_m = m;
            e_src = src;
            e_tgt = tgt;
            e_unroll = unroll;
            e_max_conflicts = max_conflicts;
            e_key = key;
            e_priority = priority;
            e_deadline = deadline;
            e_waiters = 1;
            e_state = `Queued;
            e_cell = new_cell ();
          }
        in
        (match key with Some k -> Hashtbl.replace t.pending k e | None -> ());
        enqueue_locked t e;
        { tk_cell = e.e_cell; tk_submitted = tnow }
      end
  end

(* ------------------------------------------------------------------ *)
(* Workers *)

let inconclusive_of_exn ex =
  Verdict
    {
      Alive.category = Alive.Inconclusive;
      message = "engine exception: " ^ Printexc.to_string ex;
      example = [];
      bounded = false;
      copy_of_input = false;
    }

let roll_ewma prev sample =
  if prev = 0. then sample else (0.15 *. sample) +. (0.85 *. prev)

let finish_locked t (e : entry) (o : outcome) =
  e.e_state <- `Done;
  (match e.e_key with Some k -> Hashtbl.remove t.pending k | None -> ());
  t.inflight <- t.inflight - 1;
  (match o with
  | Verdict _ -> t.n_completed <- t.n_completed + e.e_waiters
  | Rejected _ -> ());
  resolve_cell e.e_cell o

let worker_loop t () =
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while t.q_int = [] && t.q_bulk = [] && not t.stop do
      Condition.wait t.not_empty t.mutex
    done;
    if t.q_int = [] && t.q_bulk = [] then begin
      (* stop set and nothing left: exit *)
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      let e =
        match t.q_int with
        | e :: rest ->
          t.q_int <- rest;
          e
        | [] -> (
          match t.q_bulk with
          | e :: rest ->
            t.q_bulk <- rest;
            e
          | [] -> assert false)
      in
      let tnow = now () in
      if e.e_deadline < tnow then begin
        t.n_shed_expired <- t.n_shed_expired + e.e_waiters;
        reject_entry_locked t e Expired "deadline passed while queued";
        Mutex.unlock t.mutex
      end
      else begin
        e.e_state <- `Running;
        t.inflight <- t.inflight + 1;
        Mutex.unlock t.mutex;
        (* chaos: a stalled dispatcher backs the queue up *)
        if Fault.fire Fault.Slow_drain then Unix.sleepf (Fault.param Fault.Slow_drain);
        if Fault.fire Fault.Client_disconnect then
          locked t (fun () ->
              t.n_client_disc <- t.n_client_disc + 1;
              finish_locked t e (Rejected { reason = Disconnected; detail = "client vanished" }))
        else begin
          let t0 = now () in
          let result =
            match
              Engine.verify_funcs ?unroll:e.e_unroll ?max_conflicts:e.e_max_conflicts
                ~deadline:e.e_deadline t.sv_engine e.e_m ~src:e.e_src ~tgt:e.e_tgt
            with
            | v -> Verdict v
            | exception ex -> inconclusive_of_exn ex
          in
          let service = now () -. t0 in
          locked t (fun () ->
              t.n_engine_calls <- t.n_engine_calls + 1;
              (match e.e_priority with
              | Interactive -> t.ewma_i <- roll_ewma t.ewma_i service
              | Bulk -> t.ewma_b <- roll_ewma t.ewma_b service);
              finish_locked t e result)
        end
      end
    end
  done

(* ------------------------------------------------------------------ *)

let create ?(config = default_config) ~engine () =
  let config =
    {
      config with
      queue_capacity = max 1 config.queue_capacity;
      workers = max 1 config.workers;
    }
  in
  let t =
    {
      sv_engine = engine;
      cfg = config;
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      q_int = [];
      q_bulk = [];
      pending = Hashtbl.create 64;
      inflight = 0;
      draining = false;
      stop = false;
      drain_flag = Atomic.make false;
      drain_mutex = Mutex.create ();
      drained = None;
      threads = [];
      n_submitted_i = 0;
      n_submitted_b = 0;
      n_completed = 0;
      n_engine_calls = 0;
      n_coalesced = 0;
      n_admission_refused = 0;
      n_shed_queue_full = 0;
      n_shed_displaced = 0;
      n_shed_expired = 0;
      n_shed_drain = 0;
      n_rejected_draining = 0;
      n_client_disc = 0;
      n_depth_max = 0;
      ewma_i = 0.;
      ewma_b = 0.;
    }
  in
  t.threads <- List.init config.workers (fun _ -> Thread.create (worker_loop t) ());
  t

let verify ?priority ?deadline ?unroll ?max_conflicts t m ~src ~tgt =
  await (submit ?priority ?deadline ?unroll ?max_conflicts t m ~src ~tgt)

(* ------------------------------------------------------------------ *)
(* Drain *)

let request_drain t = Atomic.set t.drain_flag true
let drain_requested t = Atomic.get t.drain_flag

let install_signal_handlers t =
  let h = Sys.Signal_handle (fun _ -> request_drain t) in
  Sys.set_signal Sys.sigterm h;
  Sys.set_signal Sys.sigint h

let drain ?(timeout = 5.) t : drain_report =
  Mutex.lock t.drain_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.drain_mutex) @@ fun () ->
  match t.drained with
  | Some r -> r
  | None ->
    Atomic.set t.drain_flag true;
    locked t (fun () -> t.draining <- true);
    (* grace period: let queued + in-flight work complete *)
    let give_up = now () +. Float.max 0. timeout in
    let quiesced = ref false in
    while (not !quiesced) && now () < give_up do
      let empty = locked t (fun () -> t.q_int = [] && t.q_bulk = [] && t.inflight = 0) in
      if empty then quiesced := true else Unix.sleepf 0.005
    done;
    (* shed whatever the grace period left behind, then stop the workers *)
    let forced =
      locked t (fun () ->
          let leftovers = t.q_int @ t.q_bulk in
          t.q_int <- [];
          t.q_bulk <- [];
          let n =
            List.fold_left
              (fun acc e ->
                t.n_shed_drain <- t.n_shed_drain + e.e_waiters;
                reject_entry_locked t e Draining "shed at drain timeout";
                acc + e.e_waiters)
              0 leftovers
          in
          t.stop <- true;
          Condition.broadcast t.not_empty;
          n)
    in
    (* workers exit after finishing their current (deadline-bounded) call *)
    List.iter Thread.join t.threads;
    Engine.shutdown t.sv_engine;
    let r = { forced_shed = forced; drain_orphans = Engine.orphans t.sv_engine } in
    t.drained <- Some r;
    r

(* ------------------------------------------------------------------ *)

let stats t : stats =
  (* passthrough from the engine's mounted verdict store (0/0 without one):
     how much of the served traffic a warm disk tier absorbed *)
  let st_hits, st_misses =
    match Engine.store_stats t.sv_engine with
    | Some st -> (st.Veriopt_store.Store.hits, st.Veriopt_store.Store.misses)
    | None -> (0, 0)
  in
  locked t (fun () ->
      {
        submitted_interactive = t.n_submitted_i;
        submitted_bulk = t.n_submitted_b;
        completed = t.n_completed;
        engine_calls = t.n_engine_calls;
        coalesced = t.n_coalesced;
        admission_refused = t.n_admission_refused;
        shed_queue_full = t.n_shed_queue_full;
        shed_displaced = t.n_shed_displaced;
        shed_expired = t.n_shed_expired;
        shed_drain = t.n_shed_drain;
        rejected_draining = t.n_rejected_draining;
        client_disconnects = t.n_client_disc;
        depth_interactive = List.length t.q_int;
        depth_bulk = List.length t.q_bulk;
        depth_max = t.n_depth_max;
        inflight = t.inflight;
        service_ewma_interactive_s = t.ewma_i;
        service_ewma_bulk_s = t.ewma_b;
        store_hits = st_hits;
        store_misses = st_misses;
      })
