(** Fixed-size [Domain] work pool with deterministic-order [map]. *)

module Fault = Veriopt_fault.Fault

type t = {
  jobs : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  has_work : Condition.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* Workers flag themselves so a nested [map] degrades to [List.map] instead
   of blocking on a queue its own domain is supposed to drain. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let rec worker_loop (p : t) =
  Mutex.lock p.mutex;
  while Queue.is_empty p.queue && not p.stop do
    Condition.wait p.has_work p.mutex
  done;
  if Queue.is_empty p.queue then Mutex.unlock p.mutex (* stop requested *)
  else begin
    let task = Queue.pop p.queue in
    Mutex.unlock p.mutex;
    task ();
    worker_loop p
  end

let create ~jobs =
  let jobs = max 1 jobs in
  let p =
    {
      jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      has_work = Condition.create ();
      stop = false;
      workers = [];
    }
  in
  p.workers <-
    List.init (jobs - 1) (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set in_worker true;
            worker_loop p));
  p

let shutdown (p : t) =
  Mutex.lock p.mutex;
  p.stop <- true;
  Condition.broadcast p.has_work;
  Mutex.unlock p.mutex;
  List.iter Domain.join p.workers;
  p.workers <- []

let size (p : t) = p.jobs

let map (p : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when p.jobs <= 1 || p.stop || Domain.DLS.get in_worker -> List.map f xs
  | _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results : ('b, exn * Printexc.raw_backtrace) result option array = Array.make n None in
    let remaining = Atomic.make n in
    let done_mutex = Mutex.create () in
    let done_cond = Condition.create () in
    let task i () =
      let r =
        try
          (* fault site: a worker task dying mid-flight; [map]'s existing
             collect-then-reraise path must deliver it to the caller *)
          Fault.inject Fault.Worker_exn ~site:"par.task";
          Ok (f arr.(i))
        with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      results.(i) <- Some r;
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock done_mutex;
        Condition.signal done_cond;
        Mutex.unlock done_mutex
      end
    in
    Mutex.lock p.mutex;
    for i = 0 to n - 1 do
      Queue.push (task i) p.queue
    done;
    Condition.broadcast p.has_work;
    Mutex.unlock p.mutex;
    (* the caller drains the queue alongside the workers *)
    let rec help () =
      Mutex.lock p.mutex;
      if Queue.is_empty p.queue then Mutex.unlock p.mutex
      else begin
        let task = Queue.pop p.queue in
        Mutex.unlock p.mutex;
        task ();
        help ()
      end
    in
    help ();
    Mutex.lock done_mutex;
    while Atomic.get remaining > 0 do
      Condition.wait done_cond done_mutex
    done;
    Mutex.unlock done_mutex;
    let out =
      Array.map
        (function
          | Some r -> r
          | None -> assert false (* remaining = 0 implies every slot is set *))
        results
    in
    Array.iter
      (function Error (e, bt) -> Printexc.raise_with_backtrace e bt | Ok _ -> ())
      out;
    Array.to_list (Array.map (function Ok v -> v | Error _ -> assert false) out)

(* ------------------------------------------------------------------ *)
(* The process-wide shared pool. *)

let warned_bad_jobs = ref false

let default_jobs () =
  let recommended () = min 8 (Domain.recommended_domain_count ()) in
  match Sys.getenv_opt "VERIOPT_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | _ ->
      (* an unparseable or non-positive setting used to silently force
         jobs=1 — fall back to the recommended size and say so once *)
      if not !warned_bad_jobs then begin
        warned_bad_jobs := true;
        Printf.eprintf "veriopt: ignoring invalid VERIOPT_JOBS=%S (want an integer >= 1)\n%!" s
      end;
      recommended ())
  | None -> recommended ()

let shared_pool : t option ref = ref None
let shared_mutex = Mutex.create ()

let shared () =
  Mutex.lock shared_mutex;
  let p =
    match !shared_pool with
    | Some p -> p
    | None ->
      let p = create ~jobs:(default_jobs ()) in
      shared_pool := Some p;
      if p.jobs > 1 then at_exit (fun () -> shutdown p);
      p
  in
  Mutex.unlock shared_mutex;
  p

(* Reads the pool's size without creating it: asking how parallel a run
   would be must not spawn domains, since OCaml 5 refuses [fork] after the
   first one. *)
let shared_jobs () =
  Mutex.lock shared_mutex;
  let pool = !shared_pool in
  Mutex.unlock shared_mutex;
  match pool with Some p -> p.jobs | None -> default_jobs ()

let run f xs = map (shared ()) f xs
