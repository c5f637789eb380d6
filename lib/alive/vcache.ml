(** Bounded, generation-swept, mutex-protected verdict memo table, with an
    optional disk-backed read-through/write-behind tier beneath it
    ({!Veriopt_store.Store}). *)

module Store = Veriopt_store.Store

type key = {
  ctx : string;
  src : string;
  tgt : string;
  unroll : int;
  max_conflicts : int;
}

let key_text k =
  String.concat "\x00"
    [ k.ctx; k.src; k.tgt; Printf.sprintf "u=%d;c=%d" k.unroll k.max_conflicts ]

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  entries : int;
  capacity : int;
  tier1_hits : int;
  tier1_misses : int;
  tier2_runs : int;
  tier1_seconds : float;
  tier2_seconds : float;
  tier1_ewma_s : float;
  tier2_ewma_s : float;
}

(* EWMA smoothing factor for the per-tier latency estimates: ~the last
   dozen samples dominate, so the estimate tracks load shifts quickly while
   riding out single outliers. *)
let ewma_alpha = 0.15

(* The disk tier: callers hand us their own serialized-payload codec so the
   cache stays polymorphic in 'v. *)
type 'v tap = { tap_store : Store.t; tap_decode : string -> 'v option }

type 'v t = {
  capacity : int;
  mutex : Mutex.t;
  mutable tap : 'v tap option;
  mutable current : (key, 'v) Hashtbl.t;
  mutable old : (key, 'v) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable tier1_hits : int;
  mutable tier1_misses : int;
  mutable tier2_runs : int;
  mutable tier1_seconds : float;
  mutable tier2_seconds : float;
  (* rolling per-tier latency EWMAs; 0. until the first sample lands.  The
     serve layer's admission control reads these to price a query before
     letting it into the queue. *)
  mutable tier1_ewma_s : float;
  mutable tier2_ewma_s : float;
}

let create ?(capacity = 4096) () =
  let capacity = max 1 capacity in
  {
    capacity;
    mutex = Mutex.create ();
    tap = None;
    current = Hashtbl.create 64;
    old = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    tier1_hits = 0;
    tier1_misses = 0;
    tier2_runs = 0;
    tier1_seconds = 0.;
    tier2_seconds = 0.;
    tier1_ewma_s = 0.;
    tier2_ewma_s = 0.;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Called with the mutex held.  Swapping generations discards whatever the
   previous sweep left behind — a cheap approximation of LRU: anything
   touched within the last [capacity] insertions survives. *)
let sweep_if_full t =
  if Hashtbl.length t.current >= t.capacity then begin
    t.evictions <- t.evictions + Hashtbl.length t.old;
    t.old <- t.current;
    t.current <- Hashtbl.create 64
  end

(* First sample seeds the EWMA directly so cold estimates are not dragged
   toward zero. *)
let roll prev sample = if prev = 0. then sample else (ewma_alpha *. sample) +. ((1. -. ewma_alpha) *. prev)

let attach_store t ~store ~decode =
  locked t (fun () -> t.tap <- Some { tap_store = store; tap_decode = decode })

let store t = locked t (fun () -> Option.map (fun tap -> tap.tap_store) t.tap)

let find t key =
  let mem, tap =
    locked t (fun () ->
        match Hashtbl.find_opt t.current key with
        | Some v ->
          t.hits <- t.hits + 1;
          (Some v, None)
        | None -> (
          match Hashtbl.find_opt t.old key with
          | Some v ->
            (* promote so a live entry survives the next sweep *)
            t.hits <- t.hits + 1;
            Hashtbl.remove t.old key;
            sweep_if_full t;
            Hashtbl.replace t.current key v;
            (Some v, None)
          | None -> (None, t.tap)))
  in
  match mem with
  | Some v -> Some v
  | None -> (
    let miss () =
      locked t (fun () -> t.misses <- t.misses + 1);
      None
    in
    (* read-through: the store lookup runs outside the mutex — a racing
       double-miss recomputes once harmlessly, and slow disk never blocks
       other cache users *)
    match tap with
    | Some tap -> (
      let t0 = Unix.gettimeofday () in
      match Store.find tap.tap_store ~key:(key_text key) with
      | None -> miss ()
      | Some payload -> (
        match tap.tap_decode payload with
        | None ->
          (* CRC passed but the payload failed the caller's decoder:
             count it and degrade to a miss, never a wrong verdict *)
          Store.note_corrupt tap.tap_store;
          miss ()
        | Some v ->
          let dt = Unix.gettimeofday () -. t0 in
          locked t (fun () ->
              t.hits <- t.hits + 1;
              sweep_if_full t;
              Hashtbl.replace t.current key v;
              (* a store hit is an answer served at lookup cost: feed the
                 admission-price EWMAs the near-zero sample so a warm store
                 admits work the cold engine would refuse *)
              t.tier1_ewma_s <- roll t.tier1_ewma_s dt;
              t.tier2_ewma_s <- roll t.tier2_ewma_s dt);
          Some v))
    | None -> miss ())

let add ?spayload t key v =
  let tap =
    locked t (fun () ->
        sweep_if_full t;
        Hashtbl.replace t.current key v;
        t.insertions <- t.insertions + 1;
        t.tap)
  in
  (* write-behind: the store buffers and batches its own disk writes *)
  match (tap, spayload) with
  | Some tap, Some payload -> Store.add tap.tap_store ~key:(key_text key) payload
  | _ -> ()

let note_tier1 t ~hit ~seconds =
  locked t (fun () ->
      if hit then t.tier1_hits <- t.tier1_hits + 1 else t.tier1_misses <- t.tier1_misses + 1;
      t.tier1_seconds <- t.tier1_seconds +. seconds;
      t.tier1_ewma_s <- roll t.tier1_ewma_s seconds)

let note_tier2 t ~seconds =
  locked t (fun () ->
      t.tier2_runs <- t.tier2_runs + 1;
      t.tier2_seconds <- t.tier2_seconds +. seconds;
      t.tier2_ewma_s <- roll t.tier2_ewma_s seconds)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        insertions = t.insertions;
        evictions = t.evictions;
        entries = Hashtbl.length t.current + Hashtbl.length t.old;
        capacity = t.capacity;
        tier1_hits = t.tier1_hits;
        tier1_misses = t.tier1_misses;
        tier2_runs = t.tier2_runs;
        tier1_seconds = t.tier1_seconds;
        tier2_seconds = t.tier2_seconds;
        tier1_ewma_s = t.tier1_ewma_s;
        tier2_ewma_s = t.tier2_ewma_s;
      })

let reset t =
  locked t (fun () ->
      t.current <- Hashtbl.create 64;
      t.old <- Hashtbl.create 64;
      t.hits <- 0;
      t.misses <- 0;
      t.insertions <- 0;
      t.evictions <- 0;
      t.tier1_hits <- 0;
      t.tier1_misses <- 0;
      t.tier2_runs <- 0;
      t.tier1_seconds <- 0.;
      t.tier2_seconds <- 0.;
      t.tier1_ewma_s <- 0.;
      t.tier2_ewma_s <- 0.)
