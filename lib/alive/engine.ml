(** Tiered (concrete-then-symbolic), cached verification engine. *)

open Veriopt_ir
module Interp = Veriopt_eval.Interp
module Exec_oracle = Veriopt_eval.Exec_oracle
module Fault = Veriopt_fault.Fault
module Vproc = Veriopt_vproc.Vproc
module Sat = Veriopt_smt.Sat
module Solver = Veriopt_smt.Solver
module Portfolio = Veriopt_smt.Portfolio
module Store = Veriopt_store.Store

type isolate = Domains | Proc

(* ------------------------------------------------------------------ *)
(* Canonical-text memoization (cheaper cache keys).

   Building a Vcache.key used to re-print the module and both functions on
   every engine call (~50us — more than an easy SMT query).  Within a GRPO
   group / bench round the module and source function are physically the
   same values over and over, so a tiny physical-equality-keyed ring buffer
   recovers almost all of that cost without hashing the AST.  (Freshly
   parsed targets still print once each, as they must.) *)

let canon_slots = 32

type canon_entry = { cobj : Obj.t; ctext : string }

(* One ring per printing discipline: entries are keyed purely by physical
   identity, so raw-text and alpha-renamed-text memos must not share a ring
   (the same func object has different texts under the two printers). *)
type canon_ring = {
  ctbl : canon_entry option array;
  mutable cnext : int;
  cmutex : Mutex.t;
}

let make_ring () =
  { ctbl = Array.make canon_slots None; cnext = 0; cmutex = Mutex.create () }

let raw_ring = make_ring ()
let alpha_ring = make_ring ()

let canon_in (ring : canon_ring) (print : 'a -> string) (x : 'a) : string =
  let r = Obj.repr x in
  Mutex.lock ring.cmutex;
  let found = ref None in
  Array.iter
    (function Some e when e.cobj == r -> found := Some e.ctext | _ -> ())
    ring.ctbl;
  match !found with
  | Some text ->
    Mutex.unlock ring.cmutex;
    text
  | None ->
    (* print outside the lock: concurrent duplicate work is rare and
       harmless, serializing every print would not be *)
    Mutex.unlock ring.cmutex;
    let text = print x in
    Mutex.lock ring.cmutex;
    ring.ctbl.(ring.cnext) <- Some { cobj = r; ctext = text };
    ring.cnext <- (ring.cnext + 1) mod canon_slots;
    Mutex.unlock ring.cmutex;
    text

let canon print x = canon_in raw_ring print x

(* Alpha-canonical text: identical for alpha-equivalent functions — and,
   via the key-level canonicalizer, for operand-commuted and
   constant-renormalized twins — so the serve layer can coalesce them onto
   one engine call and the cache/store tiers share one verdict per canon
   class.  Renumber first (name assignment is operand-order-invariant),
   then quotient the operand order.  Memoized by the original object's
   identity — the renumbered copy itself is fresh every time and useless
   as a memo key. *)
let alpha_canon (f : Ast.func) : string =
  canon_in alpha_ring
    (fun f -> Printer.func_to_string (Canon.canon_func_for_key (Builder.renumber f)))
    f

let coalesce_key (m : Ast.modul) ~(src : Ast.func) ~(tgt : Ast.func) : string =
  String.concat "\x00" [ canon Printer.module_to_string m; alpha_canon src; alpha_canon tgt ]

(* ------------------------------------------------------------------ *)
(* The disk-backed verdict store tier.

   Keys are content-addressed: the raw canonical module text, the
   alpha-canonical source/target texts (renamed-but-identical pairs share
   one entry — renumbering preserves semantics, boundedness and
   copy-of-input, so one verdict is sound for the whole alpha class), and
   every knob that can change a verdict or its budget semantics: unroll,
   conflict budget, clause-DB reduction, incrementality, portfolio width
   and the base SAT config.  Freshness across code changes is carried by
   the semantics digest: bump any registered [semantics_version] and every
   prior entry is skipped as stale. *)

let semantics_digest_lazy =
  lazy
    (Store.version_digest
       [
         ("encode", Encode.semantics_version);
         ("refine", Refine.semantics_version);
         ("alive", Alive.semantics_version);
         ("sat", Sat.semantics_version);
         (* the word-level normal form decides which circuit a query
            blasts to, so it moves what a budget-limited check decides *)
         ("expr", Veriopt_smt.Expr.semantics_version);
         (* the key-level canonical form: store keys collide canon twins,
            so a canonicalizer change must invalidate old entries *)
         ("canon", Canon.semantics_version);
         (* marshalled payloads are only trusted from the same compiler
            lineage; fold the runtime version in rather than risk a decode
            of a foreign layout *)
         ("ocaml", Hashtbl.hash Sys.ocaml_version land 0xFFFFFF);
       ])

let semantics_digest () = Lazy.force semantics_digest_lazy

let store_key ?(unroll = 4) ?(max_conflicts = 200_000) ?(reduce = true) ?incremental
    ?(portfolio = 1) ?sat (m : Ast.modul) ~(src : Ast.func) ~(tgt : Ast.func) : string =
  let incremental =
    match incremental with Some b -> b | None -> Alive.incremental_default ()
  in
  String.concat "\x00"
    [
      canon Printer.module_to_string m;
      alpha_canon src;
      alpha_canon tgt;
      Printf.sprintf "u=%d;c=%d;r=%b;i=%b;p=%d" unroll max_conflicts reduce incremental
        portfolio;
      Sat.describe_config (Option.value sat ~default:Sat.default_config);
    ]

(* The stored value: the verdict plus which tier produced it and the
   solver-stats delta the original miss paid — so a warm hit can report
   what it saved. *)
type stored = { s_verdict : Alive.verdict; s_tier : int; s_delta : Solver.stats }

let store_encode ~tier ~delta (v : Alive.verdict) : string =
  Marshal.to_string { s_verdict = v; s_tier = tier; s_delta = delta } []

(* Decode never trusts the payload: any Marshal failure is a counted
   corrupt entry upstream, degrading to a miss. *)
let store_decode (payload : string) : (Alive.verdict * int * Solver.stats) option =
  match (Marshal.from_string payload 0 : stored) with
  | s -> Some (s.s_verdict, s.s_tier, s.s_delta)
  | exception _ -> None

(* Forked workers open their own read-only handle per store directory
   (lazily, inside the child): the pool shares one warm store without
   inheriting parent file descriptors or write buffers. *)
let worker_stores : (string, Store.t option) Hashtbl.t = Hashtbl.create 4

let worker_store (dir : string) : Store.t option =
  match Hashtbl.find_opt worker_stores dir with
  | Some s -> s
  | None ->
    let s =
      match Store.open_ ~read_only:true ~dir ~semantics:(semantics_digest ()) () with
      | s -> Some s
      | exception _ -> None
    in
    Hashtbl.replace worker_stores dir s;
    s

(* The tier-2 query shipped to a forked worker: plain AST values and knobs,
   no closures (Marshal requirement).  The incremental flag rides along so
   the iterative-deepening loop — self-contained below this boundary — runs
   identically inside the worker.  [pr_sat] diversifies the worker's SAT
   solver (portfolio member); [pr_cube] switches the worker to solving one
   cube of the query as raw assumption literals. *)
type proc_request = {
  pr_m : Ast.modul;
  pr_src : Ast.func;
  pr_tgt : Ast.func;
  pr_unroll : int;
  pr_max_conflicts : int;
  pr_reduce : bool;
  pr_incremental : bool;
  pr_deadline : float option;
  pr_sat : Sat.config option;
  pr_cube : int list option;
  pr_store : string option;
      (** verdict-store directory: the worker consults its own read-only
          handle before solving, so a pool shares one warm store *)
}

(* Every response ships the worker's solver-stats delta for this one call,
   so the parent can aggregate portfolio members' work — losers included —
   into its own process-wide counters. *)
type proc_response =
  | P_verdict of Alive.verdict * Solver.stats
  | P_cube of Alive.cube_outcome * int list * Solver.stats

let proc_handler (r : proc_request) : proc_response =
  let before = Solver.stats () in
  match r.pr_cube with
  | None -> (
    (* warm-store short circuit: a full-query worker checks the shared
       disk store (its own refresh may see entries newer than the
       parent's) before paying for a solve.  Race legs ship no store —
       their diversified member keys cannot match parent-written entries. *)
    let stored_hit =
      match Option.map worker_store r.pr_store with
      | Some (Some st) -> (
        let key =
          store_key ~unroll:r.pr_unroll ~max_conflicts:r.pr_max_conflicts
            ~reduce:r.pr_reduce ~incremental:r.pr_incremental ~portfolio:1 ?sat:r.pr_sat
            r.pr_m ~src:r.pr_src ~tgt:r.pr_tgt
        in
        match Store.find st ~key with
        | None -> None
        | Some payload -> (
          match store_decode payload with
          | Some (v, _, _) -> Some v
          | None ->
            Store.note_corrupt st;
            None))
      | _ -> None
    in
    match stored_hit with
    | Some v -> P_verdict (v, Solver.diff before before)
    | None ->
      let v =
        Alive.verify_funcs ~unroll:r.pr_unroll ~max_conflicts:r.pr_max_conflicts
          ?deadline:r.pr_deadline ~reduce:r.pr_reduce ~incremental:r.pr_incremental
          ?sat:r.pr_sat r.pr_m ~src:r.pr_src ~tgt:r.pr_tgt
      in
      P_verdict (v, Solver.diff (Solver.stats ()) before))
  | Some cube ->
    let o, units =
      Alive.verify_funcs_cube ~unroll:r.pr_unroll ~max_conflicts:r.pr_max_conflicts
        ?deadline:r.pr_deadline ~reduce:r.pr_reduce ?sat:r.pr_sat ~cube r.pr_m ~src:r.pr_src
        ~tgt:r.pr_tgt
    in
    P_cube (o, units, Solver.diff (Solver.stats ()) before)

(* Cumulative pain-probe counters (see [verify_pain]): one cell per engine,
   mutex-guarded because probes may run from any domain. *)
type pain_cell = {
  mutable pc_probes : int;
  mutable pc_inconclusive : int;
  mutable pc_deadline_expired : int;
  mutable pc_wall_s : float;
  mutable pc_max_wall_s : float;
  pc_mu : Mutex.t;
}

type t = {
  cache : Alive.verdict Vcache.t;
  tier1_samples : int;
  tier1_fuel : int;
  breaker_k : int; (* 0 disables the circuit breaker *)
  breaker_cooldown : int;
  isolate : isolate;
  portfolio : int; (* 1 = single-solver tier 2; > 1 races diversified members *)
  cube_k : int; (* split on the top-k VSIDS vars: 2^k cubes *)
  pool : (proc_request, proc_response) Vproc.t option; (* Some iff isolate = Proc *)
  store : Store.t option; (* the shared disk-backed verdict tier *)
  pain : pain_cell; (* the adversarial miner's measurement channel *)
}

let warned_env = Atomic.make false
let warned_fallback = Atomic.make false

let warn_once flag msg =
  if not (Atomic.exchange flag true) then Printf.eprintf "veriopt: %s\n%!" msg

let isolate_of_env () =
  match Sys.getenv_opt "VERIOPT_ISOLATE" with
  | None | Some "" | Some "domain" -> Domains
  | Some "proc" -> Proc
  | Some other ->
    warn_once warned_env
      (Printf.sprintf "ignoring invalid VERIOPT_ISOLATE=%S (want proc|domain)" other);
    Domains

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some v -> v | None -> default)
  | None -> default

let portfolio_of_env () = max 1 (env_int "VERIOPT_PORTFOLIO" 1)
let cube_k_of_env () = max 0 (min 6 (env_int "VERIOPT_CUBE_K" 2))

let warned_store = Atomic.make false

let store_dir_of_env () =
  match Sys.getenv_opt "VERIOPT_STORE" with None | Some "" -> None | Some d -> Some d

let create ?(capacity = 8192) ?(tier1_samples = 16) ?(tier1_fuel = 200_000) ?(breaker_k = 0)
    ?(breaker_cooldown = 16) ?isolate ?portfolio ?cube_k ?store () =
  let portfolio = max 1 (match portfolio with Some p -> p | None -> portfolio_of_env ()) in
  let cube_k = max 0 (min 6 (match cube_k with Some k -> k | None -> cube_k_of_env ())) in
  let isolate =
    match isolate with
    | Some i -> i
    (* a portfolio IS the fork pool: racing needs process members *)
    | None -> if portfolio > 1 then Proc else isolate_of_env ()
  in
  let isolate =
    match isolate with
    | Proc when not (Vproc.available ()) ->
      (* graceful degradation: no fork here means the in-process backend,
         not a broken engine *)
      warn_once warned_fallback
        "process isolation unavailable (no fork); falling back to the domain backend";
      Domains
    | i -> i
  in
  let isolate, pool =
    match isolate with
    | Domains -> (Domains, None)
    | Proc ->
      (* fork eagerly, at engine creation: the only legal moment for a
         multicore runtime, before reward traffic spins up the Par domains.
         The pool is sized to the portfolio so a whole race fits at once. *)
      let jobs = max portfolio (max 1 (env_int "VERIOPT_PROC_JOBS" 2)) in
      let p = Vproc.create ~jobs ~handler:proc_handler () in
      if Vproc.slots_available p > 0 then (Proc, Some p)
      else begin
        (* fork refused (domains already exist): a dead pool would turn
           every verdict Inconclusive, so degrade to the in-process backend *)
        Vproc.shutdown p;
        warn_once warned_fallback
          "process isolation unavailable (fork refused — domains already running); falling \
           back to the domain backend";
        (Domains, None)
      end
  in
  let portfolio =
    if portfolio > 1 && pool = None then begin
      warn_once warned_fallback
        "portfolio racing needs the proc backend; running a single solver";
      1
    end
    else portfolio
  in
  (* open the store after the pool forks: workers open their own read-only
     handles by path and must not inherit the writer's descriptor/buffer *)
  let store =
    match (match store with Some d -> Some d | None -> store_dir_of_env ()) with
    | None -> None
    | Some dir -> (
      match Store.open_ ~dir ~semantics:(semantics_digest ()) () with
      | s -> Some s
      | exception e ->
        warn_once warned_store
          (Printf.sprintf "verdict store %s unavailable (%s); running without it" dir
             (Printexc.to_string e));
        None)
  in
  let cache = Vcache.create ~capacity () in
  Option.iter
    (fun s ->
      Vcache.attach_store cache ~store:s
        ~decode:(fun payload -> Option.map (fun (v, _, _) -> v) (store_decode payload)))
    store;
  {
    cache;
    tier1_samples = max 0 tier1_samples;
    tier1_fuel = max 1 tier1_fuel;
    breaker_k = max 0 breaker_k;
    breaker_cooldown = max 1 breaker_cooldown;
    isolate;
    portfolio;
    cube_k;
    pool;
    store;
    pain =
      {
        pc_probes = 0;
        pc_inconclusive = 0;
        pc_deadline_expired = 0;
        pc_wall_s = 0.;
        pc_max_wall_s = 0.;
        pc_mu = Mutex.create ();
      };
  }

let isolate t = t.isolate
let portfolio t = t.portfolio

let shutdown t =
  (match t.pool with Some p -> Vproc.shutdown p | None -> ());
  (* flush the write-behind buffer and release the segment *)
  match t.store with Some s -> Store.close s | None -> ()

let orphans t = match t.pool with Some p -> Vproc.orphans p | None -> 0

let shared_engine = lazy (create ())
let shared () = Lazy.force shared_engine

let stats t = Vcache.stats t.cache
let store_stats t = Option.map Store.stats t.store
let store t = t.store
let reset_stats t = Vcache.reset t.cache
let breaker_open t = (Vcache.stats t.cache).breaker_open

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Tier 1: concrete counterexample hunt *)

let value_int64 = function Interp.VInt { v; _ } -> v | _ -> 0L

let show_value = function
  | Some (Interp.VInt { v; _ }) -> Some (Int64.to_string v)
  | Some Interp.VPoison -> Some "poison"
  | Some (Interp.VPtr _) -> Some "ptr"
  | None -> None

(* Build the Semantic_error verdict for a distinguishing input the oracle
   found.  Both sides are re-run once on that input to classify the mismatch
   (value / trace / memory / target UB) so the diagnostic reads exactly like
   a solver counterexample.  The re-runs get the oracle's own [fuel]: a
   smaller budget would lose a long-running pair the oracle did tell apart. *)
let tier1_verdict (m : Ast.modul) (src : Ast.func) (tgt : Ast.func) ~fuel ~bounded
    (args : Interp.value list) : Alive.verdict =
  let inputs = List.mapi (fun i v -> (Fmt.str "arg%d" i, value_int64 v)) args in
  let run f =
    match Interp.run ~fuel m f args with
    | o -> `Ok o
    | exception Interp.Undefined_behavior _ -> `Ub
    | exception Interp.Out_of_fuel -> `Fuel
  in
  let kind, src_value, tgt_value =
    match (run src, run tgt) with
    | `Ok _, `Ub -> (Diagnostics.Target_ub, None, None)
    | `Ok s, `Ok tg ->
      if s.Interp.call_trace <> tg.Interp.call_trace then (Diagnostics.Trace_mismatch, None, None)
      else if
        (* mirror the oracle's poison-blind agreement so the classification
           names the observation that actually distinguished the runs *)
        match (s.Interp.ret, tg.Interp.ret) with
        | Some Interp.VPoison, _ | _, Some Interp.VPoison -> false
        | Some a, Some b -> a <> b
        | _ -> false
      then (Diagnostics.Value_mismatch, show_value s.Interp.ret, show_value tg.Interp.ret)
      else if s.Interp.globals_final <> tg.Interp.globals_final then
        (Diagnostics.Memory_mismatch, None, None)
      else (Diagnostics.Other, None, None)
    | _ -> (Diagnostics.Other, None, None)
  in
  let message =
    Diagnostics.render_concrete_counterexample kind ~inputs ?src_value ?tgt_value ()
  in
  {
    Alive.category = Alive.Semantic_error;
    message;
    example = inputs;
    bounded;
    copy_of_input = false;
  }

(* ------------------------------------------------------------------ *)
(* Tier 2, portfolio mode.

   The parent probes the query on a tiny conflict budget (in-process, on
   the live probe solver).  A conclusive probe needs no fan-out.  An
   inconclusive one splits on the probe's top-k VSIDS variables into 2^k
   cubes and races, across the fork pool: one cube leg per cube (each a
   different member config) plus — when the portfolio is wider than the
   cube set — diversified full-query legs.  First conclusive leg wins and
   the losers are SIGKILLed; if nobody wins outright, all-cubes-refine is a
   refutation by partition, and otherwise the cube workers' learned unit
   clauses are merged back into the probe for one last cheap solve. *)

let inconclusive_verdict ~bounded ~copy msg =
  {
    Alive.category = Alive.Inconclusive;
    message = Diagnostics.inconclusive_message msg;
    example = [];
    bounded;
    copy_of_input = copy;
  }

let rec floor_log2 n = if n <= 1 then 0 else 1 + floor_log2 (n / 2)

type race_leg = { leg_cube : int list option; leg_member : Portfolio.member }

let tier2_race (t : t) pool ~unroll ~max_conflicts ?deadline ~reduce
    ~(sat : Sat.config option) ~bounded (m : Ast.modul) ~(src : Ast.func) ~(tgt : Ast.func) :
    Alive.verdict * bool (* cacheable *) =
  Portfolio.note_race ();
  let t0 = now () in
  let base_seed = match sat with Some c -> c.Sat.seed | None -> 0 in
  let k = min t.cube_k (floor_log2 (Vproc.jobs pool)) in
  match
    Alive.cube_probe ~unroll ~max_conflicts:(min 500 max_conflicts) ?deadline ~reduce ?sat ~k
      m ~src ~tgt
  with
  | `Verdict v -> (v, true) (* conclusive before any fan-out *)
  | `Split plan -> (
    Portfolio.note_cube_split ();
    let n_cubes = List.length plan.Alive.cubes in
    let total = max t.portfolio n_cubes in
    let mems = Array.of_list (Portfolio.members ~base_seed total) in
    let legs =
      Array.init total (fun i ->
          {
            leg_cube = (if i < n_cubes then Some (List.nth plan.Alive.cubes i) else None);
            leg_member = mems.(i);
          })
    in
    let reqs =
      Array.to_list
        (Array.map
           (fun leg ->
             {
               pr_m = m;
               pr_src = src;
               pr_tgt = tgt;
               pr_unroll = unroll;
               pr_max_conflicts = max_conflicts;
               pr_reduce = reduce;
               pr_incremental = false; (* cube legs are single-shot by design *)
               pr_deadline = deadline;
               pr_sat = Some leg.leg_member.Portfolio.config;
               pr_cube = leg.leg_cube;
               (* race legs skip the store: a diversified member's key can
                  never match a parent-written entry, and the parent already
                  missed before fanning out *)
               pr_store = None;
             })
           legs)
    in
    let kill_at = Option.map (fun d -> d +. Float.max 0.01 (0.5 *. (d -. t0))) deadline in
    let decide _i (resp : proc_response) =
      match resp with
      | P_verdict (v, _) when v.Alive.category <> Alive.Inconclusive -> `Win
      | P_cube (Alive.Cube_cex _, _, _) -> `Win
      | _ -> `Continue
    in
    match Vproc.call_race ?kill_at ~decide pool reqs with
    | Error f ->
      ( inconclusive_verdict ~bounded ~copy:plan.Alive.plan_copy
          ("verification " ^ Vproc.failure_message f ^ " (portfolio)"),
        false )
    | Ok members ->
      let wall = now () -. t0 in
      let winner = ref (-1) in
      let cancelled = ref 0 in
      let wasted = ref 0 in
      Array.iteri
        (fun i (mr : proc_response Vproc.race_member) ->
          match mr with
          | Vproc.Race_done (resp, _) ->
            let d = match resp with P_verdict (_, d) | P_cube (_, _, d) -> d in
            Solver.absorb d;
            let wins =
              match resp with
              | P_verdict (v, _) -> v.Alive.category <> Alive.Inconclusive
              | P_cube (Alive.Cube_cex _, _, _) -> true
              | P_cube _ -> false
            in
            if wins && !winner < 0 then winner := i
            else wasted := !wasted + d.Solver.conflicts
          | Vproc.Race_cancelled _ -> incr cancelled
          | Vproc.Race_failed _ -> ())
        members;
      Portfolio.note_cancelled !cancelled;
      Portfolio.note_wasted ~conflicts:!wasted;
      if !winner >= 0 then begin
        let i = !winner in
        Portfolio.note_win ~label:legs.(i).leg_member.Portfolio.label;
        (match members.(i) with
        | Vproc.Race_done (_, elapsed) when elapsed > 0. ->
          Portfolio.note_reap_ratio (wall /. elapsed)
        | _ -> ());
        match members.(i) with
        | Vproc.Race_done (P_verdict (v, _), _) -> (v, true)
        | Vproc.Race_done (P_cube (Alive.Cube_cex v, _, _), _) ->
          Portfolio.note_cube_cex ();
          (v, true)
        | _ -> assert false
      end
      else begin
        (* no single leg was conclusive: conclude at the join if we can *)
        let cube_done =
          List.filteri (fun i _ -> i < n_cubes)
            (Array.to_list
               (Array.map
                  (function
                    | Vproc.Race_done (P_cube (o, units, _), _) -> Some (o, units)
                    | _ -> None)
                  members))
        in
        let all_refine =
          n_cubes > 0
          && List.for_all
               (function Some (Alive.Cube_refines, _) -> true | _ -> false)
               cube_done
        in
        if all_refine then begin
          (* the cubes partition the space: no mismatch in any cube is no
             mismatch anywhere (within the unroll bound) *)
          Portfolio.note_cube_refutation ();
          ( {
              Alive.category = Alive.Equivalent;
              message = Diagnostics.equivalent_message ~bounded;
              example = [];
              bounded;
              copy_of_input = plan.Alive.plan_copy;
            },
            true )
        end
        else begin
          let units =
            List.concat_map (function Some (_, units) -> units | None -> []) cube_done
            |> List.sort_uniq compare
          in
          Portfolio.note_units (List.length units);
          match Alive.probe_join plan ~units with
          | Some v ->
            Portfolio.note_join_refutation ();
            (v, true)
          | None ->
            ( inconclusive_verdict ~bounded ~copy:plan.Alive.plan_copy
                "solver resource limit reached (portfolio)",
              true )
        end
      end)

(* ------------------------------------------------------------------ *)

let verify_funcs ?(unroll = 4) ?(max_conflicts = 200_000) ?deadline ?(reduce = true)
    ?incremental ?sat (t : t) (m : Ast.modul) ~(src : Ast.func) ~(tgt : Ast.func) :
    Alive.verdict =
  (* resolve the env-dependent default up front: the concrete bool enters
     the cache key, so a later VERIOPT_INCR change cannot alias entries *)
  let incremental =
    match incremental with Some b -> b | None -> Alive.incremental_default ()
  in
  if not (Alive.signature_matches src tgt) then
    (* tier 0, mirror of Alive.verify_funcs: cheap, never cached *)
    {
      Alive.category = Alive.Syntax_error;
      message = Diagnostics.syntax_error_message "function signature does not match the source";
      example = [];
      bounded = false;
      copy_of_input = false;
    }
  else
    let key =
      {
        Vcache.ctx = canon Printer.module_to_string m;
        (* alpha-canonical: commuted/renormalized twins hit one entry *)
        src = alpha_canon src;
        tgt = alpha_canon tgt;
        unroll;
        max_conflicts;
        reduce;
        incremental;
        portfolio = t.portfolio;
        sat = Sat.describe_config (Option.value sat ~default:Sat.default_config);
      }
    in
    (* the disk tier's content address: alpha-canonical pair text + every
       budget knob (the semantics digest rides inside each store record) *)
    let skey =
      match t.store with
      | None -> None
      | Some _ ->
        Some
          (store_key ~unroll ~max_conflicts ~reduce ~incremental ~portfolio:t.portfolio ?sat m
             ~src ~tgt)
    in
    match Vcache.find ?skey t.cache key with
    | Some v -> v
    | None ->
      (* fault site: artificial verification latency *)
      if Fault.fire Fault.Verify_delay then
        Unix.sleepf (Float.max 0. (Fault.param Fault.Verify_delay));
      let solver_before = Solver.stats () in
      let tier = ref 2 in
      let bounded =
        lazy (Cfg.has_loop (Cfg.of_func src) || Cfg.has_loop (Cfg.of_func tgt))
      in
      (* Transient verdicts — a tripped breaker or an expired deadline —
         describe this call's budget, not the query; caching them would
         poison every later, better-funded retry. *)
      let cacheable = ref true in
      let tier2 () =
        if t.breaker_k > 0 && Vcache.breaker_skip t.cache then begin
          cacheable := false;
          {
            Alive.category = Alive.Inconclusive;
            message =
              Diagnostics.inconclusive_message
                "circuit breaker open: SMT tier skipped (degraded mode)";
            example = [];
            bounded = Lazy.force bounded;
            copy_of_input = false;
          }
        end
        else begin
          let t0 = now () in
          let v =
            match t.pool with
            | None ->
              Alive.verify_funcs ~unroll ~max_conflicts ?deadline ~reduce ~incremental ?sat m
                ~src ~tgt
            | Some pool when t.portfolio > 1 ->
              let v, c =
                tier2_race t pool ~unroll ~max_conflicts ?deadline ~reduce ~sat
                  ~bounded:(Lazy.force bounded) m ~src ~tgt
              in
              if not c then cacheable := false;
              v
            | Some pool -> (
              (* the child still gets the cooperative deadline; the hard
                 SIGKILL fires only once it has overrun by half a budget *)
              let kill_at =
                Option.map (fun d -> d +. Float.max 0.01 (0.5 *. (d -. t0))) deadline
              in
              match
                Vproc.call ?kill_at pool
                  {
                    pr_m = m;
                    pr_src = src;
                    pr_tgt = tgt;
                    pr_unroll = unroll;
                    pr_max_conflicts = max_conflicts;
                    pr_reduce = reduce;
                    pr_incremental = incremental;
                    pr_deadline = deadline;
                    pr_sat = sat;
                    pr_cube = None;
                    pr_store = Option.map Store.dir t.store;
                  }
              with
              | Ok (P_verdict (v, d)) ->
                Solver.absorb d;
                v
              | Ok (P_cube _) ->
                (* protocol mismatch; cannot happen for a full-query request *)
                cacheable := false;
                inconclusive_verdict ~bounded:(Lazy.force bounded) ~copy:false
                  "worker protocol mismatch (proc isolate)"
              | Error f ->
                (* a dead worker describes this call's sandbox, not the
                   query: degrade to an uncached Inconclusive *)
                cacheable := false;
                {
                  Alive.category = Alive.Inconclusive;
                  message =
                    Diagnostics.inconclusive_message
                      ("verification " ^ Vproc.failure_message f ^ " (proc isolate)");
                  example = [];
                  bounded = Lazy.force bounded;
                  copy_of_input = false;
                })
          in
          Vcache.note_tier2 t.cache ~seconds:(now () -. t0);
          if t.breaker_k > 0 then
            Vcache.breaker_note t.cache
              ~inconclusive:(v.Alive.category = Alive.Inconclusive)
              ~k:t.breaker_k ~cooldown:t.breaker_cooldown;
          (match deadline with
          | Some d when v.Alive.category = Alive.Inconclusive && now () > d ->
            cacheable := false
          | _ -> ());
          v
        end
      in
      let verdict =
        (* an alpha-equal copy cannot have a concrete counterexample; skip
           straight to the SMT tier, which also sets [copy_of_input] *)
        if t.tier1_samples = 0 || Builder.alpha_equal src tgt then tier2 ()
        else begin
          let t0 = now () in
          let hunt =
            Exec_oracle.equivalent ~samples:t.tier1_samples ~fuel:t.tier1_fuel m ~src ~tgt
          in
          let dt = now () -. t0 in
          match hunt with
          | Exec_oracle.Io_different args ->
            Vcache.note_tier1 t.cache ~hit:true ~seconds:dt;
            tier := 1;
            tier1_verdict m src tgt ~fuel:t.tier1_fuel ~bounded:(Lazy.force bounded) args
          | Exec_oracle.Io_equivalent _ | Exec_oracle.Io_unsupported _ ->
            Vcache.note_tier1 t.cache ~hit:false ~seconds:dt;
            tier2 ()
        end
      in
      if !cacheable then
        Vcache.add ?skey
          ?spayload:
            (Option.map
               (fun _ ->
                 store_encode ~tier:!tier
                   ~delta:(Solver.diff (Solver.stats ()) solver_before)
                   verdict)
               skey)
          t.cache key verdict;
      verdict

let verify_text ?unroll ?max_conflicts ?deadline ?reduce ?incremental ?sat (t : t)
    (m : Ast.modul) ~(src : Ast.func) ~(tgt_text : string) : Alive.verdict =
  (* fault site: a crashing (not merely failing) parse; the crash-proof
     reward path converts the exception into a counted engine failure *)
  Fault.inject Fault.Parse_corrupt ~site:"engine.parse";
  match Parser.parse_func_result tgt_text with
  | Error msg ->
    {
      Alive.category = Alive.Syntax_error;
      message = Diagnostics.syntax_error_message msg;
      example = [];
      bounded = false;
      copy_of_input = false;
    }
  | Ok tgt -> (
    match Validator.validate_func ~module_:m tgt with
    | Error errors ->
      {
        Alive.category = Alive.Syntax_error;
        message = Diagnostics.syntax_error_message (String.concat "\n" errors);
        example = [];
        bounded = false;
        copy_of_input = false;
      }
    | Ok () ->
      verify_funcs ?unroll ?max_conflicts ?deadline ?reduce ?incremental ?sat t m ~src ~tgt)

(* ------------------------------------------------------------------ *)
(* Pain probes: one timed, deadline-bounded verification plus the deltas of
   every misbehaviour counter the resilience layer keeps.  The adversarial
   miner scores candidates on this record. *)

type pain = {
  p_verdict : Alive.verdict;
  p_wall_s : float; (* wall time of this probe *)
  p_deadline_frac : float; (* wall / budget, >= 1. when the deadline expired *)
  p_conflicts : int; (* SAT conflicts this probe burned (in-process tiers) *)
  p_breaker_trips : int; (* circuit-breaker opens during the probe *)
  p_worker_kills : int; (* vproc hard-deadline SIGKILLs (process-global) *)
  p_worker_crashes : int; (* vproc workers that died on their own *)
  p_tier2_runs : int; (* SMT-tier entries (0 = settled by tier 0/1) *)
  p_cached : bool; (* answered from cache/store: no fresh work measured *)
}

type pain_stats = {
  probes : int;
  probe_inconclusive : int;
  probe_deadline_expired : int;
  probe_wall_s : float;
  probe_max_wall_s : float;
}

let pain_stats t =
  let c = t.pain in
  Mutex.lock c.pc_mu;
  let s =
    {
      probes = c.pc_probes;
      probe_inconclusive = c.pc_inconclusive;
      probe_deadline_expired = c.pc_deadline_expired;
      probe_wall_s = c.pc_wall_s;
      probe_max_wall_s = c.pc_max_wall_s;
    }
  in
  Mutex.unlock c.pc_mu;
  s

let verify_pain ?unroll ?max_conflicts ?(budget_s = 0.05) ?reduce ?incremental ?sat (t : t)
    (m : Ast.modul) ~(src : Ast.func) ~(tgt : Ast.func) : pain =
  let vs0 = Vcache.stats t.cache in
  let ss0 = Solver.stats () in
  let ps0 = Vproc.stats () in
  let t0 = now () in
  let budget_s = Float.max 0.001 budget_s in
  let v =
    verify_funcs ?unroll ?max_conflicts ~deadline:(t0 +. budget_s) ?reduce ?incremental ?sat
      t m ~src ~tgt
  in
  let wall = now () -. t0 in
  let vs1 = Vcache.stats t.cache in
  let ss1 = Solver.stats () in
  let ps1 = Vproc.stats () in
  let sdelta = Solver.diff ss1 ss0 in
  let expired = v.Alive.category = Alive.Inconclusive && wall >= budget_s in
  let c = t.pain in
  Mutex.lock c.pc_mu;
  c.pc_probes <- c.pc_probes + 1;
  if v.Alive.category = Alive.Inconclusive then c.pc_inconclusive <- c.pc_inconclusive + 1;
  if expired then c.pc_deadline_expired <- c.pc_deadline_expired + 1;
  c.pc_wall_s <- c.pc_wall_s +. wall;
  c.pc_max_wall_s <- Float.max c.pc_max_wall_s wall;
  Mutex.unlock c.pc_mu;
  {
    p_verdict = v;
    p_wall_s = wall;
    p_deadline_frac = wall /. budget_s;
    p_conflicts = sdelta.Solver.conflicts;
    p_breaker_trips = vs1.Vcache.breaker_trips - vs0.Vcache.breaker_trips;
    p_worker_kills = ps1.Vproc.killed - ps0.Vproc.killed;
    p_worker_crashes = ps1.Vproc.crashed - ps0.Vproc.crashed;
    p_tier2_runs = vs1.Vcache.tier2_runs - vs0.Vcache.tier2_runs;
    p_cached = vs1.Vcache.hits > vs0.Vcache.hits;
  }
