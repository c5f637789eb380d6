(** Open-loop synthetic traffic generation for the serving layer. *)

type cfg = {
  rate : float;
  duration_s : float;
  seed : int;
  interactive_share : float;
  interactive_deadline_s : float;
  bulk_deadline_s : float;
  dup_share : float;
  source : Workload.source; (* synthetic, mined-corpus replay, or a mix *)
}

let default_cfg =
  {
    rate = 200.;
    duration_s = 2.;
    seed = 11;
    interactive_share = 0.25;
    interactive_deadline_s = 0.1;
    bulk_deadline_s = 2.0;
    dup_share = 0.3;
    source = Workload.Synthetic;
  }

type summary = {
  offered : int;
  answered : int;
  verdict_equivalent : int;
  verdict_semantic : int;
  verdict_syntax : int;
  verdict_inconclusive : int;
  rejected : int;
  rejected_by : (string * int) list;
  p50_interactive_ms : float;
  p99_interactive_ms : float;
  p50_bulk_ms : float;
  p99_bulk_ms : float;
  wall_s : float;
  offered_rps : float;
  answered_rps : float;
  serve : Serve.stats;
}

(* Deterministic uniform in (0, 1]: same seed, same schedule. *)
let uniform seed i salt =
  let x = Hashtbl.hash (seed, i, salt, "veriopt-serve-traffic") land 0xFFFFFF in
  float_of_int (x + 1) /. 16777216.

let pctl (xs : float array) p =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let idx = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) idx))
  end

let run (sv : Serve.t) (cfg : cfg) : summary =
  let recent = Array.make 32 None in
  let n_recent = ref 0 in
  let tickets = ref [] in
  let offered = ref 0 in
  let start = Unix.gettimeofday () in
  let t_arrival = ref 0. in
  let i = ref 0 in
  (* open loop: walk the precomputable schedule, submitting at (or as soon
     as possible after) each arrival instant, never waiting on results *)
  while !t_arrival < cfg.duration_s do
    let target = start +. !t_arrival in
    let lag = target -. Unix.gettimeofday () in
    if lag > 0. then Unix.sleepf lag;
    let q =
      if !n_recent > 0 && uniform cfg.seed !i 1 < cfg.dup_share then begin
        let slot = Hashtbl.hash (cfg.seed, !i, "dup") mod min !n_recent 32 in
        match recent.(slot) with
        | Some q -> if uniform cfg.seed !i 2 < 0.5 then Workload.alpha_variant q else q
        | None -> Workload.make_from ~source:cfg.source ~seed:cfg.seed ~index:!i
      end
      else Workload.make_from ~source:cfg.source ~seed:cfg.seed ~index:!i
    in
    recent.(!n_recent mod 32) <- Some q;
    incr n_recent;
    let interactive = uniform cfg.seed !i 3 < cfg.interactive_share in
    let priority = if interactive then Serve.Interactive else Serve.Bulk in
    let deadline =
      Unix.gettimeofday ()
      +. (if interactive then cfg.interactive_deadline_s else cfg.bulk_deadline_s)
    in
    let tk =
      Serve.submit ~priority ~deadline ?unroll:q.Workload.w_unroll
        ?max_conflicts:q.Workload.w_max_conflicts sv q.Workload.w_m ~src:q.Workload.w_src
        ~tgt:q.Workload.w_tgt
    in
    tickets := (tk, priority) :: !tickets;
    incr offered;
    t_arrival := !t_arrival +. (-.log (uniform cfg.seed !i 0) /. Float.max 1e-3 cfg.rate);
    incr i
  done;
  (* the open loop is done generating; now account for every single ticket *)
  let eq = ref 0 and se = ref 0 and sy = ref 0 and inc = ref 0 and rej = ref 0 in
  let rej_by : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let lat_i = ref [] and lat_b = ref [] in
  let answered = ref 0 in
  List.iter
    (fun (tk, priority) ->
      let o = Serve.await tk in
      incr answered;
      let l = Serve.latency tk *. 1e3 in
      (match priority with
      | Serve.Interactive -> lat_i := l :: !lat_i
      | Serve.Bulk -> lat_b := l :: !lat_b);
      match o with
      | Serve.Verdict v -> (
        match v.Veriopt_alive.Alive.category with
        | Veriopt_alive.Alive.Equivalent -> incr eq
        | Veriopt_alive.Alive.Semantic_error -> incr se
        | Veriopt_alive.Alive.Syntax_error -> incr sy
        | Veriopt_alive.Alive.Inconclusive -> incr inc)
      | Serve.Rejected { reason; _ } ->
        incr rej;
        let k = Serve.reason_name reason in
        Hashtbl.replace rej_by k (1 + Option.value ~default:0 (Hashtbl.find_opt rej_by k)))
    (List.rev !tickets);
  let wall = Unix.gettimeofday () -. start in
  let lat_i = Array.of_list !lat_i and lat_b = Array.of_list !lat_b in
  let verdicts = !eq + !se + !sy + !inc in
  {
    offered = !offered;
    answered = !answered;
    verdict_equivalent = !eq;
    verdict_semantic = !se;
    verdict_syntax = !sy;
    verdict_inconclusive = !inc;
    rejected = !rej;
    rejected_by =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) rej_by []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    p50_interactive_ms = pctl lat_i 50.;
    p99_interactive_ms = pctl lat_i 99.;
    p50_bulk_ms = pctl lat_b 50.;
    p99_bulk_ms = pctl lat_b 99.;
    wall_s = wall;
    offered_rps = (if wall > 0. then float_of_int !offered /. wall else 0.);
    answered_rps = (if wall > 0. then float_of_int verdicts /. wall else 0.);
    serve = Serve.stats sv;
  }

let calibrate (sv : Serve.t) ~seed ~n : float =
  let n = max 1 n in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    let q = Workload.make ~seed ~index:i in
    ignore
      (Serve.verify ~priority:Serve.Bulk
         ~deadline:(Unix.gettimeofday () +. 5.)
         ?unroll:q.Workload.w_unroll ?max_conflicts:q.Workload.w_max_conflicts sv
         q.Workload.w_m ~src:q.Workload.w_src ~tgt:q.Workload.w_tgt)
  done;
  let el = Float.max 1e-6 (Unix.gettimeofday () -. t0) in
  (* one closed-loop stream keeps one worker busy; capacity scales with the
     dispatcher pool *)
  float_of_int n /. el *. float_of_int (Serve.config sv).Serve.workers

let pp_summary ppf (s : summary) =
  let sv = s.serve in
  Fmt.pf ppf
    "  offered %d (%.0f rps) answered %d  verdicts eq/sem/syn/inc %d/%d/%d/%d  rejected %d@."
    s.offered s.offered_rps s.answered s.verdict_equivalent s.verdict_semantic s.verdict_syntax
    s.verdict_inconclusive s.rejected;
  List.iter (fun (k, v) -> Fmt.pf ppf "    rejected %-20s %d@." k v) s.rejected_by;
  Fmt.pf ppf "  latency ms: interactive p50 %.1f p99 %.1f | bulk p50 %.1f p99 %.1f@."
    s.p50_interactive_ms s.p99_interactive_ms s.p50_bulk_ms s.p99_bulk_ms;
  Fmt.pf ppf
    "  serve: engine calls %d coalesced %d admission refused %d@." sv.Serve.engine_calls
    sv.Serve.coalesced sv.Serve.admission_refused;
  Fmt.pf ppf "  shed: queue-full %d displaced %d expired %d drain %d | depth max %d@."
    sv.Serve.shed_queue_full sv.Serve.shed_displaced sv.Serve.shed_expired sv.Serve.shed_drain
    sv.Serve.depth_max;
  Fmt.pf ppf "  service ewma ms: interactive %.2f bulk %.2f@."
    (sv.Serve.service_ewma_interactive_s *. 1e3)
    (sv.Serve.service_ewma_bulk_s *. 1e3)

let json_of_summary ~name ~extra (s : summary) : string =
  let sv = s.serve in
  let b = Buffer.create 1024 in
  let kv fmt = Printf.ksprintf (fun line -> Buffer.add_string b line) fmt in
  kv "{\n";
  kv "  \"bench\": %S,\n" name;
  kv "  \"offered\": %d,\n" s.offered;
  kv "  \"answered\": %d,\n" s.answered;
  kv "  \"offered_rps\": %.1f,\n" s.offered_rps;
  kv "  \"answered_rps\": %.1f,\n" s.answered_rps;
  kv "  \"wall_s\": %.3f,\n" s.wall_s;
  kv "  \"p50_interactive_ms\": %.2f,\n" s.p50_interactive_ms;
  kv "  \"p99_interactive_ms\": %.2f,\n" s.p99_interactive_ms;
  kv "  \"p50_bulk_ms\": %.2f,\n" s.p50_bulk_ms;
  kv "  \"p99_bulk_ms\": %.2f,\n" s.p99_bulk_ms;
  kv "  \"verdicts\": { \"equivalent\": %d, \"semantic_error\": %d, \"syntax_error\": %d, \"inconclusive\": %d },\n"
    s.verdict_equivalent s.verdict_semantic s.verdict_syntax s.verdict_inconclusive;
  kv "  \"rejected\": %d,\n" s.rejected;
  kv "  \"rejected_by\": {%s},\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf " \"%s\": %d" k v) s.rejected_by));
  kv "  \"engine_calls\": %d,\n" sv.Serve.engine_calls;
  kv "  \"coalesced\": %d,\n" sv.Serve.coalesced;
  kv "  \"admission_refused\": %d,\n" sv.Serve.admission_refused;
  kv "  \"shed_queue_full\": %d,\n" sv.Serve.shed_queue_full;
  kv "  \"shed_displaced\": %d,\n" sv.Serve.shed_displaced;
  kv "  \"shed_expired\": %d,\n" sv.Serve.shed_expired;
  kv "  \"shed_drain\": %d,\n" sv.Serve.shed_drain;
  kv "  \"rejected_draining\": %d,\n" sv.Serve.rejected_draining;
  kv "  \"client_disconnects\": %d,\n" sv.Serve.client_disconnects;
  kv "  \"depth_max\": %d,\n" sv.Serve.depth_max;
  kv "  \"service_ewma_interactive_ms\": %.3f,\n" (sv.Serve.service_ewma_interactive_s *. 1e3);
  kv "  \"service_ewma_bulk_ms\": %.3f%s\n"
    (sv.Serve.service_ewma_bulk_s *. 1e3)
    (if extra = [] then "" else ",");
  List.iteri
    (fun idx (k, v) ->
      kv "  \"%s\": %s%s\n" k v (if idx = List.length extra - 1 then "" else ","))
    extra;
  kv "}\n";
  Buffer.contents b
