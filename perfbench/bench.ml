(* The paper-pipeline benchmark program.

   One process sets one workload up and runs one timed pass of it:

     bench.exe WORKLOAD --seed N [--seconds S] [--rate RPS] [--dir DIR]
               [--setup-only] [--check] [--trace] [--spans FILE]

   It prints {"ready": <unix time>} once set-up is done, then one JSON
   record of the pass: its wall time, per-item latencies, the work counters
   and output digest that must repeat at the same seed, the paper metrics,
   peak memory, and (with [--check]) the tallies of the independent output
   checks.  With [--trace] it records spans around each call into a layer
   and adds the per-layer metrics.  It measures from the outside: it times
   calls into the library's public functions and reads the stats records
   the library already keeps (Vcache, Solver, Store, Serve, Vproc).
   perfbench/run.py pins the environment, launches this program once per
   pass and aggregates the passes.

   Every workload pins its work set.  Verification cost is heavy-tailed
   (4 of 200 validation seeds take 97% of the labelling time, and the
   trainer's seed moves a training pass by 50%), so for label, train and
   warm the seed only draws the inputs of the output checks, and runs at
   different seeds measure the same work in the same order.  serve offers
   a pinned schedule; its seed only draws which duplicate requests arrive
   alpha-renamed. *)

open Veriopt_ir
module Suite = Veriopt_data.Suite
module Cgen = Veriopt_data.Cgen
module Lower = Veriopt_data.Lower
module Pass_manager = Veriopt_passes.Pass_manager
module Tokenizer = Veriopt_nlp.Tokenizer
module Alive = Veriopt_alive.Alive
module Engine = Veriopt_alive.Engine
module Vcache = Veriopt_alive.Vcache
module Solver = Veriopt_smt.Solver
module Store = Veriopt_store.Store
module Serve = Veriopt_serve.Serve
module Workload = Veriopt_serve.Workload
module Vproc = Veriopt_vproc.Vproc
module Trainer = Veriopt_rl.Trainer
module Reward = Veriopt_rl.Reward
module Model = Veriopt_llm.Model
module Prompt = Veriopt_llm.Prompt
module Capability = Veriopt_llm.Capability
module Latency = Veriopt_cost.Latency
module Evaluate = Veriopt.Evaluate
module Exec_oracle = Veriopt_eval.Exec_oracle

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* JSON output *)

type json =
  | F of float
  | I of int
  | S of string
  | B of bool
  | L of json list
  | O of (string * json) list

let rec json_to_string = function
  | F f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  | I i -> string_of_int i
  | S s -> Printf.sprintf "%S" s
  | B b -> string_of_bool b
  | L xs -> "[" ^ String.concat ", " (List.map json_to_string xs) ^ "]"
  | O kvs ->
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_to_string v)) kvs)
    ^ "}"

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    let l = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" l then
      Scanf.sscanf l "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.)
    else go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ------------------------------------------------------------------ *)
(* Spans: recorded only in the traced run, around each call into a layer.
   Kept in memory; self time is a span's duration minus its children's. *)

type span = {
  sid : int;
  name : string;
  parent : int;
  item : int;
  t0 : float;
  mutable t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_sid = ref 0
let cur_item = ref (-1)

let span name f =
  if not !tracing then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { sid = !next_sid; name; parent; item = !cur_item; t0 = now (); t1 = nan } in
    incr next_sid;
    spans := s :: !spans;
    stack := s.sid :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack)
      f
  end

(* Self seconds per span name over the given spans. *)
let self_times (ss : span list) : (string, float) Hashtbl.t =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    ss;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.sid) in
      Hashtbl.replace self s.name (d +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    ss;
  self

let write_spans file =
  let oc = open_out file in
  List.iter
    (fun s ->
      output_string oc
        (json_to_string
           (O
              [
                ("id", I s.sid);
                ("name", S s.name);
                ("parent", I s.parent);
                ("item", I s.item);
                ("start", F s.t0);
                ("end", F s.t1);
              ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* What one timed pass reports *)

type item = {
  key : int;  (** identifies the item across passes *)
  cls : string;  (** input class (serve) or "-" *)
  ms : float;
  in_p50 : bool;  (** counted in p50_ms / tail_ms *)
  fast : bool;  (** settled without SAT search: counted in fast_p50_ms *)
}

type outcome = {
  wall_s : float;
  items : item list;
  counters : (string * int) list;  (** must repeat exactly at the same seed *)
  digest : string;  (** of the pass's outputs; must repeat at the same seed *)
  decided_share : float;
  different_correct : float;
  geomean_speedup : float;
  attempted : int;
  failed : int;
  layers : (string * float) list;  (** per-layer counts and times from stats records *)
  check : unit -> int * int * int;  (** (checked, mismatched, unsupported) outputs *)
}

type workload = { setup : unit -> unit; pass : unit -> outcome; teardown : unit -> unit }

let md5 parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let solver_layers (s0 : Solver.stats) (s1 : Solver.stats) =
  let d = Solver.diff s1 s0 in
  [
    ("smt.checks", float_of_int d.Solver.checks);
    ("smt.conflicts", float_of_int d.Solver.conflicts);
    ("smt.decisions", float_of_int d.Solver.decisions);
    ("smt.propagations", float_of_int d.Solver.propagations);
    ("smt.props_per_conflict", ratio d.Solver.propagations d.Solver.conflicts);
  ]

(* The independent output check: run [tgt] against [src] on the concrete
   interpreter with seeded inputs.  A distinguishing input is a mismatch. *)
let oracle_check ~seed m ~src ~tgt =
  match Exec_oracle.equivalent ~samples:32 ~seed m ~src ~tgt with
  | Exec_oracle.Io_equivalent _ -> `Ok
  | Exec_oracle.Io_different _ -> `Mismatch
  | Exec_oracle.Io_unsupported _ -> `Unsupported

let tally results =
  List.fold_left
    (fun (c, m, u) -> function
      | `Ok -> (c + 1, m, u) | `Mismatch -> (c + 1, m + 1, u) | `Unsupported -> (c, m, u + 1))
    (0, 0, 0) results

(* ------------------------------------------------------------------ *)
(* label: a pinned window of the validation seed stream through
   Suite.build_sample (generate, lower, instcombine, Alive filter).  The
   window skips validation seed +92, which alone verifies for ~40 s. *)

let label_window = Array.init 100 (fun i -> Suite.validation_seed_base + 100 + i)

type drop = Kept of Suite.sample | Dropped of string

let drop_of_bump bump =
  let s = bump Suite.empty_stats in
  if s.Suite.dropped_no_change > 0 then "no_change"
  else if s.Suite.dropped_too_long > 0 then "too_long"
  else if s.Suite.dropped_not_equivalent > 0 then "not_equivalent"
  else "inconclusive"

(* Suite.build_sample split into its public calls, so each gets a span.
   The profile mirrors Suite's per-seed shape draw; the traced pass's output
   digest must equal the untraced one, which catches any drift. *)
let traced_build_sample ~seed id =
  let profile =
    (* the same record expression as Suite's, so the compiler draws the
       fields in the same order *)
    let r = Random.State.make [| seed; 77 |] in
    {
      Cgen.default_profile with
      Cgen.max_stmts = 2 + Random.State.int r 6;
      Cgen.max_depth = 2 + Random.State.int r 2;
      Cgen.allow_loops = Random.State.int r 4 = 0;
      Cgen.allow_calls = Random.State.int r 3 = 0;
    }
  in
  let cf = span "data.cgen" (fun () -> Cgen.generate ~profile ~seed ~name:(Fmt.str "f%d" id) ()) in
  let modul, src = span "data.lower" (fun () -> Lower.lower cf) in
  let label, trace = span "passes.instcombine" (fun () -> Pass_manager.instcombine modul src) in
  let src_text = span "ir.print" (fun () -> Printer.func_to_string src) in
  let label_text = span "ir.print" (fun () -> Printer.func_to_string label) in
  let rewrites = List.length trace in
  if trace = [] then (Dropped "no_change", rewrites)
  else if not (span "nlp.tokens" (fun () -> Tokenizer.within_limit src_text)) then
    (Dropped "too_long", rewrites)
  else
    match (span "alive.verify" (fun () -> Alive.verify_funcs modul ~src ~tgt:label)).Alive.category with
    | Alive.Equivalent ->
      (Kept { Suite.id; modul; src; label; trace; src_text; label_text }, rewrites)
    | Alive.Semantic_error | Alive.Syntax_error -> (Dropped "not_equivalent", rewrites)
    | Alive.Inconclusive -> (Dropped "inconclusive", rewrites)

let label_workload ~seed : workload =
  let n = Array.length label_window in
  let pass () =
    let s0 = Solver.stats () in
    let results = Array.make n (Dropped "unset") in
    let items = ref [] and rewrites = ref 0 in
    let t0 = now () in
    span "pass" (fun () ->
        Array.iter
          (fun pos ->
            cur_item := pos;
            let c0 = (Solver.stats ()).Solver.conflicts in
            let ta = now () in
            let r =
              span "label.item" (fun () ->
                  if !tracing then begin
                    let r, k = traced_build_sample ~seed:label_window.(pos) pos in
                    rewrites := !rewrites + k;
                    r
                  end
                  else
                    match Suite.build_sample ~seed:label_window.(pos) pos with
                    | Ok s -> Kept s
                    | Error bump -> Dropped (drop_of_bump bump))
            in
            let ms = (now () -. ta) *. 1e3 in
            let conflicts = (Solver.stats ()).Solver.conflicts - c0 in
            results.(pos) <- r;
            items := { key = pos; cls = "-"; ms; in_p50 = true; fast = conflicts = 0 } :: !items)
          (Array.init n Fun.id));
    let wall_s = now () -. t0 in
    let s1 = Solver.stats () in
    let count p = Array.fold_left (fun c r -> if p r then c + 1 else c) 0 results in
    let kept = List.filter_map (function Kept s -> Some s | Dropped _ -> None) (Array.to_list results) in
    let dropped why = count (function Dropped w -> w = why | Kept _ -> false) in
    let n_kept = List.length kept in
    let ne = dropped "not_equivalent" and inc = dropped "inconclusive" in
    let speedups =
      List.map
        (fun (s : Suite.sample) ->
          log (float_of_int (max 1 (Latency.of_func s.Suite.src))
               /. float_of_int (max 1 (Latency.of_func s.Suite.label))))
        kept
    in
    let d = Solver.diff s1 s0 in
    {
      wall_s;
      items = !items;
      counters =
        [
          ("smt.conflicts", d.Solver.conflicts);
          ("smt.checks", d.Solver.checks);
          ("suite.kept", n_kept);
          ("suite.dropped_no_change", dropped "no_change");
          ("suite.dropped_too_long", dropped "too_long");
          ("verdict.not_equivalent", ne);
          ("verdict.inconclusive", inc);
        ];
      digest =
        md5
          (Array.to_list
             (Array.map
                (function
                  | Kept s -> s.Suite.src_text ^ "\x01" ^ s.Suite.label_text | Dropped w -> w)
                results));
      decided_share = ratio (n_kept + ne) (n_kept + ne + inc);
      different_correct = ratio n_kept n;
      geomean_speedup =
        exp (List.fold_left ( +. ) 0. speedups /. float_of_int (max 1 (List.length speedups)));
      attempted = n;
      failed = 0;
      layers =
        ("suite.kept", float_of_int n_kept)
        :: (if !tracing then [ ("passes.rewrites", float_of_int !rewrites) ] else [])
        @ solver_layers s0 s1;
      check =
        (fun () ->
          tally
            (List.map
               (fun (s : Suite.sample) ->
                 oracle_check ~seed:(Hashtbl.hash (seed, s.Suite.id)) s.Suite.modul ~src:s.Suite.src
                   ~tgt:s.Suite.label)
               kept));
    }
  in
  { setup = (fun () -> ()); pass; teardown = (fun () -> ()) }

(* ------------------------------------------------------------------ *)
(* train and warm: the four-stage curriculum (Model-Zero, Warm-up,
   Model-Correctness, Model-Latency) on a fresh in-process engine, then
   Model-Latency evaluated on a validation window, one sample at a time.
   warm mounts the engine on a verdict store filled by one cold pass. *)

let n_train = 30
let n_validation = 30
let trainer_opts = { Trainer.default_options with Trainer.grpo_steps = 10 }
let eval_conflicts = 60_000

let category_name = function
  | Evaluate.Correct_copy -> "copy"
  | Evaluate.Correct_different -> "different"
  | Evaluate.Semantic_error -> "semantic"
  | Evaluate.Syntax_error -> "syntax"
  | Evaluate.Inconclusive -> "inconclusive"

(* Evaluate.evaluate_sample split into its public calls, so each gets a
   span: decode, verify the answer, measure the cost model. *)
let traced_evaluate engine model (s : Suite.sample) : Evaluate.row =
  let g =
    span "llm.generate" (fun () ->
        Model.generate model ~mode:Prompt.Generic ~rng:None ~sample_id:s.Suite.id s.Suite.modul
          s.Suite.src)
  in
  let verdict, parsed =
    match Prompt.answer_of g.Model.completion with
    | None -> (Reward.syntax_verdict "missing <answer> tags", None)
    | Some answer ->
      let v =
        span "alive.verify_text" (fun () ->
            Engine.verify_text ~unroll:Reward.default_config.Reward.unroll
              ~max_conflicts:eval_conflicts engine s.Suite.modul ~src:s.Suite.src ~tgt_text:answer)
      in
      (v, match Parser.parse_func_result answer with Ok f -> Some f | Error _ -> None)
  in
  let category =
    match verdict.Alive.category with
    | Alive.Equivalent ->
      if verdict.Alive.copy_of_input then Evaluate.Correct_copy else Evaluate.Correct_different
    | Alive.Semantic_error -> Evaluate.Semantic_error
    | Alive.Syntax_error -> Evaluate.Syntax_error
    | Alive.Inconclusive -> Evaluate.Inconclusive
  in
  let output =
    match (category, parsed) with
    | (Evaluate.Correct_copy | Evaluate.Correct_different), Some f -> f
    | _ -> s.Suite.src
  in
  let m_src, m_label, m_out =
    span "cost.metrics" (fun () ->
        let m = Evaluate.metrics_of ~modul:s.Suite.modul in
        (m s.Suite.src, m s.Suite.label, m output))
  in
  {
    Evaluate.sample = s;
    category;
    verdict_message = verdict.Alive.message;
    output;
    m_src;
    m_label;
    m_out;
    raw_out = parsed;
  }

let floats xs = String.concat "," (List.map (Printf.sprintf "%h") xs)

(* Per-item latency samples: the validation window is evaluated this many
   more times after each untraced pass, each time on a fresh engine. *)
let eval_rounds = 3

let train_workload ~seed ~(store : string option) ~rounds : workload =
  let train = ref [] and validation = ref [||] in
  let setup () =
    train := (Suite.training ~verify:false ~n:n_train ()).Suite.samples;
    validation := Array.of_list (Suite.validation ~verify:false ~n:n_validation ()).Suite.samples
  in
  (* Model-Latency over the validation window, one sample at a time: the
     rows, and each evaluation's latency. *)
  let evaluate_window engine model =
    let items = ref [] in
    let rows =
      Array.mapi
        (fun pos s ->
          cur_item := pos;
          let r0 = (Engine.stats engine).Vcache.tier2_runs in
          let ta = now () in
          let row =
            span "eval.item" (fun () ->
                if !tracing then traced_evaluate engine model s
                else Evaluate.evaluate_sample ~max_conflicts:eval_conflicts ~engine model s)
          in
          let ms = (now () -. ta) *. 1e3 in
          let fast = (Engine.stats engine).Vcache.tier2_runs = r0 in
          items := { key = pos; cls = "-"; ms; in_p50 = true; fast } :: !items;
          row)
        !validation
    in
    (Array.to_list rows, !items)
  in
  let pass () =
    let s0 = Solver.stats () in
    let failures0 = Reward.engine_failures () in
    let stage_s = ref [] and verify_s = ref 0. in
    let t0 = now () in
    let rows, logs, engine_stats, store_stats, model, open_s =
      span "pass" (fun () ->
          let t_open = now () in
          let engine =
            span "store.open" (fun () -> Engine.create ~isolate:Engine.Domains ?store ())
          in
          let open_s = now () -. t_open in
          let stage name f =
            let v0 = Engine.stats engine and ts = now () in
            let r = span name f in
            let v1 = Engine.stats engine in
            stage_s := (name, now () -. ts) :: !stage_s;
            verify_s :=
              !verify_s +. (v1.Vcache.tier1_seconds -. v0.Vcache.tier1_seconds)
              +. (v1.Vcache.tier2_seconds -. v0.Vcache.tier2_seconds);
            r
          in
          let opts = trainer_opts and train = !train in
          let base = Capability.base_3b () in
          let s1 = stage "rl.zero" (fun () -> Trainer.train_model_zero ~opts ~engine base train) in
          let warm = stage "rl.warmup" (fun () -> Trainer.warm_up ~opts base train s1.Trainer.failures) in
          let s2 = stage "rl.correctness" (fun () -> Trainer.train_correctness ~opts ~engine warm train) in
          let s3 =
            stage "rl.latency" (fun () ->
                Trainer.train_latency ~opts ~engine s2.Trainer.model_correctness train)
          in
          let model = s3.Trainer.model_latency in
          let rows, _ = evaluate_window engine model in
          let engine_stats = Engine.stats engine and store_stats = Engine.store_stats engine in
          Engine.shutdown engine;
          let logs =
            [
              s1.Trainer.zero_log.Trainer.raw_rewards;
              s2.Trainer.correctness_log.Trainer.raw_rewards;
              s3.Trainer.latency_log.Trainer.raw_rewards;
            ]
          in
          (rows, logs, engine_stats, store_stats, model, open_s))
    in
    let wall_s = now () -. t0 in
    let s1 = Solver.stats () in
    (* The latency a user of the trained model sees: each evaluation on a
       fresh engine (warm: mounted on the same store), not on the engine
       whose cache training has filled.  Outside pass_s. *)
    let items =
      if !tracing then []
      else
        List.concat_map
          (fun _ ->
            let engine = Engine.create ~isolate:Engine.Domains ?store () in
            let _, items = evaluate_window engine model in
            Engine.shutdown engine;
            items)
          (List.init rounds Fun.id)
    in
    let counts = Evaluate.count_rows rows in
    let cat c = List.length (List.filter (fun (r : Evaluate.row) -> r.Evaluate.category = c) rows) in
    let v = engine_stats in
    let st f = match store_stats with Some s -> f s | None -> 0 in
    let stage_total = List.fold_left (fun a (_, s) -> a +. s) 0. !stage_s in
    {
      wall_s;
      items;
      counters =
        [
          ("smt.conflicts", (Solver.diff s1 s0).Solver.conflicts);
          ("alive.tier2_runs", v.Vcache.tier2_runs);
          ("alive.tier1_hits", v.Vcache.tier1_hits);
          ("cache.hits", v.Vcache.hits);
          ("cache.misses", v.Vcache.misses);
          ("store.hits", st (fun s -> s.Store.hits));
          ("store.misses", st (fun s -> s.Store.misses));
          ("eval.copy", counts.Evaluate.copies);
          ("eval.different", cat Evaluate.Correct_different);
          ("eval.semantic", counts.Evaluate.semantic);
          ("eval.syntax", counts.Evaluate.syntax);
          ("eval.inconclusive", counts.Evaluate.inconclusive);
        ];
      digest =
        md5
          (List.map floats logs
          @ List.map
              (fun (r : Evaluate.row) ->
                let m = r.Evaluate.m_out in
                Fmt.str "%s|%s|%d|%d|%d" (category_name r.Evaluate.category)
                  (Printer.func_to_string r.Evaluate.output)
                  m.Evaluate.latency m.Evaluate.icount m.Evaluate.binsize)
              rows);
      decided_share = ratio (counts.Evaluate.total - counts.Evaluate.inconclusive) counts.Evaluate.total;
      different_correct = ratio (cat Evaluate.Correct_different) counts.Evaluate.total;
      geomean_speedup =
        Evaluate.geomean_speedup rows ~metric:(fun m -> m.Evaluate.latency) ~out:Evaluate.out_metrics
          ~base:Evaluate.src_metrics;
      attempted = List.length rows + List.length items;
      failed = Reward.engine_failures () - failures0;
      layers =
        List.map (fun (name, s) -> (name ^ "_s", s)) !stage_s
        @ [
            ("rl.nonverify_s", stage_total -. !verify_s);
            ("alive.verify_s", v.Vcache.tier2_seconds);
            ("alive.tier1_s", v.Vcache.tier1_seconds);
            ("alive.tier1_hits", float_of_int v.Vcache.tier1_hits);
            ("alive.tier2_s", v.Vcache.tier2_seconds);
            ("alive.tier2_runs", float_of_int v.Vcache.tier2_runs);
            ("alive.cache_hit_ratio", ratio v.Vcache.hits (v.Vcache.hits + v.Vcache.misses));
            ("store.open_ms", open_s *. 1e3);
            ("store.hits", float_of_int (st (fun s -> s.Store.hits)));
            ("store.misses", float_of_int (st (fun s -> s.Store.misses)));
            ("store.writes", float_of_int (st (fun s -> s.Store.writes)));
            ("store.hit_ratio", ratio (st (fun s -> s.Store.hits))
                (st (fun s -> s.Store.hits + s.Store.misses)));
          ]
        @ solver_layers s0 s1;
      check =
        (fun () ->
          tally
            (List.filter_map
               (fun (r : Evaluate.row) ->
                 match r.Evaluate.category with
                 | Evaluate.Correct_copy | Evaluate.Correct_different ->
                   let s = r.Evaluate.sample in
                   Some
                     (oracle_check ~seed:(Hashtbl.hash (seed, s.Suite.id)) s.Suite.modul
                        ~src:s.Suite.src ~tgt:r.Evaluate.output)
                 | _ -> None)
               rows));
    }
  in
  { setup; pass; teardown = (fun () -> ()) }

(* warm's set-up: build the sample sets and, in the set-up launches, fill
   [dir] with one cold pass. *)
let warm_workload ~seed ~dir ~fill : workload =
  if not fill then train_workload ~seed ~store:(Some dir) ~rounds:eval_rounds
  else
    let cold = train_workload ~seed ~store:(Some dir) ~rounds:0 in
    { cold with setup = (fun () -> cold.setup (); ignore (cold.pass ())) }

(* ------------------------------------------------------------------ *)
(* serve: open-loop Workload traffic at a fixed rate into Serve over the
   forked Proc engine.  The schedule is drawn in set-up; each request is
   timed from its due instant. *)

type arrival = {
  due : float;  (** offset from the window start *)
  q : Workload.query;
  a_cls : string;  (** w_label, or "dup" for a replay of a recent query *)
  priority : Serve.priority;
}

let serve_config =
  {
    Serve.default_config with
    Serve.workers = 2;
    interactive_deadline_s = 60.;
    bulk_deadline_s = 60.;
  }

(* The schedule is pinned: the same queries, arrival instants (Poisson,
   rescaled to span the window exactly) and priority classes every run, so
   the verdict counts repeat and the way fast requests overlap solver-bound
   ones does not change between runs.  The run's seed only draws which
   duplicates arrive alpha-renamed, which the canonical keys make the same
   work. *)
let schedule_seed = 11

let schedule ~seed ~rate ~seconds =
  let n = max 1 (int_of_float (Float.round (rate *. seconds))) in
  let rs = Random.State.make [| schedule_seed; 0x7e7e |] in
  let ra = Random.State.make [| seed; 0x7e7e |] in
  let recent = Array.make 32 None in
  let stream =
    Array.init n (fun i ->
        match recent.(Random.State.int rs 32) with
        | Some q when Random.State.float rs 1. < 0.3 ->
          ((if Random.State.bool ra then Workload.alpha_variant q else q), "dup")
        | _ ->
          let q = Workload.make ~seed:schedule_seed ~index:i in
          recent.(i mod 32) <- Some q;
          (q, q.Workload.w_label))
  in
  let gaps = Array.init n (fun _ -> -.log (1. -. Random.State.float rs 1.)) in
  let total = Array.fold_left ( +. ) 0. gaps in
  let t = ref 0. in
  Array.mapi
    (fun i (q, a_cls) ->
      let due = !t *. seconds /. total in
      t := !t +. gaps.(i);
      let priority = if Random.State.float rs 1. < 0.25 then Serve.Interactive else Serve.Bulk in
      { due; q; a_cls; priority })
    stream

let solver_bound cls = cls = "mul-chain" || cls = "mul-comm"
let settles_early cls = cls = "easy" || cls = "wrong"

let serve_workload ~seed ~rate ~seconds : workload =
  let plan = ref [||] and svc = ref None in
  let start_service () =
    let engine = Engine.create ~isolate:Engine.Proc () in
    if Engine.isolate engine <> Engine.Proc then failwith "serve: the Proc backend is unavailable";
    svc := Some (Serve.create ~config:serve_config ~engine ())
  in
  let stop_service () =
    match !svc with
    | None -> ()
    | Some sv ->
      svc := None;
      let d = Serve.drain sv in
      if d.Serve.drain_orphans <> 0 then failwith "serve: orphaned workers after drain"
  in
  let setup () =
    plan := schedule ~seed ~rate ~seconds;
    start_service ()
  in
  let pass () =
    let sv = Option.get !svc and late_ms = ref 0. in
    let p0 = Vproc.stats () and s0 = Solver.stats () in
    let t_start = now () +. 0.01 in
    let sent =
      span "pass" (fun () ->
          Array.mapi
            (fun i a ->
              cur_item := i;
              let due = t_start +. a.due in
              let lag = due -. now () in
              if lag > 0. then span "serve.gen_wait" (fun () -> Unix.sleepf lag);
              let t_sub = now () in
              let tk =
                span "serve.submit" (fun () ->
                    Serve.submit ~priority:a.priority ?unroll:a.q.Workload.w_unroll
                      ?max_conflicts:a.q.Workload.w_max_conflicts sv a.q.Workload.w_m
                      ~src:a.q.Workload.w_src ~tgt:a.q.Workload.w_tgt)
              in
              (a, due, t_sub, tk))
            !plan
          |> Array.map (fun (a, due, t_sub, tk) ->
                 let o = span "serve.await" (fun () -> Serve.await tk) in
                 (a, due, t_sub, o, Serve.latency tk)))
    in
    let t_end = Array.fold_left (fun m (_, _, t_sub, _, l) -> Float.max m (t_sub +. l)) t_start sent in
    let st = Serve.stats sv and v = Engine.stats (Serve.engine sv) in
    let p1 = Vproc.stats () and s1 = Solver.stats () in
    let n = Array.length sent in
    let counts = Hashtbl.create 16 in
    let bump k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
    let decided = ref 0 and different = ref 0 and failed = ref 0 and logs = ref 0. in
    let mismatches = ref 0 and checked = ref 0 in
    let items =
      Array.to_list
        (Array.mapi
           (fun i (a, due, t_sub, o, l) ->
             let q = a.q in
             let verdict =
               match o with
               | Serve.Verdict v -> Some v
               | Serve.Rejected _ ->
                 incr failed;
                 None
             in
             let vname =
               match verdict with
               | None -> "rejected"
               | Some v -> (
                 match v.Alive.category with
                 | Alive.Equivalent -> "equivalent"
                 | Alive.Semantic_error -> "semantic"
                 | Alive.Syntax_error -> "syntax"
                 | Alive.Inconclusive -> "inconclusive")
             in
             bump (Fmt.str "verdict.%s.%s" q.Workload.w_label vname);
             (match verdict with
             | Some v when v.Alive.category <> Alive.Inconclusive -> (
               incr decided;
               match v.Alive.category with
               | Alive.Equivalent when not (Builder.alpha_equal q.Workload.w_src q.Workload.w_tgt) ->
                 incr different;
                 logs :=
                   !logs
                   +. log
                        (float_of_int (max 1 (Latency.of_func q.Workload.w_src))
                        /. float_of_int (max 1 (Latency.of_func q.Workload.w_tgt)))
               | _ -> ())
             | _ -> ());
             (* known by construction: easy pairs are equivalent, wrong ones are not *)
             (match (q.Workload.w_label, verdict) with
             | "easy", Some v ->
               incr checked;
               if v.Alive.category <> Alive.Equivalent then incr mismatches
             | "wrong", Some v ->
               incr checked;
               if v.Alive.category <> Alive.Semantic_error then incr mismatches
             | _ -> ());
             let ms = (t_sub -. due +. l) *. 1e3 in
             late_ms := Float.max !late_ms ((t_sub -. due) *. 1e3);
             { key = i; cls = a.a_cls; ms; in_p50 = solver_bound a.a_cls; fast = settles_early a.a_cls })
           sent)
    in
    let counters =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] |> List.sort compare
    in
    let checked = !checked and mismatches = !mismatches in
    stop_service ();
    {
      wall_s = t_end -. t_start;
      items;
      counters;
      digest = md5 (List.map (fun (k, v) -> Fmt.str "%s=%d" k v) counters);
      decided_share = ratio !decided n;
      different_correct = ratio !different n;
      geomean_speedup = exp (!logs /. float_of_int (max 1 n));
      attempted = n;
      failed = !failed + (p1.Vproc.killed - p0.Vproc.killed) + (p1.Vproc.crashed - p0.Vproc.crashed);
      layers =
        [
          ("serve.engine_calls", float_of_int st.Serve.engine_calls);
          ("serve.coalesced_ratio", ratio st.Serve.coalesced n);
          ("serve.admission_refused", float_of_int st.Serve.admission_refused);
          ("serve.depth_max", float_of_int st.Serve.depth_max);
          ("serve.service_ewma_bulk_ms", st.Serve.service_ewma_bulk_s *. 1e3);
          ("serve.gen_late_ms", !late_ms);
          ("vproc.frames", float_of_int (p1.Vproc.frames - p0.Vproc.frames));
          ("vproc.respawned", float_of_int (p1.Vproc.respawned - p0.Vproc.respawned));
          ("alive.verify_s", v.Vcache.tier2_seconds);
          ("alive.tier1_s", v.Vcache.tier1_seconds);
          ("alive.tier1_hits", float_of_int v.Vcache.tier1_hits);
          ("alive.tier2_s", v.Vcache.tier2_seconds);
          ("alive.tier2_runs", float_of_int v.Vcache.tier2_runs);
          ("alive.cache_hit_ratio", ratio v.Vcache.hits (v.Vcache.hits + v.Vcache.misses));
        ]
        @ solver_layers s0 s1;
      check = (fun () -> (checked, mismatches, 0));
    }
  in
  { setup; pass; teardown = stop_service }

(* ------------------------------------------------------------------ *)
(* One process: set up, report readiness, run one pass, report it *)

let layer_names =
  [
    "data.cgen_ms"; "data.lower_ms"; "passes.instcombine_ms"; "passes.rewrites"; "ir.print_ms";
    "nlp.tokens_ms";
    "alive.verify_s"; "smt.checks"; "smt.conflicts"; "smt.decisions"; "smt.propagations";
    "smt.props_per_conflict"; "rl.zero_s"; "rl.warmup_s"; "rl.correctness_s"; "rl.latency_s";
    "rl.nonverify_s"; "alive.tier1_s"; "alive.tier1_hits"; "alive.tier2_s"; "alive.tier2_runs";
    "alive.cache_hit_ratio"; "llm.generate_ms"; "alive.verify_text_ms"; "cost.metrics_ms";
    "store.open_ms"; "store.hits"; "store.misses"; "store.writes"; "store.hit_ratio";
    "serve.engine_calls"; "serve.coalesced_ratio"; "serve.admission_refused"; "serve.depth_max";
    "serve.service_ewma_bulk_ms"; "serve.gen_late_ms"; "serve.submit_ms"; "serve.idle_s";
    "serve.await_s"; "vproc.frames"; "vproc.respawned";
    "suite.kept"; "other_s";
  ]

(* Layer metrics of a traced pass: span self times plus the stats-record
   layers the pass reported; a layer the workload does not reach reads 0.
   Every span below the pass and item spans is reported as a layer, so
   [other_s], the self time of those, is the part of pass_s no layer
   accounts for. *)
let traced_layers (o : outcome) =
  let self = self_times !spans in
  let self_s name = Option.value ~default:0. (Hashtbl.find_opt self name) in
  let from_spans =
    [
      ("data.cgen_ms", self_s "data.cgen" *. 1e3);
      ("data.lower_ms", self_s "data.lower" *. 1e3);
      ("passes.instcombine_ms", self_s "passes.instcombine" *. 1e3);
      ("ir.print_ms", self_s "ir.print" *. 1e3);
      ("llm.generate_ms", self_s "llm.generate" *. 1e3);
      ("alive.verify_text_ms", self_s "alive.verify_text" *. 1e3);
      ("cost.metrics_ms", self_s "cost.metrics" *. 1e3);
      ("nlp.tokens_ms", self_s "nlp.tokens" *. 1e3);
      ("serve.submit_ms", self_s "serve.submit" *. 1e3);
      ("serve.idle_s", self_s "serve.gen_wait");
      ("serve.await_s", self_s "serve.await");
      ("other_s", self_s "pass" +. self_s "label.item" +. self_s "eval.item");
    ]
    @
    if List.mem_assoc "alive.verify_s" o.layers then []
    else [ ("alive.verify_s", self_s "alive.verify") ]
  in
  let all = from_spans @ o.layers in
  List.map (fun name -> (name, F (Option.value ~default:0. (List.assoc_opt name all)))) layer_names

let report (o : outcome) ~check ~trace =
  let checked, mismatched, unsupported = if check then o.check () else (0, 0, 0) in
  O
    ([
       ("pass_s", F o.wall_s);
       ( "items",
         L
           (List.map
              (fun it -> L [ I it.key; S it.cls; F it.ms; B it.in_p50; B it.fast ])
              (List.sort (fun a b -> compare a.key b.key) o.items)) );
       ("counters", O (List.map (fun (k, v) -> (k, I v)) o.counters));
       ("digest", S o.digest);
       ("decided_share", F o.decided_share);
       ("different_correct", F o.different_correct);
       ("geomean_speedup", F o.geomean_speedup);
       ("attempted", I o.attempted);
       ("failed", I o.failed);
       ("peak_rss_mb", F (peak_rss_mb ()));
       ("checked", I checked);
       ("mismatched", I mismatched);
       ("unsupported", I unsupported);
       ("stats", O (List.map (fun (k, v) -> (k, F v)) o.layers));
     ]
    @ if trace then [ ("layers", O (traced_layers o)) ] else [])

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let setup_only = ref false and check = ref false and dir = ref "" and rate = ref 2.5 in
  let spans_file = ref "" in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the serve window");
      ("--rate", Arg.Set_float rate, "RPS serve arrival rate");
      ("--dir", Arg.Set_string dir, "DIR scratch directory (warm's verdict store)");
      ("--setup-only", Arg.Set setup_only, " set up (warm: fill the store in DIR), then exit");
      ("--check", Arg.Set check, " run the independent output checks on the pass's outputs");
      ("--trace", Arg.Set trace, " record spans and report per-layer metrics");
      ("--spans", Arg.Set_string spans_file, "FILE where a traced pass writes its spans");
    ]
    (fun w -> workload := w)
    "bench.exe WORKLOAD [options]";
  let seed = !seed in
  let w =
    match !workload with
    | "label" -> label_workload ~seed
    | "train" -> train_workload ~seed ~store:None ~rounds:eval_rounds
    | "warm" ->
      if !dir = "" then failwith "warm needs --dir";
      warm_workload ~seed ~dir:!dir ~fill:!setup_only
    | "serve" -> serve_workload ~seed ~rate:!rate ~seconds:!seconds
    | w -> failwith ("unknown workload " ^ w)
  in
  w.setup ();
  print_endline (json_to_string (O [ ("ready", F (now ())) ]));
  if not !setup_only then begin
    tracing := !trace;
    let o = w.pass () in
    tracing := false;
    if !trace && !spans_file <> "" then write_spans !spans_file;
    print_endline (json_to_string (report o ~check:!check ~trace:!trace))
  end;
  w.teardown ()
