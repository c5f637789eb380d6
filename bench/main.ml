(* The reproduction harness: regenerates every table and figure of the
   paper's evaluation section, plus bechamel microbenchmarks of the
   substrates.

   Usage:
     dune exec bench/main.exe                 -- everything, quick scale
     dune exec bench/main.exe -- table1       -- one experiment
     dune exec bench/main.exe -- --full all   -- paper-sized counts (slow)

   Experiments: dataset table1 table2 table3 fig4 fig5 fig6 fig7 figs8to12
   ablations discussion verify-bench robust-bench sat-bench proc-bench
   incr-bench portfolio-bench store-bench fold-bench micro all. *)

module P = Veriopt.Pipeline
module E = Veriopt.Evaluate
module R = Veriopt.Report
module Trainer = Veriopt_rl.Trainer
module Prompt = Veriopt_llm.Prompt
module S = Veriopt_data.Suite

let fmt = Format.std_formatter

let header title =
  Fmt.pf fmt "@.============================================================@.";
  Fmt.pf fmt "%s@." title;
  Fmt.pf fmt "============================================================@."

(* ------------------------------------------------------------------ *)
(* Evaluation cache: train once, evaluate each model once. *)

type evals = {
  artifacts : P.artifacts;
  base : E.result;
  zero : E.result;
  warm : E.result;
  correctness : E.result;
  latency : E.result;
  zoo : (string * E.result) list;
  llm_compiler : E.result;
}

let build_evals (scale : P.scale) : evals =
  let t0 = Unix.gettimeofday () in
  let progress s = Fmt.pf fmt "[%6.1fs] %s@." (Unix.gettimeofday () -. t0) s in
  let a = P.build ~scale ~progress () in
  let ev ?mode m =
    progress (Fmt.str "evaluating %s" m.Veriopt_llm.Model.name);
    E.run ?mode ~max_conflicts:60_000 ~engine:a.P.engine m a.P.validation
  in
  let pl = a.P.pipeline in
  {
    artifacts = a;
    base = ev a.P.base;
    zero = ev pl.Trainer.stage1.Trainer.model_zero;
    warm = ev ~mode:Prompt.Augmented pl.Trainer.warm;
    correctness = ev ~mode:Prompt.Augmented pl.Trainer.stage2.Trainer.model_correctness;
    latency = ev pl.Trainer.stage3.Trainer.model_latency;
    zoo = List.map (fun (n, m) -> (n, ev m)) a.P.zoo_sft;
    llm_compiler = ev a.P.llm_compiler;
  }

(* ------------------------------------------------------------------ *)
(* Experiments *)

let run_dataset (e : evals) =
  header "DATASET CONSTRUCTION (paper SIV-A)";
  R.dataset_stats fmt ~train:e.artifacts.P.train_stats ~validation:e.artifacts.P.validation_stats;
  Fmt.pf fmt "U_max (80th percentile of instcombine speedups): %.2f@." e.artifacts.P.u_max

let run_table1 (e : evals) =
  header "TABLE I (paper: 73.2% correct, 56.8% copies, 16.4% different-correct)";
  R.table1 fmt e.base

let run_table2 (e : evals) =
  header "TABLE II (paper: ~89.5/89.9% correct, ~1.4% copies, 88.2% different-correct)";
  R.table2 fmt ~correctness:e.correctness ~latency:e.latency

let run_table3 (e : evals) =
  header "TABLE III (paper: Latency -50.68%, Size -17.37%, ICount -45.64% for Model-Latency)";
  R.table3 fmt
    [ ("Latency", e.latency); ("Correctness", e.correctness); ("Qwen-3B", e.base) ]

let run_fig4 (e : evals) =
  header "FIG 4 (training dynamics; paper shows rising reward under both stages)";
  R.fig4 fmt ~which:"a (correctness stage)"
    e.artifacts.P.pipeline.Trainer.stage2.Trainer.correctness_log;
  R.fig4 fmt ~which:"b (latency stage)" e.artifacts.P.pipeline.Trainer.stage3.Trainer.latency_log

let run_fig5 (e : evals) =
  header "FIG 5 (baselines in parameter-size order; Model-Latency wins latency/icount/accuracy)";
  let zoo_with_compiler =
    (* insert LLM-Compiler at its parameter-size position *)
    let rec insert = function
      | ("Qwen-7B-SFT", r) :: rest ->
        ("LLM-Compiler-7B", e.llm_compiler) :: ("Qwen-7B-SFT", r) :: rest
      | x :: rest -> x :: insert rest
      | [] -> [ ("LLM-Compiler-7B", e.llm_compiler) ]
    in
    insert (List.map (fun (n, r) -> (n ^ "-SFT", r)) e.zoo)
  in
  R.fig5 fmt (zoo_with_compiler @ [ ("Model-Latency", e.latency) ])

let run_fig6 (e : evals) =
  header
    "FIG 6 (paper: VeriOpt beats instcombine on 20.1%, loses 22.6%, ties 57.3%; 2.30x vs 2.39x; net +17%)";
  R.fig6 fmt ~latency_model:e.latency

let run_fig7 (e : evals) =
  header "FIG 7 (ablation: each stage of the hierarchy adds improvement)";
  R.fig7 fmt
    [
      ("Qwen-3B (base)", e.base);
      ("Model-Zero", e.zero);
      ("Warm-up", e.warm);
      ("Model-Correctness", e.correctness);
      ("Model-Latency", e.latency);
    ]

let run_figs8to12 (e : evals) =
  header "FIGS 8-12 (case studies)";
  R.figs8to12 fmt e.latency

let run_engine_stats (e : evals) =
  header "VERIFICATION ENGINE (tier / cache / SAT statistics for this run)";
  R.engine_stats fmt e.artifacts.P.engine

(* ------------------------------------------------------------------ *)
(* Ablations of the paper's design choices (SIII-A, SV-D, SVI). *)

module Grpo = Veriopt_rl.Grpo
module Reward = Veriopt_rl.Reward
module Alive = Veriopt_alive.Alive
module Model = Veriopt_llm.Model

(* Ablation A -- I/O testing vs formal verification: how many candidates pass
   a finite test battery but are formally wrong (the overestimation
   LLM-Vectorizer documented and the paper's introduction leans on). *)
let ablation_io_vs_formal (e : evals) =
  Fmt.pf fmt "@.[A] I/O-sample equivalence vs formal verification@.";
  let base = e.artifacts.P.base in
  let candidates =
    List.filter_map
      (fun (s : S.sample) ->
        let g =
          Model.generate base ~mode:Prompt.Generic ~rng:None ~sample_id:s.S.id s.S.modul s.S.src
        in
        match Veriopt_llm.Prompt.answer_of g.Model.completion with
        | Some answer -> (
          match Veriopt_ir.Parser.parse_func_result answer with
          | Ok tgt when Veriopt_ir.Validator.validate_func ~module_:s.S.modul tgt = Ok () ->
            Some (s, tgt)
          | _ -> None)
        | None -> None)
      e.artifacts.P.validation
  in
  let io_pass = ref 0 and formal_pass = ref 0 and io_only = ref 0 and total = ref 0 in
  List.iter
    (fun ((s : S.sample), tgt) ->
      incr total;
      let io =
        match Veriopt_eval.Exec_oracle.equivalent ~samples:32 s.S.modul ~src:s.S.src ~tgt with
        | Veriopt_eval.Exec_oracle.Io_equivalent _ -> true
        | _ -> false
      in
      let formal =
        (Alive.verify_funcs ~max_conflicts:60_000 s.S.modul ~src:s.S.src ~tgt).Alive.category
        = Alive.Equivalent
      in
      if io then incr io_pass;
      if formal then incr formal_pass;
      if io && not formal then incr io_only)
    candidates;
  Fmt.pf fmt
    "  parseable candidates %d: I/O-equivalent %d, formally verified %d,@.  passed I/O but NOT formally verified: %d (the overestimation)@."
    !total !io_pass !formal_pass !io_only

(* Ablation B -- dropping the BLEU shaping term of Eq. 1: the paper keeps it
   to avoid gradient starvation under sparse discrete rewards. *)
let ablation_no_bleu (e : evals) =
  Fmt.pf fmt "@.[B] Eq. 1 with vs without the BLEU shaping term (Model-Zero stage)@.";
  let train = Array.of_list e.artifacts.P.train in
  let run_stage ~use_bleu =
    let model = Model.clone ~name:"ablation" e.artifacts.P.base in
    let rng = Random.State.make [| 5; 55 |] in
    let cfg = Grpo.default_config in
    let final_rewards = ref [] in
    for step = 1 to 120 do
      let s = train.(Random.State.int rng (Array.length train)) in
      let group =
        List.init cfg.Grpo.group_size (fun _ ->
            Model.generate model ~mode:Prompt.Generic ~rng:(Some rng) ~sample_id:s.S.id s.S.modul
              s.S.src)
      in
      let scored =
        List.map
          (fun (g : Model.generation) ->
            let r, _ =
              Reward.correctness_of_completion s.S.modul ~src:s.S.src ~label:s.S.label
                g.Model.completion
            in
            let r = if use_bleu then r else Float.of_int (int_of_float r) in
            ({ Grpo.steps = g.Model.steps; reward = r }, r))
          group
      in
      let rs = Array.of_list (List.map snd scored) in
      let advs = Grpo.advantages rs in
      Grpo.update cfg model (List.mapi (fun i (r, _) -> (r, advs.(i))) scored);
      if step > 100 then
        final_rewards := (Array.fold_left ( +. ) 0. rs /. 6.) :: !final_rewards
    done;
    let avg = List.fold_left ( +. ) 0. !final_rewards /. float_of_int (List.length !final_rewards) in
    (avg, Model.get model "act:rule")
  in
  let with_bleu, rule_with = run_stage ~use_bleu:true in
  let without, rule_without = run_stage ~use_bleu:false in
  Fmt.pf fmt "  with BLEU:    final mean reward %.3f, act:rule logit %+.2f@." with_bleu rule_with;
  Fmt.pf fmt "  without BLEU: final mean reward %.3f, act:rule logit %+.2f@." without rule_without;
  Fmt.pf fmt "  (the continuous term keeps a gradient flowing when discrete rewards are flat)@."

(* Ablation C -- skipping the warm-up SFT: the paper reports direct GRPO on
   augmented prompts is unstable without it (SIII-C2, SV-D). *)
let ablation_no_warmup (e : evals) =
  Fmt.pf fmt "@.[C] Model-Correctness with vs without the warm-up SFT stage@.";
  let opts =
    { Trainer.default_options with Trainer.grpo_steps = e.artifacts.P.scale.P.opts.Trainer.grpo_steps }
  in
  let direct = Trainer.train_correctness ~opts e.artifacts.P.base e.artifacts.P.train in
  let ev_direct =
    E.run ~mode:Prompt.Augmented ~max_conflicts:60_000 direct.Trainer.model_correctness
      e.artifacts.P.validation
  in
  let pct x total = 100. *. float_of_int x /. float_of_int (max 1 total) in
  Fmt.pf fmt "  with warm-up:    %.1f%% verified-correct, %.1f%% different-correct@."
    (pct e.correctness.E.counts.E.correct e.correctness.E.counts.E.total)
    (100. *. E.different_correct_rate e.correctness);
  Fmt.pf fmt "  without warm-up: %.1f%% verified-correct, %.1f%% different-correct@."
    (pct ev_direct.E.counts.E.correct ev_direct.E.counts.E.total)
    (100. *. E.different_correct_rate ev_direct)

(* Ablation D -- the unrolling bound: bounded translation validation loses
   conclusiveness on loopy functions as the bound shrinks (SVI). *)
let ablation_unroll (e : evals) =
  Fmt.pf fmt "@.[D] verifier unroll bound vs inconclusive rate (label pairs)@.";
  let loopy =
    List.filter
      (fun (s : S.sample) -> Veriopt_ir.Cfg.has_loop (Veriopt_ir.Cfg.of_func s.S.src))
      e.artifacts.P.validation
  in
  Fmt.pf fmt "  validation functions with loops: %d@." (List.length loopy);
  List.iter
    (fun unroll ->
      let inconclusive =
        List.length
          (List.filter
             (fun (s : S.sample) ->
               (Alive.verify_funcs ~unroll ~max_conflicts:60_000 s.S.modul ~src:s.S.src
                  ~tgt:s.S.label)
                 .Alive.category
               = Alive.Inconclusive)
             loopy)
      in
      Fmt.pf fmt "  unroll bound %d: %d/%d inconclusive@." unroll inconclusive (List.length loopy))
    [ 1; 2; 4; 8 ]

(* The paper's SVI hypothesis: applied to a larger foundation model, the
   same pipeline should get stronger.  We run the full four-stage curriculum
   from the 32B-surrogate base and compare. *)
let run_discussion (e : evals) =
  header "DISCUSSION (SVI): the pipeline on a larger foundation model";
  let opts = e.artifacts.P.scale.P.opts in
  let base32 = Veriopt_llm.Capability.init ~name:"Qwen-32B" 0.8 in
  let r = Trainer.full_pipeline ~opts base32 e.artifacts.P.train in
  let ev32 =
    E.run ~max_conflicts:60_000 r.Trainer.stage3.Trainer.model_latency e.artifacts.P.validation
  in
  let line name (res : E.result) =
    let lat =
      E.geomean_speedup res.E.rows ~metric:(fun m -> m.E.latency) ~out:E.out_metrics
        ~base:E.src_metrics
    in
    Fmt.pf fmt "  %-28s %5.2fx latency, %5.1f%% verified-correct@." name lat
      (R.pct res.E.counts.E.correct res.E.counts.E.total)
  in
  line "Model-Latency (3B base)" e.latency;
  line "Model-Latency (32B base)" ev32;
  Fmt.pf fmt "  (the paper hypothesizes the gap grows with base-model capability)@."

let run_ablations (e : evals) =
  header "ABLATIONS (design choices from SIII-A, SV-D, SVI)";
  ablation_io_vs_formal e;
  ablation_no_bleu e;
  ablation_no_warmup e;
  ablation_unroll e

(* ------------------------------------------------------------------ *)
(* verify-bench: repeated-group verification throughput — the tiered +
   cached + pooled engine against the uncached sequential SMT path, on a
   GRPO-shaped workload (groups of completions per prompt, prompts
   revisited across rounds).  Emits machine-readable BENCH_verify.json so
   the perf trajectory is tracked across PRs. *)

let run_verify_bench () =
  header "VERIFY-BENCH (tiered + cached engine vs uncached sequential SMT)";
  let module Capability = Veriopt_llm.Capability in
  let module Engine = Veriopt_alive.Engine in
  let module Vcache = Veriopt_alive.Vcache in
  let module Solver = Veriopt_smt.Solver in
  let module Par = Veriopt_par.Par in
  let ds = S.build ~verify:false ~seed0:424242 ~n:16 () in
  let samples = ds.S.samples in
  let base = Capability.base_3b () in
  let rng = Random.State.make [| 2026 |] in
  let group_size = 6 and rounds = 16 in
  let groups =
    List.map
      (fun (s : S.sample) ->
        ( s,
          List.init group_size (fun _ ->
              (Model.generate base ~mode:Prompt.Generic ~rng:(Some rng) ~sample_id:s.S.id
                 s.S.modul s.S.src)
                .Model.completion) ))
      samples
  in
  let workload = List.concat (List.init rounds (fun _ -> groups)) in
  let n_verifications = rounds * group_size * List.length samples in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* baseline: the seed path — uncached, sequential, straight to SMT *)
  Solver.reset_stats ();
  let baseline_verify ((s : S.sample), completions) =
    List.map
      (fun c ->
        match Prompt.answer_of c with
        | None -> Alive.Syntax_error
        | Some answer ->
          (Alive.verify_text ~unroll:4 ~max_conflicts:60_000 s.S.modul ~src:s.S.src
             ~tgt_text:answer)
            .Alive.category)
      completions
  in
  let base_cats, base_secs = time (fun () -> List.concat_map baseline_verify workload) in
  let base_sat = Solver.stats () in
  (* engine: tier 0/1/2 + verdict cache, each group verified on the pool *)
  Solver.reset_stats ();
  let engine = Engine.create () in
  let engine_verify ((s : S.sample), completions) =
    Par.run
      (fun c ->
        (Reward.verify_completion ~engine s.S.modul ~src:s.S.src c).Reward.verdict.Alive.category)
      completions
  in
  let eng_cats, eng_secs = time (fun () -> List.concat_map engine_verify workload) in
  let eng_sat = Solver.stats () in
  let st = Engine.stats engine in
  (* verdict preservation: tier 1 may refine Inconclusive into
     Semantic_error (a concrete counterexample the solver's budget missed);
     any other difference is a bug *)
  let agree = ref 0 and refined = ref 0 and disagree = ref 0 in
  List.iter2
    (fun b e ->
      if b = e then incr agree
      else if b = Alive.Inconclusive && e = Alive.Semantic_error then incr refined
      else incr disagree)
    base_cats eng_cats;
  let per_sec secs =
    float_of_int n_verifications /. if secs <= 0. then epsilon_float else secs
  in
  let speedup = base_secs /. (if eng_secs <= 0. then epsilon_float else eng_secs) in
  let lookups = st.Vcache.hits + st.Vcache.misses in
  let hit_rate = float_of_int st.Vcache.hits /. float_of_int (max 1 lookups) in
  Fmt.pf fmt "  workload: %d samples x %d completions x %d rounds = %d verifications@."
    (List.length samples) group_size rounds n_verifications;
  Fmt.pf fmt "  baseline (uncached sequential SMT): %6.2fs  (%.1f verifications/s)@." base_secs
    (per_sec base_secs);
  Fmt.pf fmt "  engine (tiered+cached, %d jobs):    %6.2fs  (%.1f verifications/s)@."
    (Par.shared_jobs ()) eng_secs (per_sec eng_secs);
  Fmt.pf fmt "  speedup: %.2fx@." speedup;
  Fmt.pf fmt "  cache: %d/%d hits (%.1f%%); tiers: %d concrete cex, %d SMT runs@."
    st.Vcache.hits lookups (100. *. hit_rate) st.Vcache.tier1_hits st.Vcache.tier2_runs;
  Fmt.pf fmt "  sat conflicts: %d (baseline) -> %d (engine)@." base_sat.Solver.conflicts
    eng_sat.Solver.conflicts;
  Fmt.pf fmt "  verdicts: %d agree, %d refined (Inconclusive -> Semantic_error), %d disagree@."
    !agree !refined !disagree;
  let json =
    Fmt.str
      {|{
  "workload": { "samples": %d, "group_size": %d, "rounds": %d, "verifications": %d },
  "baseline": { "seconds": %.4f, "verifications_per_sec": %.2f, "sat_conflicts": %d, "sat_learned": %d, "sat_deleted": %d, "sat_reductions": %d },
  "engine": { "seconds": %.4f, "verifications_per_sec": %.2f, "sat_conflicts": %d, "sat_learned": %d, "sat_deleted": %d, "sat_reductions": %d, "jobs": %d },
  "speedup": %.3f,
  "cache": { "hits": %d, "misses": %d, "insertions": %d, "evictions": %d, "hit_rate": %.4f },
  "tiers": { "tier1_hits": %d, "tier1_misses": %d, "tier2_runs": %d, "tier1_seconds": %.4f, "tier2_seconds": %.4f },
  "verdicts": { "agree": %d, "refined_inconclusive": %d, "disagree": %d }
}
|}
      (List.length samples) group_size rounds n_verifications base_secs (per_sec base_secs)
      base_sat.Solver.conflicts base_sat.Solver.learned base_sat.Solver.deleted
      base_sat.Solver.reductions eng_secs (per_sec eng_secs) eng_sat.Solver.conflicts
      eng_sat.Solver.learned eng_sat.Solver.deleted eng_sat.Solver.reductions
      (Par.shared_jobs ()) speedup st.Vcache.hits st.Vcache.misses st.Vcache.insertions
      st.Vcache.evictions hit_rate st.Vcache.tier1_hits st.Vcache.tier1_misses
      st.Vcache.tier2_runs st.Vcache.tier1_seconds st.Vcache.tier2_seconds !agree !refined
      !disagree
  in
  let oc = open_out "BENCH_verify.json" in
  output_string oc json;
  close_out oc;
  Fmt.pf fmt "  wrote BENCH_verify.json@.";
  if !disagree > 0 then begin
    Fmt.pf fmt "  ERROR: the tiered engine flipped a conclusive verdict@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* robust-bench: the resilience layer under chaos.  Two phases:

   1. Deadline latency: verify a workload laced with SMT-hostile queries
      (bit-blasted mul reassociation) with and without a wall-clock
      deadline, and report p50/p99/max per-call latency for both legs —
      the deadline must bound the tail.

   2. Chaos loop: 100% injected solver timeouts plus parse/oracle/worker
      faults, breaker armed, a GRPO-shaped verification sweep.  Reports
      crash count (must be 0), degraded-verdict rate, breaker trips/skips,
      engine failures absorbed — and checks the soundness invariant: a
      fault may widen a verdict to Inconclusive but never flip it.

   Emits machine-readable BENCH_robust.json. *)

let run_robust_bench () =
  header "ROBUST-BENCH (deadlines, fault injection, circuit breaker)";
  let module Engine = Veriopt_alive.Engine in
  let module Vcache = Veriopt_alive.Vcache in
  let module Par = Veriopt_par.Par in
  let module Fault = Veriopt_fault.Fault in
  Fault.disable ();
  let ds = S.build ~verify:false ~seed0:737373 ~n:12 () in
  let samples = ds.S.samples in
  (* --- phase 1: deadline-bounded tail latency ---------------------- *)
  (* mul reassociation is trivial algebraically and only search can decide
     it: exactly the hostile-completion shape the deadline exists for *)
  let hostile = Veriopt_serve.Workload.assoc_pair 12 in
  let easy_pairs = List.map (fun (s : S.sample) -> (s.S.modul, s.S.src, s.S.label)) samples in
  let pairs = easy_pairs @ [ hostile; hostile; hostile ] in
  let deadline_budget = 0.05 in
  let run_leg ~with_deadline =
    List.map
      (fun (m, src, tgt) ->
        let t0 = Unix.gettimeofday () in
        let deadline = if with_deadline then Some (t0 +. deadline_budget) else None in
        ignore (Alive.verify_funcs ~unroll:4 ~max_conflicts:10_000 ?deadline m ~src ~tgt);
        Unix.gettimeofday () -. t0)
      pairs
  in
  let pctl latencies p =
    let a = Array.of_list latencies in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then 0. else a.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  let summarize latencies =
    (pctl latencies 0.5, pctl latencies 0.99, List.fold_left Float.max 0. latencies)
  in
  let free = run_leg ~with_deadline:false in
  let bounded = run_leg ~with_deadline:true in
  let f50, f99, fmax = summarize free in
  let b50, b99, bmax = summarize bounded in
  let ms x = 1000. *. x in
  Fmt.pf fmt "  deadline phase: %d verifications (%d SMT-hostile), budget %.0fms@."
    (List.length pairs) 3 (ms deadline_budget);
  Fmt.pf fmt "  no deadline:   p50 %7.1fms  p99 %8.1fms  max %8.1fms@." (ms f50) (ms f99)
    (ms fmax);
  Fmt.pf fmt "  with deadline: p50 %7.1fms  p99 %8.1fms  max %8.1fms@." (ms b50) (ms b99)
    (ms bmax);
  (* --- phase 2: chaos loop ---------------------------------------- *)
  let module Capability = Veriopt_llm.Capability in
  let base = Capability.base_3b () in
  let rng = Random.State.make [| 4242 |] in
  let group_size = 6 and rounds = 4 in
  let groups =
    List.map
      (fun (s : S.sample) ->
        ( s,
          List.init group_size (fun _ ->
              (Model.generate base ~mode:Prompt.Generic ~rng:(Some rng) ~sample_id:s.S.id
                 s.S.modul s.S.src)
                .Model.completion) ))
      samples
  in
  let workload = List.concat (List.init rounds (fun _ -> groups)) in
  let n_verifications = rounds * group_size * List.length samples in
  let rcfg = { Reward.default_config with Reward.timeout = Some deadline_budget } in
  (* fault-free reference verdicts, then the same sweep under chaos *)
  let clean_engine = Engine.create () in
  let clean =
    List.concat_map
      (fun ((s : S.sample), completions) ->
        List.map
          (fun c ->
            (Reward.verify_completion ~cfg:rcfg ~engine:clean_engine s.S.modul ~src:s.S.src c)
              .Reward.verdict.Alive.category)
          completions)
      workload
  in
  Reward.reset_engine_failures ();
  (match
     Fault.configure_string "seed=11,solver_timeout=1,parse_corrupt=0.15,oracle_exn=0.1,worker_exn=0.05"
   with
  | Ok () -> ()
  | Error e -> failwith e);
  let chaos_engine = Engine.create ~breaker_k:3 ~breaker_cooldown:8 () in
  let crashes = ref 0 and batch_retries = ref 0 in
  let chaos =
    List.concat_map
      (fun ((s : S.sample), completions) ->
        let verify c =
          (Reward.verify_completion ~cfg:rcfg ~engine:chaos_engine s.S.modul ~src:s.S.src c)
            .Reward.verdict.Alive.category
        in
        match Par.run verify completions with
        | cats -> cats
        | exception Fault.Injected _ ->
          (* a worker task died: retry the whole group sequentially *)
          incr batch_retries;
          List.map verify completions
        | exception _ ->
          incr crashes;
          List.map (fun _ -> Alive.Inconclusive) completions)
      workload
  in
  Fault.disable ();
  let st = Engine.stats chaos_engine in
  let flips = ref 0 and widened = ref 0 and degraded = ref 0 in
  List.iter2
    (fun cl ch ->
      if ch = Alive.Inconclusive then incr degraded;
      if ch <> cl then
        if ch = Alive.Inconclusive then incr widened else incr flips)
    clean chaos;
  let degraded_rate = float_of_int !degraded /. float_of_int (max 1 n_verifications) in
  Fmt.pf fmt
    "  chaos sweep: %d verifications under 100%% solver timeouts + parse/oracle/worker faults@."
    n_verifications;
  Fmt.pf fmt "  crashes: %d uncaught, %d worker-death batch retries, %d engine failures absorbed@."
    !crashes !batch_retries
    (Reward.engine_failures ());
  Fmt.pf fmt "  verdicts: %d widened to inconclusive, %d flipped (must be 0); degraded rate %.1f%%@."
    !widened !flips (100. *. degraded_rate);
  Fmt.pf fmt "  breaker: %d trips, %d tier-2 runs skipped@." st.Vcache.breaker_trips
    st.Vcache.breaker_skips;
  let json =
    Fmt.str
      {|{
  "deadline": {
    "budget_ms": %.1f, "verifications": %d, "hostile": 3,
    "no_deadline": { "p50_ms": %.2f, "p99_ms": %.2f, "max_ms": %.2f },
    "with_deadline": { "p50_ms": %.2f, "p99_ms": %.2f, "max_ms": %.2f }
  },
  "chaos": {
    "verifications": %d,
    "crashes": %d,
    "batch_retries": %d,
    "engine_failures": %d,
    "degraded_rate": %.4f,
    "verdicts_widened": %d,
    "verdicts_flipped": %d,
    "breaker_trips": %d,
    "breaker_skips": %d
  }
}
|}
      (ms deadline_budget) (List.length pairs) (ms f50) (ms f99) (ms fmax) (ms b50) (ms b99)
      (ms bmax) n_verifications !crashes !batch_retries
      (Reward.engine_failures ())
      degraded_rate !widened !flips st.Vcache.breaker_trips st.Vcache.breaker_skips
  in
  let oc = open_out "BENCH_robust.json" in
  output_string oc json;
  close_out oc;
  Fmt.pf fmt "  wrote BENCH_robust.json@.";
  if !flips > 0 || !crashes > 0 then begin
    Fmt.pf fmt "  ERROR: chaos flipped a conclusive verdict or escaped the reward guards@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* sat-bench: the clause-DB reduction knob on SMT-hostile queries.

   Bit-blasted mul reassociation is the chaos bench's canonical hostile
   shape: algebraically trivial, brutal for CDCL.  Each width is verified
   twice — reduction off (the seed solver's behavior) and on — with the
   same conflict budget.  Reports wall time, conflicts/sec and clause-DB
   statistics per leg, checks that no conclusive verdict flips (reduction
   trades search trajectory, never soundness), and emits BENCH_sat.json. *)

let run_sat_bench () =
  header "SAT-BENCH (clause-DB reduction on SMT-hostile queries)";
  let module Solver = Veriopt_smt.Solver in
  let hostile_pair w =
    let m, src, tgt = Veriopt_serve.Workload.assoc_pair w in
    (w, m, src, tgt)
  in
  let widths = [ 9; 10; 11 ] in
  let pairs = List.map hostile_pair widths in
  let max_conflicts = 10_000 in
  let run_leg ~reduce =
    Solver.reset_stats ();
    let t0 = Unix.gettimeofday () in
    let verdicts =
      List.map
        (fun (w, m, src, tgt) ->
          let t1 = Unix.gettimeofday () in
          let v = Alive.verify_funcs ~unroll:4 ~max_conflicts ~reduce m ~src ~tgt in
          (w, v.Alive.category, Unix.gettimeofday () -. t1))
        pairs
    in
    let secs = Unix.gettimeofday () -. t0 in
    (verdicts, secs, Solver.stats ())
  in
  let off_verdicts, off_secs, off_sat = run_leg ~reduce:false in
  let on_verdicts, on_secs, on_sat = run_leg ~reduce:true in
  let cat_name = function
    | Alive.Equivalent -> "equivalent"
    | Alive.Semantic_error -> "semantic_error"
    | Alive.Syntax_error -> "syntax_error"
    | Alive.Inconclusive -> "inconclusive"
  in
  let conclusive = function Alive.Inconclusive -> false | _ -> true in
  (* Unknown <-> conclusive changes are legitimate trajectory effects of the
     knob under a fixed budget; a conclusive verdict flipping is a bug. *)
  let flips =
    List.fold_left2
      (fun n (w, a, _) (_, b, _) ->
        if conclusive a && conclusive b && a <> b then begin
          Fmt.pf fmt "  ERROR: width %d verdict flipped: %s (off) vs %s (on)@." w (cat_name a)
            (cat_name b);
          n + 1
        end
        else n)
      0 off_verdicts on_verdicts
  in
  let cps secs (sat : Solver.stats) =
    float_of_int sat.Solver.conflicts /. if secs <= 0. then epsilon_float else secs
  in
  let leg_line name secs (sat : Solver.stats) =
    Fmt.pf fmt
      "  %-14s %6.2fs  %8d conflicts (%8.0f/s)  learned %7d, deleted %7d in %d reductions, peak DB %d@."
      name secs sat.Solver.conflicts (cps secs sat) sat.Solver.learned sat.Solver.deleted
      sat.Solver.reductions sat.Solver.db_peak
  in
  Fmt.pf fmt "  queries: bit-blasted mul reassociation at widths %a, %d-conflict budget@."
    Fmt.(list ~sep:comma int)
    widths max_conflicts;
  leg_line "reduction off" off_secs off_sat;
  leg_line "reduction on" on_secs on_sat;
  List.iter2
    (fun (w, a, ta) (_, b, tb) ->
      Fmt.pf fmt "  i%-3d  off: %-12s %7.2fs    on: %-12s %7.2fs@." w (cat_name a) ta (cat_name b)
        tb)
    off_verdicts on_verdicts;
  let speedup = off_secs /. (if on_secs <= 0. then epsilon_float else on_secs) in
  let saved = 100. *. (1. -. (on_secs /. if off_secs <= 0. then epsilon_float else off_secs)) in
  Fmt.pf fmt "  wall time: %.2fs -> %.2fs (%.2fx, %.1f%% saved); conclusive flips: %d@." off_secs
    on_secs speedup saved flips;
  let leg_json (verdicts : (int * Alive.category * float) list) secs (sat : Solver.stats) =
    let per_query =
      String.concat ", "
        (List.map
           (fun (w, c, t) -> Fmt.str {|{ "width": %d, "verdict": "%s", "seconds": %.4f }|} w
              (cat_name c) t)
           verdicts)
    in
    Fmt.str
      {|{ "seconds": %.4f, "conflicts": %d, "conflicts_per_sec": %.0f, "learned": %d, "deleted": %d, "reductions": %d, "db_peak": %d, "queries": [ %s ] }|}
      secs sat.Solver.conflicts (cps secs sat) sat.Solver.learned sat.Solver.deleted
      sat.Solver.reductions sat.Solver.db_peak per_query
  in
  let json =
    Fmt.str
      {|{
  "widths": [ %a ],
  "max_conflicts": %d,
  "reduction_off": %s,
  "reduction_on": %s,
  "speedup": %.3f,
  "wall_time_saved_pct": %.2f,
  "conclusive_flips": %d
}
|}
      Fmt.(list ~sep:comma int)
      widths max_conflicts
      (leg_json off_verdicts off_secs off_sat)
      (leg_json on_verdicts on_secs on_sat)
      speedup saved flips
  in
  let oc = open_out "BENCH_sat.json" in
  output_string oc json;
  close_out oc;
  Fmt.pf fmt "  wrote BENCH_sat.json@.";
  if flips > 0 then begin
    Fmt.pf fmt "  ERROR: clause-DB reduction flipped a conclusive verdict@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* proc-bench: the fork-based isolation backend (--isolate proc).

   Phase 1 (kill latency): one worker slot, 100% worker_hang injection, a
   50ms deadline on the SMT-hostile mul-reassociation pair — every call
   must degrade to an uncached Inconclusive via SIGKILL within ~2x the
   budget.  An easy query between kills reads the replacement worker's pid
   notice and resets the slot's failure backoff, so the sweep measures kill
   latency, not backoff sleep.

   Phase 2 (verdict agreement): the verify-bench workload (dataset labels +
   hand-written pairs) through the proc backend vs the direct in-process
   call; a conclusive-verdict flip is a correctness bug and exits 1.

   Emits BENCH_proc.json.  Runs FIRST in the dispatch: OCaml 5 refuses to
   fork once any domain exists, so a training leg before this one would
   force the skip path. *)

let run_proc_bench () =
  header "PROC-BENCH (forked workers: SIGKILL deadlines, respawn, agreement)";
  let module Engine = Veriopt_alive.Engine in
  let module Vproc = Veriopt_vproc.Vproc in
  let module Fault = Veriopt_fault.Fault in
  let module A = Veriopt_alive.Alive in
  Fault.disable ();
  let skip reason =
    Fmt.pf fmt "  %s; skipping@." reason;
    let oc = open_out "BENCH_proc.json" in
    output_string oc "{ \"skipped\": true }\n";
    close_out oc;
    Fmt.pf fmt "  wrote BENCH_proc.json@."
  in
  if not (Vproc.available ()) then skip "fork unavailable (VERIOPT_NO_FORK or non-Unix)"
  else begin
    Unix.putenv "VERIOPT_PROC_JOBS" "1";
    let e = Engine.create ~tier1_samples:0 ~isolate:Engine.Proc () in
    Unix.putenv "VERIOPT_PROC_JOBS" "";
    if Engine.isolate e <> Engine.Proc then
      skip "fork refused (a domain already exists in this process)"
    else begin
      let hostile_m, hostile_src, hostile_tgt = Veriopt_serve.Workload.assoc_pair 12 in
      let easy_m =
        Veriopt_ir.Parser.parse_module
          "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 0\n  ret i8 %r\n}"
      in
      let easy_src = List.hd easy_m.Veriopt_ir.Ast.funcs in
      let easy_tgt =
        List.hd
          (Veriopt_ir.Parser.parse_module "define i8 @f(i8 %x) {\nentry:\n  ret i8 %x\n}")
            .Veriopt_ir.Ast.funcs
      in
      (* --- phase 1: hard-kill latency under 100% worker_hang --------- *)
      let budget = 0.05 in
      let sweeps = 30 in
      Vproc.reset_stats ();
      let kill_lat = ref [] in
      let non_degraded = ref 0 in
      for i = 1 to sweeps do
        (match Fault.configure_string "seed=7,worker_hang=1" with
        | Ok () -> ()
        | Error e -> failwith e);
        let t0 = Unix.gettimeofday () in
        let v =
          Engine.verify_funcs ~deadline:(t0 +. budget) e hostile_m ~src:hostile_src
            ~tgt:hostile_tgt
        in
        kill_lat := (Unix.gettimeofday () -. t0) :: !kill_lat;
        if v.A.category <> A.Inconclusive then incr non_degraded;
        Fault.disable ();
        (* distinct budget => distinct cache key => a real worker round trip *)
        ignore
          (Engine.verify_funcs ~max_conflicts:(60_000 + i) e easy_m ~src:easy_src
             ~tgt:easy_tgt)
      done;
      let pctl latencies p =
        let a = Array.of_list latencies in
        Array.sort compare a;
        let n = Array.length a in
        if n = 0 then 0. else a.(min (n - 1) (int_of_float (p *. float_of_int n)))
      in
      let ms x = 1000. *. x in
      let k50 = pctl !kill_lat 0.5
      and k99 = pctl !kill_lat 0.99
      and kmax = List.fold_left Float.max 0. !kill_lat in
      let within_2x = k99 <= 2. *. budget in
      let st = Vproc.stats () in
      Fmt.pf fmt "  kill sweep: %d hostile calls at %.0fms budget, %d degraded@." sweeps
        (ms budget) (sweeps - !non_degraded);
      Fmt.pf fmt "  kill latency: p50 %.1fms  p99 %.1fms  max %.1fms  (2x budget: %s)@."
        (ms k50) (ms k99) (ms kmax)
        (if within_2x then "within" else "EXCEEDED");
      Fmt.pf fmt "  workers: %d spawned, %d killed, %d crashed, %d respawned, %d frames@."
        st.Vproc.spawned st.Vproc.killed st.Vproc.crashed st.Vproc.respawned st.Vproc.frames;
      (* --- phase 2: verdict agreement vs the in-process backend ------ *)
      let ds = S.build ~verify:false ~seed0:424242 ~n:12 () in
      let handwritten =
        List.filter_map
          (fun (src_text, tgt_text) ->
            let m = Veriopt_ir.Parser.parse_module (src_text ^ "\n" ^ tgt_text) in
            match m.Veriopt_ir.Ast.funcs with
            | [ src; tgt ] -> Some (m, src, tgt)
            | _ -> None)
          [
            ( "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 1\n  ret i8 %r\n}",
              "define i8 @g(i8 %x) {\nentry:\n  %r = add i8 %x, 2\n  ret i8 %r\n}" );
            ( "define i16 @f(i16 %x) {\nentry:\n  %r = mul i16 %x, 2\n  ret i16 %r\n}",
              "define i16 @g(i16 %x) {\nentry:\n  %r = shl i16 %x, 1\n  ret i16 %r\n}" );
          ]
      in
      let pairs =
        List.map (fun (s : S.sample) -> (s.S.modul, s.S.src, s.S.label)) ds.S.samples
        @ handwritten
      in
      let checked = ref 0 and flips = ref 0 in
      List.iter
        (fun (m, src, tgt) ->
          let direct = A.verify_funcs ~unroll:4 ~max_conflicts:10_000 m ~src ~tgt in
          let proc =
            Engine.verify_funcs ~unroll:4 ~max_conflicts:10_000 e m ~src ~tgt
          in
          incr checked;
          let conclusive c = c = A.Equivalent || c = A.Semantic_error in
          if
            conclusive direct.A.category && conclusive proc.A.category
            && direct.A.category <> proc.A.category
          then begin
            incr flips;
            Fmt.pf fmt "  FLIP: direct=%s proc=%s@." direct.A.message proc.A.message
          end)
        pairs;
      Fmt.pf fmt "  agreement: %d pairs checked, %d conclusive flips@." !checked !flips;
      let json =
        Fmt.str
          {|{
  "kill": {
    "deadline_ms": %.1f, "sweeps": %d, "degraded": %d,
    "p50_ms": %.2f, "p99_ms": %.2f, "max_ms": %.2f, "within_2x": %b
  },
  "workers": {
    "spawned": %d, "killed": %d, "crashed": %d, "respawned": %d, "frames": %d
  },
  "agreement": { "checked": %d, "flips": %d }
}
|}
          (ms budget) sweeps (sweeps - !non_degraded) (ms k50) (ms k99) (ms kmax) within_2x
          st.Vproc.spawned st.Vproc.killed st.Vproc.crashed st.Vproc.respawned st.Vproc.frames
          !checked !flips
      in
      let oc = open_out "BENCH_proc.json" in
      output_string oc json;
      close_out oc;
      Fmt.pf fmt "  wrote BENCH_proc.json@.";
      if !flips > 0 || !non_degraded > 0 then begin
        Fmt.pf fmt
          "  ERROR: the proc backend flipped a conclusive verdict or failed to degrade@.";
        exit 1
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* incr-bench: incremental solver sessions + iterative-deepening unroll.

   The workload is loops with DATA-DEPENDENT exits: the iteration count is
   an input, so every unroll depth admits real terminating executions and
   proving depth d means re-establishing every frame k < d of a
   reassociated mul chain.  That is the shape where deepening has
   something to reuse — a counting loop with a fixed bound is vacuous at
   shallow depths (the exit is unreachable, the query propagates to Unsat
   with no search), so all its proof work lands once at the final depth
   in every leg.  Each
   pair is verified three ways under the same conflict budget:

   - incremental: one solver session walks the 1 -> 2 -> 4 schedule,
     retaining learned clauses, activities and the bit-blast memo;
   - fresh-per-depth: the same schedule, but every depth is a fresh
     single-shot solve — what deepening costs without the session;
   - single-shot: one solve at the full bound, the agreement baseline.

   A fourth leg replays the incremental schedule through the forked proc
   backend (skipped gracefully when fork is refused).  Conclusive verdicts
   must agree across all legs; wall time and conflicts per leg, the
   session counters and the incremental-vs-fresh speedup land in
   BENCH_incr.json.  Like proc-bench, this leg runs before anything spawns
   a domain so the proc comparison can fork. *)

let run_incr_bench () =
  header "INCR-BENCH (incremental sessions + iterative-deepening unroll)";
  let module Solver = Veriopt_smt.Solver in
  let module Engine = Veriopt_alive.Engine in
  let module Vproc = Veriopt_vproc.Vproc in
  let unroll = 4 in
  let max_conflicts = 200_000 in
  let schedule = Alive.unroll_schedule unroll in
  (* fork the proc pool first, while the process is still domain-free *)
  let proc_engine =
    if not (Vproc.available ()) then None
    else begin
      Unix.putenv "VERIOPT_PROC_JOBS" "1";
      let e = Engine.create ~tier1_samples:0 ~isolate:Engine.Proc () in
      Unix.putenv "VERIOPT_PROC_JOBS" "";
      if Engine.isolate e = Engine.Proc then Some e else None
    end
  in
  (* %z iterations of s <- s*y*v + k, returning the accumulator: the exit
     is data-dependent, so depth d's proof covers z in {0..d-1} and must
     re-prove the mul reassociation for every frame below d. *)
  let chain_pair = Veriopt_serve.Workload.assoc_chain_pair in
  let count_pair bound ret =
    let src =
      Fmt.str
        "define i32 @f(i32 %%n) {\nentry:\n  br label %%h\nh:\n  %%i = phi i32 [ 0, %%entry ], \
         [ %%i2, %%b ]\n  %%c = icmp slt i32 %%i, %d\n  br i1 %%c, label %%b, label %%x\nb:\n  \
         %%i2 = add i32 %%i, 1\n  br label %%h\nx:\n  ret i32 %%i\n}"
        bound
    in
    let tgt = Fmt.str "define i32 @f(i32 %%n) {\nentry:\n  ret i32 %d\n}" ret in
    let m = Veriopt_ir.Parser.parse_module src in
    ( m,
      List.hd m.Veriopt_ir.Ast.funcs,
      List.hd (Veriopt_ir.Parser.parse_module tgt).Veriopt_ir.Ast.funcs )
  in
  let pairs =
    [
      ("mul-chain-i5", chain_pair 5);
      ("mul-chain-i5-k11", chain_pair ~src_k:11 ~tgt_k:11 5);
      ("mul-chain-i5-k13", chain_pair ~src_k:13 ~tgt_k:13 5);
      ("mul-chain-i5-wrong", chain_pair ~src_k:3 ~tgt_k:4 5);
      ("count-3", count_pair 3 3);
      ("count-3-wrong", count_pair 3 4);
      ("count-100", count_pair 100 100);
    ]
  in
  let cat_name = function
    | Alive.Equivalent -> "equivalent"
    | Alive.Semantic_error -> "semantic_error"
    | Alive.Syntax_error -> "syntax_error"
    | Alive.Inconclusive -> "inconclusive"
  in
  let conclusive = function Alive.Inconclusive -> false | _ -> true in
  let run_leg f =
    Solver.reset_stats ();
    let t0 = Unix.gettimeofday () in
    let verdicts =
      List.map
        (fun (name, (m, src, tgt)) ->
          let t1 = Unix.gettimeofday () in
          let c = f m src tgt in
          (name, c, Unix.gettimeofday () -. t1))
        pairs
    in
    (verdicts, Unix.gettimeofday () -. t0, Solver.stats ())
  in
  let incr_verdicts, incr_secs, incr_sat =
    run_leg (fun m src tgt ->
        (Alive.verify_funcs ~unroll ~max_conflicts ~incremental:true m ~src ~tgt).Alive.category)
  in
  let fresh_verdicts, fresh_secs, fresh_sat =
    run_leg (fun m src tgt ->
        (* the deepening policy without the session: a fresh full solve at
           every depth, stopping exactly where the incremental loop stops *)
        let rec go = function
          | [] -> assert false
          | d :: rest ->
            let v = Alive.verify_funcs ~unroll:d ~max_conflicts ~incremental:false m ~src ~tgt in
            if
              rest = []
              || v.Alive.category = Alive.Semantic_error
              || v.Alive.category = Alive.Inconclusive
            then v.Alive.category
            else go rest
        in
        go schedule)
  in
  let single_verdicts, single_secs, single_sat =
    run_leg (fun m src tgt ->
        (Alive.verify_funcs ~unroll ~max_conflicts ~incremental:false m ~src ~tgt).Alive.category)
  in
  let count_flips name a b =
    List.fold_left2
      (fun n (pair, ca, _) (_, cb, _) ->
        if conclusive ca && conclusive cb && ca <> cb then begin
          Fmt.pf fmt "  ERROR: %s flip on %s: %s vs %s@." name pair (cat_name ca) (cat_name cb);
          n + 1
        end
        else n)
      0 a b
  in
  let flips_single = count_flips "incremental-vs-single-shot" incr_verdicts single_verdicts in
  let flips_fresh = count_flips "incremental-vs-fresh-per-depth" incr_verdicts fresh_verdicts in
  let proc =
    match proc_engine with
    | None ->
      Fmt.pf fmt "  proc leg: fork unavailable or refused; skipping@.";
      None
    | Some e ->
      let verdicts, secs, _ =
        run_leg (fun m src tgt ->
            (Engine.verify_funcs ~unroll ~max_conflicts ~incremental:true e m ~src ~tgt)
              .Alive.category)
      in
      Some (verdicts, secs, count_flips "proc-vs-single-shot" verdicts single_verdicts)
  in
  let leg_line name secs (sat : Solver.stats) =
    Fmt.pf fmt "  %-16s %6.2fs  %8d conflicts, %6d restarts, %d sessions (%d reused checks)@."
      name secs sat.Solver.conflicts sat.Solver.restarts sat.Solver.sessions
      sat.Solver.session_reuse
  in
  Fmt.pf fmt "  %d loop pairs, unroll schedule %a, %d-conflict budget@." (List.length pairs)
    Fmt.(list ~sep:(any " -> ") int)
    schedule max_conflicts;
  leg_line "incremental" incr_secs incr_sat;
  leg_line "fresh-per-depth" fresh_secs fresh_sat;
  leg_line "single-shot" single_secs single_sat;
  (match proc with
  | Some (_, secs, _) -> Fmt.pf fmt "  %-16s %6.2fs  (worker-side counters)@." "proc" secs
  | None -> ());
  List.iter2
    (fun (name, a, ta) (_, b, tb) ->
      Fmt.pf fmt "  %-14s incr: %-13s %6.2fs    fresh: %-13s %6.2fs@." name (cat_name a) ta
        (cat_name b) tb)
    incr_verdicts fresh_verdicts;
  let speedup = fresh_secs /. if incr_secs <= 0. then epsilon_float else incr_secs in
  let flips = flips_single + flips_fresh + match proc with Some (_, _, f) -> f | None -> 0 in
  Fmt.pf fmt "  deepening wall time: %.2fs fresh -> %.2fs incremental (%.2fx); flips: %d@."
    fresh_secs incr_secs speedup flips;
  let leg_json verdicts secs (sat : Solver.stats) =
    let per_query =
      String.concat ", "
        (List.map
           (fun (name, c, t) ->
             Fmt.str {|{ "pair": "%s", "verdict": "%s", "seconds": %.4f }|} name (cat_name c) t)
           verdicts)
    in
    Fmt.str
      {|{ "seconds": %.4f, "conflicts": %d, "restarts": %d, "sessions": %d, "session_reuse": %d, "queries": [ %s ] }|}
      secs sat.Solver.conflicts sat.Solver.restarts sat.Solver.sessions sat.Solver.session_reuse
      per_query
  in
  let proc_json =
    match proc with
    | None -> {|{ "skipped": true }|}
    | Some (verdicts, secs, f) ->
      let per_query =
        String.concat ", "
          (List.map
             (fun (name, c, t) ->
               Fmt.str {|{ "pair": "%s", "verdict": "%s", "seconds": %.4f }|} name (cat_name c) t)
             verdicts)
      in
      Fmt.str {|{ "seconds": %.4f, "flips": %d, "queries": [ %s ] }|} secs f per_query
  in
  let json =
    Fmt.str
      {|{
  "unroll": %d,
  "schedule": [ %a ],
  "max_conflicts": %d,
  "incremental": %s,
  "fresh_per_depth": %s,
  "single_shot": %s,
  "proc": %s,
  "speedup_vs_fresh": %.3f,
  "conclusive_flips": %d
}
|}
      unroll
      Fmt.(list ~sep:comma int)
      schedule max_conflicts
      (leg_json incr_verdicts incr_secs incr_sat)
      (leg_json fresh_verdicts fresh_secs fresh_sat)
      (leg_json single_verdicts single_secs single_sat)
      proc_json speedup flips
  in
  let oc = open_out "BENCH_incr.json" in
  output_string oc json;
  close_out oc;
  Fmt.pf fmt "  wrote BENCH_incr.json@.";
  if speedup < 1.3 then
    Fmt.pf fmt "  WARNING: incremental speedup %.2fx below the 1.3x target@." speedup;
  if flips > 0 then begin
    Fmt.pf fmt "  ERROR: the incremental schedule flipped a conclusive verdict@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* portfolio-bench: diversified SAT portfolio + cube-and-conquer racing.

   The workload is the SMT-hostile shape of this codebase: mul
   reassociation, algebraically trivial and brutal bit-blasted, as flat
   pairs at growing widths plus a mul-chain loop pair, with one deliberately
   wrong pair so the counterexample path races too.  Each pair is verified
   two ways under the same conflict budget:

   - single: today's solver, one in-process [Alive.verify_funcs] call;
   - portfolio: [Engine] with [~portfolio:4 ~cube_k:2] — a 500-conflict
     parent probe, then four racing legs across the fork pool (cube legs
     from the probe's top VSIDS variables, diversified full-query members
     for the rest), first conclusive verdict wins, losers SIGKILLed.

   Conclusive verdicts must agree (flips exit nonzero), no worker may
   outlive the engine (orphans exit nonzero), and the wall-time speedup,
   winner-config histogram, cancellation/wasted-work counters and reap
   promptness land in BENCH_portfolio.json.  Runs before anything spawns a
   domain so the pool can fork. *)

let run_portfolio_bench () =
  header "PORTFOLIO-BENCH (diversified SAT racing + cube-and-conquer)";
  let module Portfolio = Veriopt_smt.Portfolio in
  let module Engine = Veriopt_alive.Engine in
  let module Vproc = Veriopt_vproc.Vproc in
  let portfolio = 4 and cube_k = 2 in
  let unroll = 4 in
  (* large enough that every pair below actually concludes in both legs:
     the speedup is only meaningful when nobody hits the budget *)
  let max_conflicts = 2_000_000 in
  (* fork the racing pools first, while the process is still domain-free:
     one engine for cube-and-conquer, one with cube_k 0 for the
     pure-portfolio cancellation phase *)
  let engine =
    if not (Vproc.available ()) then None
    else begin
      let e = Engine.create ~tier1_samples:0 ~portfolio ~cube_k () in
      if Engine.portfolio e > 1 then
        Some (e, Engine.create ~tier1_samples:0 ~portfolio ~cube_k:0 ())
      else begin
        Engine.shutdown e;
        None
      end
    end
  in
  let mul_pair = Veriopt_serve.Workload.assoc_pair in
  (* the incr-bench chain shape: %z iterations of s <- s*y*v + 3, with the
     product reassociated between source and target *)
  let chain_pair = Veriopt_serve.Workload.assoc_chain_pair in
  (* the i6 chain is the heavyweight (~2.5 minutes single-solver on a
     2-core box) and the pair where racing pays; the flat pairs finish in
     seconds, and flat i7 also climbs past two minutes *)
  let pairs =
    [
      ("mul-assoc-i5", mul_pair 5);
      ("mul-assoc-i6", mul_pair 6);
      ("mul-assoc-i6-wrong", mul_pair ~delta:1 6);
      ("mul-chain-i6", chain_pair 6);
    ]
  in
  let cat_name = function
    | Alive.Equivalent -> "equivalent"
    | Alive.Semantic_error -> "semantic_error"
    | Alive.Syntax_error -> "syntax_error"
    | Alive.Inconclusive -> "inconclusive"
  in
  let conclusive = function Alive.Inconclusive -> false | _ -> true in
  let run_leg f =
    let t0 = Unix.gettimeofday () in
    let verdicts =
      List.map
        (fun (name, (m, src, tgt)) ->
          let t1 = Unix.gettimeofday () in
          let c = f m src tgt in
          (name, c, Unix.gettimeofday () -. t1))
        pairs
    in
    (verdicts, Unix.gettimeofday () -. t0)
  in
  let single_verdicts, single_secs =
    run_leg (fun m src tgt ->
        (Alive.verify_funcs ~unroll ~max_conflicts m ~src ~tgt).Alive.category)
  in
  match engine with
  | None ->
    Fmt.pf fmt "  fork unavailable or refused; portfolio leg skipped@.";
    let oc = open_out "BENCH_portfolio.json" in
    output_string oc {|{ "skipped": true }
|};
    close_out oc;
    Fmt.pf fmt "  wrote BENCH_portfolio.json@."
  | Some (e, e_pure) ->
    Portfolio.reset_stats ();
    Vproc.reset_stats ();
    let race_verdicts, race_secs =
      run_leg (fun m src tgt ->
          (Engine.verify_funcs ~unroll ~max_conflicts e m ~src ~tgt).Alive.category)
    in
    (* cancellation phase: with cube_k 0 the probe's failure spawns one
       whole-query cube leg plus three diversified full-query members; the
       first to conclude wins and the rest are SIGKILLed mid-flight, which
       is what pins loser reaping and the reap-promptness ratio *)
    let pure_t0 = Unix.gettimeofday () in
    let pure_m, pure_src, pure_tgt = mul_pair 6 in
    let pure_v =
      Engine.verify_funcs ~unroll ~max_conflicts e_pure pure_m ~src:pure_src ~tgt:pure_tgt
    in
    let pure_secs = Unix.gettimeofday () -. pure_t0 in
    Engine.shutdown e;
    Engine.shutdown e_pure;
    let orphans = Engine.orphans e + Engine.orphans e_pure in
    let p = Portfolio.stats () in
    let hist = Portfolio.winner_histogram () in
    let flips =
      List.fold_left2
        (fun n (pair, cs, _) (_, cp, _) ->
          if conclusive cs && conclusive cp && cs <> cp then begin
            Fmt.pf fmt "  ERROR: portfolio flip on %s: %s vs %s@." pair (cat_name cs)
              (cat_name cp);
            n + 1
          end
          else n)
        0 single_verdicts race_verdicts
    in
    Fmt.pf fmt "  %d hostile pairs, %d-conflict budget, portfolio %d, cube_k %d@."
      (List.length pairs) max_conflicts portfolio cube_k;
    List.iter2
      (fun (name, cs, ts) (_, cp, tp) ->
        Fmt.pf fmt "  %-20s single: %-14s %6.2fs    portfolio: %-14s %6.2fs@." name
          (cat_name cs) ts (cat_name cp) tp)
      single_verdicts race_verdicts;
    let speedup = single_secs /. if race_secs <= 0. then epsilon_float else race_secs in
    Fmt.pf fmt "  wall time: %.2fs single -> %.2fs portfolio (%.2fx); flips: %d@." single_secs
      race_secs speedup flips;
    Fmt.pf fmt "  pure race (cube_k 0, mul-assoc-i6): %s in %.2fs@."
      (cat_name pure_v.Alive.category) pure_secs;
    Fmt.pf fmt
      "  %d races (%d full-member wins, %d cube splits, %d cube cex, %d cube refutations, %d \
       join refutations)@."
      p.Portfolio.races p.Portfolio.race_wins p.Portfolio.cube_splits p.Portfolio.cube_cex
      p.Portfolio.cube_refutations p.Portfolio.join_refutations;
    Fmt.pf fmt
      "  %d losers cancelled, %d conflicts wasted, %d units merged, reap ratio max %.2f, %d \
       orphans@."
      p.Portfolio.losers_cancelled p.Portfolio.wasted_conflicts p.Portfolio.units_merged
      p.Portfolio.reap_ratio_max orphans;
    (match hist with
    | [] -> ()
    | _ ->
      Fmt.pf fmt "  winners: %s@."
        (String.concat ", " (List.map (fun (l, n) -> Fmt.str "%s:%d" l n) hist)));
    let leg_json verdicts secs =
      let per_query =
        String.concat ", "
          (List.map
             (fun (name, c, t) ->
               Fmt.str {|{ "pair": "%s", "verdict": "%s", "seconds": %.4f }|} name (cat_name c)
                 t)
             verdicts)
      in
      Fmt.str {|{ "seconds": %.4f, "queries": [ %s ] }|} secs per_query
    in
    let hist_json =
      String.concat ", " (List.map (fun (l, n) -> Fmt.str {|"%s": %d|} l n) hist)
    in
    let json =
      Fmt.str
        {|{
  "portfolio": %d,
  "cube_k": %d,
  "max_conflicts": %d,
  "single": %s,
  "portfolio_leg": %s,
  "pure_race": { "pair": "mul-assoc-i6", "verdict": "%s", "seconds": %.4f },
  "speedup": %.3f,
  "conclusive_flips": %d,
  "races": %d,
  "race_wins": %d,
  "cube_splits": %d,
  "cube_cex": %d,
  "cube_refutations": %d,
  "join_refutations": %d,
  "losers_cancelled": %d,
  "wasted_conflicts": %d,
  "units_merged": %d,
  "reap_ratio_max": %.3f,
  "winner_hist": { %s },
  "orphans": %d
}
|}
        portfolio cube_k max_conflicts
        (leg_json single_verdicts single_secs)
        (leg_json race_verdicts race_secs)
        (cat_name pure_v.Alive.category)
        pure_secs speedup flips p.Portfolio.races p.Portfolio.race_wins p.Portfolio.cube_splits
        p.Portfolio.cube_cex p.Portfolio.cube_refutations p.Portfolio.join_refutations
        p.Portfolio.losers_cancelled p.Portfolio.wasted_conflicts p.Portfolio.units_merged
        p.Portfolio.reap_ratio_max hist_json orphans
    in
    let oc = open_out "BENCH_portfolio.json" in
    output_string oc json;
    close_out oc;
    Fmt.pf fmt "  wrote BENCH_portfolio.json@.";
    if speedup < 1.5 then
      Fmt.pf fmt "  WARNING: portfolio speedup %.2fx below the 1.5x target@." speedup;
    if p.Portfolio.losers_cancelled = 0 then
      Fmt.pf fmt "  WARNING: no race cancelled a loser (every member finished together?)@.";
    if p.Portfolio.reap_ratio_max > 1.5 then
      Fmt.pf fmt "  WARNING: losers outlived a winner %.2fx past its finish (1.5x target)@."
        p.Portfolio.reap_ratio_max;
    if conclusive pure_v.Alive.category && pure_v.Alive.category <> Alive.Equivalent then begin
      Fmt.pf fmt "  ERROR: the pure race flipped mul-assoc-i6 to %s@."
        (cat_name pure_v.Alive.category);
      exit 1
    end;
    if orphans > 0 then begin
      Fmt.pf fmt "  ERROR: %d workers outlived the engine shutdown@." orphans;
      exit 1
    end;
    if flips > 0 then begin
      Fmt.pf fmt "  ERROR: the portfolio flipped a conclusive verdict@.";
      exit 1
    end

(* ------------------------------------------------------------------ *)
(* The disk-backed verdict store: cold fill vs warm rerun on a
   repeated-group workload.  Gates: warm >= 3x faster, 100% verdict
   agreement, zero corrupt entries served, zero orphans.
   Emits BENCH_store.json. *)

let run_store_bench () =
  header "STORE-BENCH (disk-backed verdict store, cold fill vs warm rerun)";
  let module Engine = Veriopt_alive.Engine in
  let module Store = Veriopt_store.Store in
  let module Vcache = Veriopt_alive.Vcache in
  let module Workload = Veriopt_serve.Workload in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "veriopt-store-bench-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  (* a repeated-group stream: each distinct query appears three times, once
     verbatim and twice alpha-renamed — the shape GRPO groups and serve
     replicas actually produce *)
  let n_distinct = 14 in
  let queries =
    List.concat_map
      (fun i ->
        let q = Workload.make ~seed:21 ~index:i in
        [ q; Workload.alpha_variant q; Workload.alpha_variant q ])
      (List.init n_distinct Fun.id)
  in
  let cat_name = function
    | Alive.Equivalent -> "equivalent"
    | Alive.Semantic_error -> "semantic_error"
    | Alive.Syntax_error -> "syntax_error"
    | Alive.Inconclusive -> "inconclusive"
  in
  let run_leg e =
    let t0 = Unix.gettimeofday () in
    let verdicts =
      List.map
        (fun q ->
          (Engine.verify_funcs ?unroll:q.Workload.w_unroll
             ?max_conflicts:q.Workload.w_max_conflicts e q.Workload.w_m
             ~src:q.Workload.w_src ~tgt:q.Workload.w_tgt)
            .Alive.category)
        queries
    in
    (verdicts, Unix.gettimeofday () -. t0)
  in
  let cold_engine = Engine.create ~tier1_samples:0 ~store:dir () in
  let cold_verdicts, cold_secs = run_leg cold_engine in
  let cold_store = Option.get (Engine.store_stats cold_engine) in
  Engine.shutdown cold_engine;
  let warm_engine = Engine.create ~tier1_samples:0 ~store:dir () in
  let warm_verdicts, warm_secs = run_leg warm_engine in
  let warm_cache = Engine.stats warm_engine in
  let warm_store = Option.get (Engine.store_stats warm_engine) in
  Engine.shutdown warm_engine;
  let orphans = Engine.orphans cold_engine + Engine.orphans warm_engine in
  let n = List.length queries in
  let disagreements =
    List.fold_left2 (fun k c w -> if c = w then k else k + 1) 0 cold_verdicts warm_verdicts
  in
  let lookups = warm_store.Store.hits + warm_store.Store.misses in
  let hit_rate =
    if lookups = 0 then 0. else float_of_int warm_store.Store.hits /. float_of_int lookups
  in
  let speedup = cold_secs /. if warm_secs <= 0. then epsilon_float else warm_secs in
  Fmt.pf fmt "  %d queries (%d distinct x3: verbatim + two alpha twins)@." n n_distinct;
  Fmt.pf fmt "  cold: %.2fs (%d entries written)    warm: %.3fs (%.2fx)@." cold_secs
    cold_store.Store.writes warm_secs speedup;
  Fmt.pf fmt "  warm: %d store hits / %d lookups (%.0f%%), %d tier-2 runs, %d rewrites@."
    warm_store.Store.hits lookups (hit_rate *. 100.) warm_cache.Vcache.tier2_runs
    warm_store.Store.writes;
  Fmt.pf fmt "  agreement: %d/%d; corrupt served: %d; stale skips: %d; orphans: %d@."
    (n - disagreements) n warm_store.Store.corrupt_entries
    warm_store.Store.stale_version_skips orphans;
  if disagreements > 0 then
    List.iteri
      (fun i (c, w) ->
        if c <> w then
          Fmt.pf fmt "  ERROR: query %d (%s): cold %s, warm %s@." i
            (List.nth queries i).Workload.w_label (cat_name c) (cat_name w))
      (List.combine cold_verdicts warm_verdicts);
  let json =
    Fmt.str
      {|{
  "queries": %d,
  "distinct": %d,
  "cold_seconds": %.4f,
  "warm_seconds": %.4f,
  "speedup": %.3f,
  "entries_written": %d,
  "warm_store_hits": %d,
  "warm_store_misses": %d,
  "warm_hit_rate": %.4f,
  "warm_tier2_runs": %d,
  "disagreements": %d,
  "corrupt_entries_served": %d,
  "stale_version_skips": %d,
  "orphans": %d
}
|}
      n n_distinct cold_secs warm_secs speedup cold_store.Store.writes warm_store.Store.hits
      warm_store.Store.misses hit_rate warm_cache.Vcache.tier2_runs disagreements
      warm_store.Store.corrupt_entries warm_store.Store.stale_version_skips orphans
  in
  let oc = open_out "BENCH_store.json" in
  output_string oc json;
  close_out oc;
  Fmt.pf fmt "  wrote BENCH_store.json@.";
  let fail msg =
    Fmt.pf fmt "  ERROR: %s@." msg;
    exit 1
  in
  if disagreements > 0 then fail "warm store flipped a verdict";
  if warm_store.Store.corrupt_entries > 0 then
    fail "a corrupt store entry reached the warm run";
  if warm_cache.Vcache.tier2_runs > 0 then fail "warm rerun still paid for solver calls";
  if orphans > 0 then fail "workers outlived the engine shutdown";
  if speedup < 3. then fail (Fmt.str "warm speedup %.2fx below the 3x gate" speedup)

(* ------------------------------------------------------------------ *)
(* The emit-time fold engine vs the reference rescanning driver.

   Three legs, three gates:
   - wall time of Instcombine.run (fold engine) vs Instcombine.run_fixpoint
     (rescan after every rewrite) over the adversarial Cgen stream:
     the fold driver must be >= 1.5x faster;
   - SFT supervision: the (rule, site) traces over the pinned default Cgen
     stream must be bit-identical between drivers, and a verification
     sample of both outputs against the source must show zero conclusive
     verdict flips;
   - the canonical-key quotient: operand-commuted twin queries must
     collide onto one store key (100%) and be served from the Vcache,
     where the pre-canon raw-text keys would all miss.
   Emits BENCH_fold.json. *)

let run_fold_bench () =
  header "FOLD-BENCH (emit-time fold engine vs rescanning fixpoint driver)";
  let module IC = Veriopt_passes.Instcombine in
  let module FE = Veriopt_passes.Fold_engine in
  let module Cgen = Veriopt_data.Cgen in
  let module Lower = Veriopt_data.Lower in
  let module Engine = Veriopt_alive.Engine in
  let module Vcache = Veriopt_alive.Vcache in
  let module Ast = Veriopt_ir.Ast in
  let fail msg =
    Fmt.pf fmt "  ERROR: %s@." msg;
    exit 1
  in
  let stream ?profile n =
    List.init n (fun seed ->
        match profile with
        | None -> Lower.lower (Cgen.generate ~seed ~name:"t" ())
        | Some p -> Lower.lower (Cgen.generate ~profile:p ~seed ~name:"t" ()))
  in
  let n_funcs = 40 and repeats = 5 in
  let adversarial = stream ~profile:Cgen.adversarial_profile n_funcs in
  let default = stream n_funcs in
  let time_leg driver funcs =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to repeats do
      List.iter (fun (m, f) -> ignore (driver m f)) funcs
    done;
    Unix.gettimeofday () -. t0
  in
  (* interleave the legs so allocator / cache warmth cannot favour one *)
  ignore (time_leg IC.run adversarial);
  ignore (time_leg IC.run_fixpoint adversarial);
  let fold_adv = time_leg IC.run adversarial in
  let fix_adv = time_leg IC.run_fixpoint adversarial in
  let fold_def = time_leg IC.run default in
  let fix_def = time_leg IC.run_fixpoint default in
  let speedup_adv = fix_adv /. if fold_adv <= 0. then epsilon_float else fold_adv in
  let speedup_def = fix_def /. if fold_def <= 0. then epsilon_float else fold_def in
  Fmt.pf fmt "  adversarial stream (%d funcs x%d): fold %.3fs, fixpoint %.3fs (%.2fx)@."
    n_funcs repeats fold_adv fix_adv speedup_adv;
  Fmt.pf fmt "  default stream     (%d funcs x%d): fold %.3fs, fixpoint %.3fs (%.2fx)@."
    n_funcs repeats fold_def fix_def speedup_def;
  Fmt.pf fmt "  fold passes: %d, restarts: %d, barrier hits: %d@."
    (Atomic.get FE.passes_total) (Atomic.get FE.restarts_total)
    (Atomic.get FE.barrier_hits_total);
  (* bit-identical SFT traces on the pinned default stream *)
  let trace_digest driver =
    let buf = Buffer.create 65536 in
    List.iter
      (fun (m, f) ->
        let r = driver m f in
        List.iter
          (fun (e : IC.trace_entry) ->
            Buffer.add_string buf e.IC.rule;
            Buffer.add_char buf '@';
            Buffer.add_string buf e.IC.site;
            Buffer.add_char buf '\n')
          r.IC.trace)
      default;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let fold_traces = trace_digest IC.run in
  let fix_traces = trace_digest IC.run_fixpoint in
  let traces_identical = fold_traces = fix_traces in
  Fmt.pf fmt "  SFT trace digest: fold %s, fixpoint %s (%s)@." fold_traces fix_traces
    (if traces_identical then "identical" else "DIVERGED");
  (* zero conclusive flips: both outputs verify identically vs the source *)
  let verify_engine = Engine.create ~tier1_samples:8 () in
  let flips = ref 0 and conclusive = ref 0 in
  List.iteri
    (fun i (m, f) ->
      if i < 12 then begin
        let a = (IC.run m f).IC.func and b = (IC.run_fixpoint m f).IC.func in
        let va = Engine.verify_funcs verify_engine m ~src:f ~tgt:a in
        let vb = Engine.verify_funcs verify_engine m ~src:f ~tgt:b in
        let concl v =
          v.Alive.category = Alive.Equivalent || v.Alive.category = Alive.Semantic_error
        in
        if concl va || concl vb then incr conclusive;
        if va.Alive.category <> vb.Alive.category then incr flips
      end)
    default;
  Engine.shutdown verify_engine;
  Fmt.pf fmt "  verdicts: %d conclusive, %d flips@." !conclusive !flips;
  (* the canonical-key quotient: commute every commutative op (and mirror
     every icmp) of the source — the key must not move, and the twin query
     must be a Vcache hit *)
  let commute_func (f : Ast.func) =
    let swap ni =
      let instr =
        match ni.Ast.instr with
        | Ast.Binop ({ op; lhs; rhs; _ } as b) when Ast.binop_is_commutative op ->
          Ast.Binop { b with lhs = rhs; rhs = lhs }
        | Ast.Icmp ({ pred; lhs; rhs; _ } as c) ->
          Ast.Icmp { c with pred = Ast.icmp_swap_pred pred; lhs = rhs; rhs = lhs }
        | i -> i
      in
      { ni with Ast.instr }
    in
    {
      f with
      Ast.blocks =
        List.map
          (fun b -> { b with Ast.instrs = List.map swap b.Ast.instrs })
          f.Ast.blocks;
    }
  in
  let twin_engine = Engine.create ~tier1_samples:4 () in
  let twins = ref 0 and key_collisions = ref 0 and twin_hits = ref 0 in
  List.iter
    (fun (m, f) ->
      let tgt = (IC.run m f).IC.func in
      let twin = commute_func f in
      if Veriopt_ir.Printer.func_to_string twin <> Veriopt_ir.Printer.func_to_string f
      then begin
        incr twins;
        if Engine.store_key m ~src:f ~tgt = Engine.store_key m ~src:twin ~tgt then
          incr key_collisions;
        ignore (Engine.verify_funcs twin_engine m ~src:f ~tgt);
        let h0 = (Engine.stats twin_engine).Vcache.hits in
        ignore (Engine.verify_funcs twin_engine m ~src:twin ~tgt);
        if (Engine.stats twin_engine).Vcache.hits > h0 then incr twin_hits
      end)
    default;
  Engine.shutdown twin_engine;
  let hit_rate =
    if !twins = 0 then 0. else float_of_int !twin_hits /. float_of_int !twins
  in
  Fmt.pf fmt
    "  twin battery: %d twins, %d key collisions, %d cache hits (%.0f%% hit-rate gain; \
     raw-text keys would hit 0%%)@."
    !twins !key_collisions !twin_hits (hit_rate *. 100.);
  let json =
    Fmt.str
      {|{
  "funcs": %d,
  "repeats": %d,
  "adversarial_fold_seconds": %.4f,
  "adversarial_fixpoint_seconds": %.4f,
  "adversarial_speedup": %.3f,
  "default_fold_seconds": %.4f,
  "default_fixpoint_seconds": %.4f,
  "default_speedup": %.3f,
  "fold_passes": %d,
  "fold_restarts": %d,
  "barrier_hits": %d,
  "traces_identical": %b,
  "trace_digest": "%s",
  "verdict_sample": 12,
  "verdict_conclusive": %d,
  "verdict_flips": %d,
  "twin_queries": %d,
  "twin_key_collisions": %d,
  "twin_cache_hits": %d,
  "twin_hit_rate_gain": %.4f
}
|}
      n_funcs repeats fold_adv fix_adv speedup_adv fold_def fix_def speedup_def
      (Atomic.get FE.passes_total) (Atomic.get FE.restarts_total)
      (Atomic.get FE.barrier_hits_total) traces_identical fold_traces !conclusive !flips
      !twins !key_collisions !twin_hits hit_rate
  in
  let oc = open_out "BENCH_fold.json" in
  output_string oc json;
  close_out oc;
  Fmt.pf fmt "  wrote BENCH_fold.json@.";
  if not traces_identical then fail "SFT traces diverged between drivers";
  if !flips > 0 then fail "a conclusive verdict flipped between drivers";
  if !twins > 0 && !key_collisions < !twins then
    fail
      (Fmt.str "twin key collisions %d/%d below 100%%" !key_collisions !twins);
  if !twins > 0 && !twin_hits < !twins then
    fail (Fmt.str "twin cache hits %d/%d below 100%%" !twin_hits !twins);
  if speedup_adv < 1.5 then
    fail (Fmt.str "adversarial speedup %.2fx below the 1.5x gate" speedup_adv)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the substrates; one Test.make per kernel. *)

let run_micro () =
  header "MICROBENCHMARKS (bechamel, monotonic clock)";
  (* bind the workload before opening Bechamel (which shadows S) *)
  let sample = S.build ~verify:false ~seed0:123456 ~n:1 () in
  let open Bechamel in
  let s = List.hd sample.Veriopt_data.Suite.samples in
  let src_text = s.Veriopt_data.Suite.src_text in
  let base_model = Veriopt_llm.Capability.base_3b () in
  let args =
    List.map
      (fun (ty, _) -> Veriopt_eval.Interp.vint (Veriopt_ir.Types.width ty) 1L)
      s.Veriopt_data.Suite.src.Veriopt_ir.Ast.params
  in
  let tests =
    [
      Test.make ~name:"parse_func" (Staged.stage (fun () -> Veriopt_ir.Parser.parse_func src_text));
      Test.make ~name:"print_func"
        (Staged.stage (fun () -> Veriopt_ir.Printer.func_to_string s.Veriopt_data.Suite.src));
      Test.make ~name:"validate_func"
        (Staged.stage (fun () -> Veriopt_ir.Validator.validate_func ~module_:s.Veriopt_data.Suite.modul s.Veriopt_data.Suite.src));
      Test.make ~name:"instcombine"
        (Staged.stage (fun () -> Veriopt_passes.Pass_manager.instcombine s.Veriopt_data.Suite.modul s.Veriopt_data.Suite.src));
      Test.make ~name:"interp_run"
        (Staged.stage (fun () ->
             try ignore (Veriopt_eval.Interp.run s.Veriopt_data.Suite.modul s.Veriopt_data.Suite.src args) with _ -> ()));
      Test.make ~name:"alive_verify"
        (Staged.stage (fun () ->
             Veriopt_alive.Alive.verify_funcs ~max_conflicts:60_000 s.Veriopt_data.Suite.modul ~src:s.Veriopt_data.Suite.src
               ~tgt:s.Veriopt_data.Suite.label));
      Test.make ~name:"engine_verify_cached"
        (Staged.stage
           (let engine = Veriopt_alive.Engine.create () in
            fun () ->
              Veriopt_alive.Engine.verify_funcs ~max_conflicts:60_000 engine
                s.Veriopt_data.Suite.modul ~src:s.Veriopt_data.Suite.src
                ~tgt:s.Veriopt_data.Suite.label));
      Test.make ~name:"model_generate_greedy"
        (Staged.stage (fun () ->
             Veriopt_llm.Model.generate base_model ~mode:Prompt.Generic ~rng:None ~sample_id:1
               s.Veriopt_data.Suite.modul s.Veriopt_data.Suite.src));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.iter
    (fun t ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"micro" [ t ]) in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Fmt.pf fmt "  %-32s %14.1f ns/run@." name est
          | Some _ | None -> Fmt.pf fmt "  %-32s (no estimate)@." name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let args = List.filter (fun a -> a <> "--full") args in
  let scale = if full then P.full else P.quick in
  let experiments = if args = [] || List.mem "all" args then [ "all" ] else args in
  let wants x = List.mem "all" experiments || List.mem x experiments in
  (* micro and verify-bench are standalone: they build their own workloads
     and must not pay for (or pollute) the full training pipeline *)
  let standalone =
    [
      "micro"; "verify-bench"; "robust-bench"; "sat-bench"; "proc-bench"; "incr-bench";
      "portfolio-bench"; "store-bench"; "fold-bench";
    ]
  in
  let needs_evals =
    List.mem "all" experiments
    || List.exists (fun x -> not (List.mem x standalone)) experiments
  in
  (* proc-bench and incr-bench first: they fork worker pools, which OCaml 5
     only permits before any other leg has spawned a domain *)
  if wants "proc-bench" then run_proc_bench ();
  if wants "incr-bench" then run_incr_bench ();
  if wants "portfolio-bench" then run_portfolio_bench ();
  if wants "store-bench" then run_store_bench ();
  if wants "fold-bench" then run_fold_bench ();
  if needs_evals then begin
    let e = build_evals scale in
    if wants "dataset" then run_dataset e;
    if wants "table1" then run_table1 e;
    if wants "table2" then run_table2 e;
    if wants "table3" then run_table3 e;
    if wants "fig4" then run_fig4 e;
    if wants "fig5" then run_fig5 e;
    if wants "fig6" then run_fig6 e;
    if wants "fig7" then run_fig7 e;
    if wants "figs8to12" then run_figs8to12 e;
    if wants "ablations" then run_ablations e;
    if wants "discussion" then run_discussion e;
    if wants "engine" then run_engine_stats e
  end;
  if wants "verify-bench" then run_verify_bench ();
  if wants "robust-bench" then run_robust_bench ();
  if wants "sat-bench" then run_sat_bench ();
  if wants "micro" then run_micro ();
  Fmt.pf fmt "@.done.@."
