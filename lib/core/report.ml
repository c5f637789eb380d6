(** Rendering of every table and figure the paper reports, from evaluation
    results.  Each function prints the same rows/series as the corresponding
    paper artifact so EXPERIMENTS.md can record paper-vs-measured shapes. *)

open Evaluate
module Model = Veriopt_llm.Model
module Suite = Veriopt_data.Suite
module Trainer = Veriopt_rl.Trainer

let pct n total = 100. *. float_of_int n /. float_of_int (max 1 total)

(* ------------------------------------------------------------------ *)
(* Tables I and II: Alive verification categories *)

let pp_verdict_table ppf (res : result) =
  let c = res.counts in
  Fmt.pf ppf "%-34s %8s %10s@." "Category" "Count" "Prop. (%)";
  Fmt.pf ppf "%-34s %8d %10.1f@." "Correct (Alive verified)" c.correct (pct c.correct c.total);
  Fmt.pf ppf "%-34s %8d %10.1f@." "- Copy of input (no optimization)" c.copies (pct c.copies c.total);
  Fmt.pf ppf "%-34s %8d %10.1f@." "Semantic Error (Not Equivalent)" c.semantic (pct c.semantic c.total);
  Fmt.pf ppf "%-34s %8d %10.1f@." "Syntax Error (Invalid IR)" c.syntax (pct c.syntax c.total);
  Fmt.pf ppf "%-34s %8d %10.1f@." "Inconclusive" c.inconclusive (pct c.inconclusive c.total)

let table1 ppf (base_eval : result) =
  Fmt.pf ppf "TABLE I: Alive verification results of baseline %s@." base_eval.model_name;
  pp_verdict_table ppf base_eval;
  Fmt.pf ppf "different-correct rate: %.1f%%@."
    (100. *. different_correct_rate base_eval)

let table2 ppf ~(correctness : result) ~(latency : result) =
  Fmt.pf ppf "TABLE II: Alive verification results of the LLM-VeriOpt models@.";
  Fmt.pf ppf "-- Model-Correctness --@.";
  pp_verdict_table ppf correctness;
  Fmt.pf ppf "different-correct rate: %.1f%%@." (100. *. different_correct_rate correctness);
  Fmt.pf ppf "-- Model-Latency --@.";
  pp_verdict_table ppf latency;
  Fmt.pf ppf "different-correct rate: %.1f%%@." (100. *. different_correct_rate latency)

(* ------------------------------------------------------------------ *)
(* Table III: per-sample outcomes vs -O0 *)

let metric_selectors = [ ("Latency", fun m -> m.latency); ("Size", fun m -> m.binsize); ("ICount", fun m -> m.icount) ]

let table3 ppf (models : (string * result) list) =
  Fmt.pf ppf
    "TABLE III: per-sample outcomes vs LLVM -O0 (verify-or-fallback; smaller = better)@.";
  Fmt.pf ppf "%-8s %-14s %7s %7s %7s %7s %12s@." "Metric" "Model" "Better" "Worse" "Tie" "Total"
    "MeanD vs O0";
  List.iter
    (fun (metric_name, metric) ->
      List.iter
        (fun (name, res) ->
          let c = compare_metric res.rows ~metric ~out:out_metrics ~base:src_metrics in
          Fmt.pf ppf "%-8s %-14s %7d %7d %7d %7d %11.2f%%@." metric_name name c.better c.worse
            c.tie res.counts.total (100. *. c.mean_delta))
        models)
    metric_selectors

(* ------------------------------------------------------------------ *)
(* Fig. 4: training dynamics *)

let fig4 ppf ~(which : string) (log : Trainer.stage_log) =
  Fmt.pf ppf "FIG 4%s: training reward (step, raw, EMA-0.95)@." which;
  let raw = Array.of_list log.Trainer.raw_rewards in
  let ema = Array.of_list log.Trainer.ema_rewards in
  let n = Array.length raw in
  let stride = max 1 (n / 20) in
  let i = ref 0 in
  while !i < n do
    Fmt.pf ppf "  step %4d  raw %6.3f  ema %6.3f@." (!i + 1) raw.(!i) ema.(!i);
    i := !i + stride
  done;
  if n > 0 then Fmt.pf ppf "  step %4d  raw %6.3f  ema %6.3f@." n raw.(n - 1) ema.(n - 1)

(* ------------------------------------------------------------------ *)
(* Fig. 5: baselines in parameter-size order *)

let fig5 ppf (models : (string * result) list) =
  Fmt.pf ppf "FIG 5: LLM baselines (parameter-size order) vs Model-Latency@.";
  Fmt.pf ppf "%-18s %12s %12s %12s %12s@." "Model" "Latency x" "Correct %" "ICount ratio"
    "Size ratio";
  List.iter
    (fun (name, res) ->
      let lat = geomean_speedup res.rows ~metric:(fun m -> m.latency) ~out:out_metrics ~base:src_metrics in
      let ic =
        1. /. geomean_speedup res.rows ~metric:(fun m -> m.icount) ~out:out_metrics ~base:src_metrics
      in
      let bs =
        1. /. geomean_speedup res.rows ~metric:(fun m -> m.binsize) ~out:out_metrics ~base:src_metrics
      in
      let correct = pct res.counts.correct res.counts.total in
      Fmt.pf ppf "%-18s %12.2f %12.1f %12.3f %12.3f@." name lat correct ic bs)
    models

(* ------------------------------------------------------------------ *)
(* Fig. 6: pairwise distributions and the headline speedups *)

let pairwise ppf ~(name : string) (rows : row list) ~out ~base =
  List.iter
    (fun (metric_name, metric) ->
      let c = compare_metric rows ~metric ~out ~base in
      Fmt.pf ppf "  %-22s %-8s better %5.1f%%  worse %5.1f%%  tie %5.1f%%@." name metric_name
        (pct c.better (List.length rows))
        (pct c.worse (List.length rows))
        (pct c.tie (List.length rows)))
    metric_selectors

let fig6 ppf ~(latency_model : result) =
  Fmt.pf ppf "FIG 6: pairwise distributions of optimized IR@.";
  Fmt.pf ppf "(a) VeriOpt vs -O0:@.";
  pairwise ppf ~name:"VeriOpt vs O0" latency_model.rows ~out:out_metrics ~base:src_metrics;
  Fmt.pf ppf "(b) instcombine vs -O0:@.";
  pairwise ppf ~name:"instcombine vs O0" latency_model.rows ~out:label_metrics ~base:src_metrics;
  Fmt.pf ppf "(c) VeriOpt vs instcombine:@.";
  pairwise ppf ~name:"VeriOpt vs IC" latency_model.rows ~out:out_metrics ~base:label_metrics;
  let geo metric out base =
    geomean_speedup latency_model.rows ~metric ~out ~base
  in
  Fmt.pf ppf "geomean speedup vs O0: VeriOpt %.2fx, instcombine %.2fx@."
    (geo (fun m -> m.latency) out_metrics src_metrics)
    (geo (fun m -> m.latency) label_metrics src_metrics);
  let net_rows = latency_model.rows in
  let net =
    geomean_speedup net_rows ~metric:(fun m -> m.latency)
      ~out:(fun r -> best_of_both r)
      ~base:label_metrics
  in
  let net_ic =
    geomean_speedup net_rows ~metric:(fun m -> m.icount)
      ~out:(fun r -> if (best_of_both r).latency = r.m_out.latency then r.m_out else r.m_label)
      ~base:label_metrics
  in
  let net_bs =
    geomean_speedup net_rows ~metric:(fun m -> m.binsize)
      ~out:(fun r -> if (best_of_both r).latency = r.m_out.latency then r.m_out else r.m_label)
      ~base:label_metrics
  in
  Fmt.pf ppf
    "with fallback to instcombine: net latency gain %.1f%%, icount %.1f%%, binsize %.1f%%@."
    (100. *. (net -. 1.))
    (100. *. (net_ic -. 1.))
    (100. *. (net_bs -. 1.))

(* ------------------------------------------------------------------ *)
(* Fig. 7: ablation over the four-model hierarchy *)

let fig7 ppf (models : (string * result) list) =
  Fmt.pf ppf "FIG 7: ablation over the training hierarchy@.";
  Fmt.pf ppf "%-20s %12s %12s %12s %12s@." "Variant" "Latency x" "ICount x" "Size x" "Correct %";
  List.iter
    (fun (name, res) ->
      let g metric = geomean_speedup res.rows ~metric ~out:out_metrics ~base:src_metrics in
      Fmt.pf ppf "%-20s %12.2f %12.2f %12.2f %12.1f@." name
        (g (fun m -> m.latency))
        (g (fun m -> m.icount))
        (g (fun m -> m.binsize))
        (pct res.counts.correct res.counts.total))
    models

(* ------------------------------------------------------------------ *)
(* Figs. 8-12: code-example case studies *)

let print_pair ppf title (r : row) =
  Fmt.pf ppf "--- %s (sample f%d) ---@." title r.sample.Suite.id;
  Fmt.pf ppf "InstCombine:@.%s@." (Veriopt_ir.Printer.func_to_string r.sample.Suite.label);
  Fmt.pf ppf "LLM-VeriOpt:@.%s@." (Veriopt_ir.Printer.func_to_string r.output)

let figs8to12 ppf (latency_model : result) =
  Fmt.pf ppf "FIGS 8-12: case studies mined from the validation set@.";
  let rows = latency_model.rows in
  let is_const_ret (f : Veriopt_ir.Ast.func) =
    match f.Veriopt_ir.Ast.blocks with
    | [ { instrs = []; term = Veriopt_ir.Ast.Ret _; _ } ] -> true
    | _ -> false
  in
  (* Fig 8-style: the model simplifies a function to a constant return where
     instcombine does not *)
  (match
     List.find_opt
       (fun r ->
         r.category = Correct_different && is_const_ret r.output
         && not (is_const_ret r.sample.Suite.label))
       rows
   with
  | Some r -> print_pair ppf "Fig 8-style: simplification to a constant" r
  | None -> Fmt.pf ppf "(no fig-8-style example found at this scale)@.");
  (* Fig 9/10-style: emergent win over instcombine (alloca/phi removal) *)
  (match
     List.find_opt
       (fun r -> r.category = Correct_different && r.m_out.latency < r.m_label.latency)
       rows
   with
  | Some r -> print_pair ppf "Fig 9/10-style: emergent win over instcombine" r
  | None -> Fmt.pf ppf "(no emergent-win example found at this scale)@.");
  (* Fig 11/12-style: instcombine superiority *)
  (match
     List.find_opt
       (fun r -> r.category = Correct_different && r.m_out.latency > r.m_label.latency)
       rows
   with
  | Some r -> print_pair ppf "Fig 11/12-style: instcombine finds more" r
  | None -> Fmt.pf ppf "(no instcombine-superior example found at this scale)@.")

(* ------------------------------------------------------------------ *)

let dataset_stats ppf ~(train : Suite.stats) ~(validation : Suite.stats) =
  Fmt.pf ppf "DATASET (SIV-A methodology):@.";
  Fmt.pf ppf "  train:      %a@." Suite.pp_stats train;
  Fmt.pf ppf "  validation: %a@." Suite.pp_stats validation

(* ------------------------------------------------------------------ *)

(** Tier / cache / SAT statistics of the verification engine: where the
    reward hot path's time went and how much work the tiers avoided. *)
let engine_stats ppf (engine : Veriopt_alive.Engine.t) =
  let s = Veriopt_alive.Engine.stats engine in
  let sat = Veriopt_smt.Solver.stats () in
  let lookups = s.Veriopt_alive.Vcache.hits + s.Veriopt_alive.Vcache.misses in
  Fmt.pf ppf "VERIFICATION ENGINE:@.";
  Fmt.pf ppf "  cache:  %d lookups, %d hits (%.1f%%), %d entries, %d evictions@." lookups
    s.Veriopt_alive.Vcache.hits
    (pct s.Veriopt_alive.Vcache.hits lookups)
    s.Veriopt_alive.Vcache.entries s.Veriopt_alive.Vcache.evictions;
  Fmt.pf ppf
    "  tiers:  %d concrete counterexamples (%.2fs in tier 1), %d SMT runs (%.2fs in tier 2)@."
    s.Veriopt_alive.Vcache.tier1_hits s.Veriopt_alive.Vcache.tier1_seconds
    s.Veriopt_alive.Vcache.tier2_runs s.Veriopt_alive.Vcache.tier2_seconds;
  if s.Veriopt_alive.Vcache.tier1_ewma_s > 0. || s.Veriopt_alive.Vcache.tier2_ewma_s > 0. then
    Fmt.pf ppf "  ewma:   tier-1 %.2fms, tier-2 %.2fms per run (admission price signal)@."
      (s.Veriopt_alive.Vcache.tier1_ewma_s *. 1e3)
      (s.Veriopt_alive.Vcache.tier2_ewma_s *. 1e3);
  Fmt.pf ppf "  sat:    %d checks, %d conflicts, %d decisions, %d propagations, %d restarts@."
    sat.Veriopt_smt.Solver.checks sat.Veriopt_smt.Solver.conflicts
    sat.Veriopt_smt.Solver.decisions sat.Veriopt_smt.Solver.propagations
    sat.Veriopt_smt.Solver.restarts;
  Fmt.pf ppf "  sat-db: %d learned, %d deleted in %d reductions, peak live DB %d@."
    sat.Veriopt_smt.Solver.learned sat.Veriopt_smt.Solver.deleted
    sat.Veriopt_smt.Solver.reductions sat.Veriopt_smt.Solver.db_peak;
  if sat.Veriopt_smt.Solver.sessions > 0 then
    Fmt.pf ppf "  sat-sess: %d incremental sessions, %d reused checks@."
      sat.Veriopt_smt.Solver.sessions sat.Veriopt_smt.Solver.session_reuse;
  if sat.Veriopt_smt.Solver.learned > 0 then begin
    Fmt.pf ppf "  lbd:    ";
    Array.iteri
      (fun i n ->
        let label =
          if i = Array.length sat.Veriopt_smt.Solver.lbd_hist - 1 then Fmt.str "%d+" (i + 1)
          else string_of_int (i + 1)
        in
        Fmt.pf ppf "%s:%d " label n)
      sat.Veriopt_smt.Solver.lbd_hist;
    Fmt.pf ppf "@."
  end;
  (let ic_runs = Atomic.get Veriopt_passes.Instcombine.runs_total in
   if ic_runs > 0 then
     Fmt.pf ppf
       "  passes: %d instcombine runs, %d rewrites, %d fuel-exhausted; fold engine %d passes, \
        %d restarts, %d phi-barrier hits@."
       ic_runs
       (Atomic.get Veriopt_passes.Instcombine.rewrites_total)
       (Atomic.get Veriopt_passes.Instcombine.fuel_exhausted_total)
       (Atomic.get Veriopt_passes.Fold_engine.passes_total)
       (Atomic.get Veriopt_passes.Fold_engine.restarts_total)
       (Atomic.get Veriopt_passes.Fold_engine.barrier_hits_total));
  (let p = Veriopt_alive.Engine.pain_stats engine in
   if p.Veriopt_alive.Engine.probes > 0 then
     Fmt.pf ppf
       "  pain:   %d probes, %d inconclusive, %d deadline-expired, %.2fs wall (max %.0fms)@."
       p.Veriopt_alive.Engine.probes p.Veriopt_alive.Engine.probe_inconclusive
       p.Veriopt_alive.Engine.probe_deadline_expired p.Veriopt_alive.Engine.probe_wall_s
       (p.Veriopt_alive.Engine.probe_max_wall_s *. 1e3));
  (match Veriopt_alive.Engine.store_stats engine with
  | None -> ()
  | Some st ->
    Fmt.pf ppf
      "  store:  %d hits, %d misses, %d writes, %d corrupt entries skipped, %d stale-version \
       skips (%d entries, %d segments%s)@."
      st.Veriopt_store.Store.hits st.Veriopt_store.Store.misses st.Veriopt_store.Store.writes
      st.Veriopt_store.Store.corrupt_entries st.Veriopt_store.Store.stale_version_skips
      st.Veriopt_store.Store.entries st.Veriopt_store.Store.segments
      (if st.Veriopt_store.Store.read_only then ", read-only" else ""));
  (let ef = Veriopt_rl.Reward.engine_failures () in
   if ef > 0 then Fmt.pf ppf "  reward: %d engine failures absorbed as inconclusive@." ef);
  (let vp = Veriopt_vproc.Vproc.stats () in
   if vp.Veriopt_vproc.Vproc.spawned > 0 then
     Fmt.pf ppf "  vproc:  %d workers spawned (%d respawns), %d killed, %d crashed, %d frames@."
       vp.Veriopt_vproc.Vproc.spawned vp.Veriopt_vproc.Vproc.respawned
       vp.Veriopt_vproc.Vproc.killed vp.Veriopt_vproc.Vproc.crashed
       vp.Veriopt_vproc.Vproc.frames);
  Fmt.pf ppf "  pool:   VERIOPT_JOBS=%d@." (Veriopt_par.Par.shared_jobs ())

(* ------------------------------------------------------------------ *)

(** Serving-layer counters: queue depths, shed/coalesce/admission behavior
    and per-priority service latency — how overload was absorbed. *)
let serve_stats ppf (s : Veriopt_serve.Serve.stats) =
  let module S = Veriopt_serve.Serve in
  Fmt.pf ppf "SERVING LAYER:@.";
  Fmt.pf ppf "  submitted: %d interactive, %d bulk; %d waiters completed, %d engine calls@."
    s.S.submitted_interactive s.S.submitted_bulk s.S.completed s.S.engine_calls;
  Fmt.pf ppf "  coalesce:  %d waiters shared an in-queue entry@." s.S.coalesced;
  Fmt.pf ppf "  admission: %d refused on deadline@." s.S.admission_refused;
  Fmt.pf ppf "  shed:      %d queue-full, %d displaced, %d expired in queue, %d at drain@."
    s.S.shed_queue_full s.S.shed_displaced s.S.shed_expired s.S.shed_drain;
  Fmt.pf ppf "  queue:     depth %d interactive / %d bulk (max %d), %d in flight@."
    s.S.depth_interactive s.S.depth_bulk s.S.depth_max s.S.inflight;
  if s.S.rejected_draining > 0 || s.S.client_disconnects > 0 then
    Fmt.pf ppf "  drain:     %d refused while draining, %d client disconnects@."
      s.S.rejected_draining s.S.client_disconnects;
  Fmt.pf ppf "  service:   ewma %.2fms interactive, %.2fms bulk@."
    (s.S.service_ewma_interactive_s *. 1e3)
    (s.S.service_ewma_bulk_s *. 1e3);
  if s.S.store_hits > 0 || s.S.store_misses > 0 then
    Fmt.pf ppf "  store:     %d hits, %d misses served through the disk tier@." s.S.store_hits
      s.S.store_misses
