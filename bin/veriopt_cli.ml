(* The veriopt command-line tool.

   veriopt verify   <file.ll>          -- validate the 2nd function against the 1st
   veriopt opt      <file.ll>          -- run the handwritten instcombine pass
   veriopt llm-opt  <file.ll>          -- optimize with the trained model + fallback
   veriopt train                       -- run the four-model pipeline, report accuracy
   veriopt dataset                     -- build & describe a dataset sample
   veriopt cost     <file.ll>          -- report latency/icount/binsize per function
   veriopt serve                       -- run the verification service until SIGTERM
   veriopt replay                      -- open-loop overload replay against the service *)

open Cmdliner
module Alive = Veriopt_alive.Alive
module PM = Veriopt_passes.Pass_manager
module S = Veriopt_data.Suite
module Trainer = Veriopt_rl.Trainer

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_module path = Veriopt_ir.Parser.parse_module (read_file path)

let category_string = function
  | Alive.Equivalent -> "semantically equivalent"
  | Alive.Semantic_error -> "NOT equivalent (semantic error)"
  | Alive.Syntax_error -> "invalid IR (syntax error)"
  | Alive.Inconclusive -> "inconclusive"

let isolate_conv =
  Arg.enum [ ("proc", Veriopt_alive.Engine.Proc); ("domain", Veriopt_alive.Engine.Domains) ]

(* ------------------------------------------------------------------ *)

let verify_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ll") in
  let unroll =
    Arg.(
      value & opt int 4
      & info [ "unroll" ] ~docv:"BOUND"
          ~doc:"Loop unroll bound for bounded equivalence checking of cyclic pairs")
  in
  let sat_stats =
    Arg.(
      value & flag
      & info [ "sat-stats" ] ~doc:"Print SAT-core statistics (conflicts, clause DB, LBD) on stderr")
  in
  let isolate =
    Arg.(
      value
      & opt isolate_conv Veriopt_alive.Engine.Domains
      & info [ "isolate" ] ~docv:"BACKEND"
          ~doc:
            "Verification backend: $(b,domain) (in-process, default) or $(b,proc) (a forked \
             worker with hard SIGKILL deadlines and rlimit caps; also selectable via \
             VERIOPT_ISOLATE).  With $(b,proc), --sat-stats counts stay in the worker")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Verification wall-clock budget; past it the verdict is inconclusive (under \
             $(b,--isolate proc) the worker is SIGKILLed if it overruns)")
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Mount the shared disk-backed verdict store at $(docv): warm entries answer \
             without re-verifying, fresh cacheable verdicts are appended for later runs.  \
             Also selectable via VERIOPT_STORE")
  in
  let run file unroll sat_stats isolate timeout store =
    let m = load_module file in
    match m.Veriopt_ir.Ast.funcs with
    | [ src; tgt ] | src :: tgt :: _ ->
      let module Solver = Veriopt_smt.Solver in
      Solver.reset_stats ();
      let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
      (* the env form must also route through the engine, or the default
         in-process path would silently bypass the store *)
      let store =
        match store with
        | Some _ as s -> s
        | None -> (
          match Sys.getenv_opt "VERIOPT_STORE" with
          | Some d when String.trim d <> "" -> Some d
          | _ -> None)
      in
      let with_engine e f =
        Fun.protect
          ~finally:(fun () ->
            (match Veriopt_alive.Engine.store_stats e with
            | Some st ->
              let module St = Veriopt_store.Store in
              Fmt.epr "store: %d hits, %d misses, %d writes, %d corrupt, %d stale-version@."
                st.St.hits st.St.misses st.St.writes st.St.corrupt_entries
                st.St.stale_version_skips
            | None -> ());
            Veriopt_alive.Engine.shutdown e)
          (fun () -> f e)
      in
      let v =
        match (isolate, store) with
        | Veriopt_alive.Engine.Domains, None -> Alive.verify_funcs ~unroll ?deadline m ~src ~tgt
        | iso, store ->
          (* tier 1 off so the verdict comes from the same SMT path as the
             direct call above, just behind the process boundary (and/or
             through the mounted verdict store) *)
          with_engine (Veriopt_alive.Engine.create ~tier1_samples:0 ~isolate:iso ?store ())
            (fun e -> Veriopt_alive.Engine.verify_funcs ~unroll ?deadline e m ~src ~tgt)
      in
      Fmt.pr "%s@.%s@." (category_string v.Alive.category) v.Alive.message;
      if sat_stats then begin
        let s = Solver.stats () in
        Fmt.epr "sat: %d checks, %d conflicts, %d decisions, %d propagations, %d restarts@."
          s.Solver.checks s.Solver.conflicts s.Solver.decisions s.Solver.propagations
          s.Solver.restarts;
        Fmt.epr "sat-db: %d learned, %d deleted in %d reductions, peak live DB %d@."
          s.Solver.learned s.Solver.deleted s.Solver.reductions s.Solver.db_peak;
        if s.Solver.sessions > 0 then
          Fmt.epr "sat-sess: %d incremental sessions, %d reused checks@." s.Solver.sessions
            s.Solver.session_reuse;
        if s.Solver.learned > 0 then begin
          Fmt.epr "lbd:";
          Array.iteri
            (fun i n ->
              if i = Array.length s.Solver.lbd_hist - 1 then Fmt.epr " %d+:%d" (i + 1) n
              else Fmt.epr " %d:%d" (i + 1) n)
            s.Solver.lbd_hist;
          Fmt.epr "@."
        end
      end;
      if v.Alive.category = Alive.Equivalent then 0 else 1
    | _ ->
      Fmt.epr "error: FILE.ll must contain two function definitions (source, target)@.";
      2
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Check that the second function of FILE.ll refines the first")
    Term.(
      const run $ file $ unroll $ sat_stats $ isolate $ timeout $ store)

let opt_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ll") in
  let aggressive =
    Arg.(value & flag & info [ "aggressive" ] ~doc:"Also run mem2reg and simplifycfg")
  in
  let run file aggressive =
    let m = load_module file in
    List.iter
      (fun f ->
        let f', trace =
          if aggressive then PM.aggressive m f else PM.instcombine m f
        in
        Fmt.pr "%s" (Veriopt_ir.Printer.func_to_string f');
        Fmt.epr "; %d rewrites applied to @%s@." (List.length trace) f.Veriopt_ir.Ast.fname)
      m.Veriopt_ir.Ast.funcs;
    0
  in
  Cmd.v
    (Cmd.info "opt" ~doc:"Run the handwritten peephole optimizer over every function")
    Term.(const run $ file $ aggressive)

let llm_opt_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ll") in
  let train_n =
    Arg.(value & opt int 120 & info [ "train-samples" ] ~doc:"Training set size")
  in
  let steps = Arg.(value & opt int 150 & info [ "grpo-steps" ] ~doc:"GRPO steps per stage") in
  let run file train_n steps =
    let m = load_module file in
    Fmt.epr "training the pipeline (%d samples, %d GRPO steps per stage)...@." train_n steps;
    let train = (S.training ~n:train_n ()).S.samples in
    let opts = { Trainer.default_options with Trainer.grpo_steps = steps } in
    let result = Trainer.full_pipeline ~opts (Veriopt_llm.Capability.base_3b ()) train in
    let model = result.Trainer.stage3.Trainer.model_latency in
    List.iter
      (fun f ->
        let o = Veriopt.Backend.optimize model m f in
        Fmt.pr "%s" (Veriopt_ir.Printer.func_to_string o.Veriopt.Backend.output);
        Fmt.epr "; @%s: %s%s@." f.Veriopt_ir.Ast.fname
          (category_string o.Veriopt.Backend.verdict.Alive.category)
          (if o.Veriopt.Backend.used_model then "" else " -- fell back to the input"))
      m.Veriopt_ir.Ast.funcs;
    0
  in
  Cmd.v
    (Cmd.info "llm-opt"
       ~doc:"Train Model-Latency, then optimize FILE.ll with verified fallback")
    Term.(const run $ file $ train_n $ steps)

let train_cmd =
  let train_n = Arg.(value & opt int 140 & info [ "train-samples" ] ~doc:"Training set size") in
  let val_n = Arg.(value & opt int 200 & info [ "val-samples" ] ~doc:"Validation set size") in
  let steps = Arg.(value & opt int 160 & info [ "grpo-steps" ] ~doc:"GRPO steps per stage") in
  let checkpoint_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:"Write a per-stage training snapshot into $(docv) every N GRPO steps")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 25
      & info [ "checkpoint-every" ]
          ~doc:"Snapshot period in GRPO steps (0: only at stage end)")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume each stage from its snapshot in --checkpoint-dir; the resumed \
             trajectory is bit-identical to an uninterrupted run")
  in
  let verify_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "verify-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-candidate verification wall-clock budget (verdict: inconclusive)")
  in
  let isolate =
    Arg.(
      value
      & opt (some isolate_conv) None
      & info [ "isolate" ] ~docv:"BACKEND"
          ~doc:
            "Tier-2 verification backend for the reward path: $(b,proc) forks a worker pool \
             with hard SIGKILL deadlines, $(b,domain) runs in-process (default; also \
             selectable via VERIOPT_ISOLATE)")
  in
  let run train_n val_n steps checkpoint_dir checkpoint_every resume verify_timeout isolate =
    if resume && checkpoint_dir = None then begin
      Fmt.epr "error: --resume requires --checkpoint-dir@.";
      exit 2
    end;
    let scale =
      {
        Veriopt.Pipeline.quick with
        Veriopt.Pipeline.n_train = train_n;
        n_validation = val_n;
        opts =
          {
            Trainer.default_options with
            Trainer.grpo_steps = steps;
            verbose = true;
            checkpoint_dir;
            checkpoint_every;
            resume;
            verify_timeout;
            isolate;
          };
      }
    in
    let a = Veriopt.Pipeline.build ~scale ~progress:(Fmt.epr "%s@.") () in
    let ev = Veriopt.Evaluate.run a.Veriopt.Pipeline.pipeline.Trainer.stage3.Trainer.model_latency
        a.Veriopt.Pipeline.validation
    in
    Veriopt.Report.table1 Fmt.stdout ev;
    0
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Run the four-model training pipeline and report accuracy")
    Term.(
      const run $ train_n $ val_n $ steps $ checkpoint_dir $ checkpoint_every $ resume
      $ verify_timeout $ isolate)

let dataset_cmd =
  let n = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Number of samples") in
  let run n =
    let ds = S.validation ~n () in
    Fmt.pr "%a@." S.pp_stats ds.S.stats;
    (match ds.S.samples with
    | s :: _ ->
      Fmt.pr "--- sample -O0 source:@.%s@." s.S.src_text;
      Fmt.pr "--- instcombine label:@.%s@." s.S.label_text
    | [] -> ());
    0
  in
  Cmd.v (Cmd.info "dataset" ~doc:"Build a dataset slice and show one sample") Term.(const run $ n)

let cost_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ll") in
  let run file =
    let m = load_module file in
    Fmt.pr "%-20s %10s %10s %10s@." "function" "latency" "icount" "binsize";
    List.iter
      (fun f ->
        Fmt.pr "%-20s %10d %10d %10d@." f.Veriopt_ir.Ast.fname
          (Veriopt_cost.Latency.of_func f)
          (Veriopt_cost.Icount.of_func f)
          (Veriopt_cost.Binsize.of_func ~modul:m f))
      m.Veriopt_ir.Ast.funcs;
    0
  in
  Cmd.v (Cmd.info "cost" ~doc:"Report the cost-model metrics of every function") Term.(const run $ file)

(* ------------------------------------------------------------------ *)
(* Serving: an Engine behind the overload-safe front end *)

module Serve = Veriopt_serve.Serve
module Traffic = Veriopt_serve.Traffic
module Workload = Veriopt_serve.Workload
module Fault = Veriopt_fault.Fault

let serve_args =
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc:"Dispatcher thread count")
  in
  let capacity =
    Arg.(
      value & opt int 256
      & info [ "capacity" ] ~docv:"N" ~doc:"Bounded request-queue capacity (shed past it)")
  in
  let rate =
    Arg.(
      value & opt float 100.
      & info [ "rate" ] ~docv:"RPS" ~doc:"Open-loop arrival rate, requests per second")
  in
  let interactive_share =
    Arg.(
      value & opt float 0.25
      & info [ "interactive-share" ] ~docv:"FRAC"
          ~doc:"Fraction of arrivals in the $(b,interactive) priority class")
  in
  let dup_share =
    Arg.(
      value & opt float 0.3
      & info [ "dup-share" ] ~docv:"FRAC"
          ~doc:
            "Fraction of arrivals replaying a recent query (half verbatim, half \
             alpha-renamed) — exercises in-queue coalescing")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Chaos fault spec (same grammar as VERIOPT_FAULTS), e.g. \
             $(b,seed=5,worker_hang=0.03,queue_full=0.01)")
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Mount the shared disk-backed verdict store at $(docv); all dispatchers share \
             its warm entries and append fresh verdicts for later runs")
  in
  (workers, capacity, rate, interactive_share, dup_share, faults, store)

let make_service ~workers ~capacity ?store () =
  let engine =
    Veriopt_alive.Engine.create ~tier1_samples:4 ~isolate:Veriopt_alive.Engine.Proc ?store ()
  in
  let config =
    { Serve.default_config with Serve.queue_capacity = capacity; workers = max 1 workers }
  in
  Serve.create ~config ~engine ()

let traffic_cfg ?(source = Workload.Synthetic) ~rate ~duration_s ~seed ~interactive_share
    ~dup_share (config : Serve.config) =
  {
    Traffic.rate;
    duration_s;
    seed;
    interactive_share;
    interactive_deadline_s = config.Serve.interactive_deadline_s;
    bulk_deadline_s = config.Serve.bulk_deadline_s;
    dup_share;
    source;
  }

let configure_faults = function
  | None -> true
  | Some spec -> (
    match Fault.configure_string spec with
    | Ok () -> true
    | Error e ->
      Fmt.epr "error: bad fault spec: %s@." e;
      false)

let serve_cmd =
  let workers, capacity, rate, interactive_share, dup_share, faults, store = serve_args in
  let run workers capacity rate interactive_share dup_share faults store =
    if not (configure_faults faults) then 2
    else begin
      let sv = make_service ~workers ~capacity ?store () in
      Serve.install_signal_handlers sv;
      Fmt.epr
        "veriopt serve: %d dispatchers, queue capacity %d, self-traffic at %.0f req/s; \
         SIGTERM/SIGINT drains@."
        workers capacity rate;
      (* 1 s traffic windows until a signal asks for drain; each window's
         seed advances so the query stream doesn't repeat *)
      let window = ref 0 in
      while not (Serve.drain_requested sv) do
        incr window;
        let cfg =
          traffic_cfg ~rate ~duration_s:1.0 ~seed:(1000 + !window) ~interactive_share
            ~dup_share (Serve.config sv)
        in
        let s = Traffic.run sv cfg in
        Fmt.epr "window %d: offered %d, answered %d, rejected %d, p99i %.1fms@." !window
          s.Traffic.offered s.Traffic.answered s.Traffic.rejected s.Traffic.p99_interactive_ms
      done;
      Fault.disable ();
      let report = Serve.drain ~timeout:10. sv in
      Fmt.pr "@.drained: %d waiters force-shed, %d orphaned workers@." report.Serve.forced_shed
        report.Serve.drain_orphans;
      Veriopt.Report.serve_stats Fmt.stdout (Serve.stats sv);
      Veriopt.Report.engine_stats Fmt.stdout (Serve.engine sv);
      if report.Serve.drain_orphans = 0 then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verification service under open-loop self-traffic until SIGTERM/SIGINT, \
          then drain gracefully")
    Term.(
      const run $ workers $ capacity $ rate $ interactive_share $ dup_share $ faults $ store)

let replay_cmd =
  let workers, capacity, rate, interactive_share, dup_share, faults, store = serve_args in
  let duration =
    Arg.(
      value & opt float 2.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Open-loop generation window")
  in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Replayable arrival schedule seed") in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"Also write the summary as flat JSON to $(docv)")
  in
  let run workers capacity rate interactive_share dup_share faults store duration seed json =
    if not (configure_faults faults) then 2
    else begin
      let sv = make_service ~workers ~capacity ?store () in
      let cfg =
        traffic_cfg ~rate ~duration_s:duration ~seed ~interactive_share ~dup_share
          (Serve.config sv)
      in
      Fmt.epr "replaying %.1fs at %.0f req/s (seed %d)...@." duration rate seed;
      let summary = Traffic.run sv cfg in
      Fault.disable ();
      let report = Serve.drain ~timeout:10. sv in
      Traffic.pp_summary Fmt.stdout summary;
      Fmt.pr "drain: %d waiters force-shed, %d orphaned workers@." report.Serve.forced_shed
        report.Serve.drain_orphans;
      (match json with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc
          (Traffic.json_of_summary ~name:"replay"
             ~extra:
               [
                 ("forced_shed_at_drain", string_of_int report.Serve.forced_shed);
                 ("orphans_after_drain", string_of_int report.Serve.drain_orphans);
               ]
             summary);
        close_out oc;
        Fmt.epr "wrote %s@." path);
      if summary.Traffic.answered = summary.Traffic.offered && report.Serve.drain_orphans = 0
      then 0
      else 1
    end
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a seeded open-loop traffic mix against the service and report \
          latency/shed/coalesce outcomes")
    Term.(
      const run $ workers $ capacity $ rate $ interactive_share $ dup_share $ faults $ store
      $ duration $ seed $ json)

(* ------------------------------------------------------------------ *)
(* Adversarial mining and standing stress replay *)

module Corpus = Veriopt_adversary.Corpus
module Miner = Veriopt_adversary.Miner

let corpus_arg =
  Arg.(
    value
    & opt string "_corpus"
    & info [ "corpus" ] ~docv:"DIR" ~doc:"Crash-safe corpus directory (created if missing)")

let mine_cmd =
  let budget =
    Arg.(value & opt float 20. & info [ "budget" ] ~docv:"SECONDS" ~doc:"Wall budget for the mine loop")
  in
  let max_cases =
    Arg.(value & opt int 40 & info [ "max-cases" ] ~docv:"N" ~doc:"Stop after committing $(docv) cases")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Miner RNG seed") in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:"Chaos fault spec, e.g. $(b,seed=5,corpus_corrupt=0.05,miner_stall=0.02)")
  in
  let run dir budget max_cases seed faults =
    if not (configure_faults faults) then 2
    else begin
      let corpus = Corpus.load ~dir in
      Fmt.epr "mining into %s (budget %.0fs, seed %d)...@." dir budget seed;
      let cfg =
        { Miner.default_config with Miner.mc_seed = seed; mc_budget_s = budget; mc_max_cases = max_cases }
      in
      let r = Miner.mine ~cfg corpus in
      Fault.disable ();
      Miner.pp_result Fmt.stdout r;
      Fmt.pr "%a@." Corpus.pp_stats corpus;
      if r.Miner.r_committed_flips = 0 then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "mine"
       ~doc:
         "Mine pain-guided adversarial verification pairs into a crash-safe corpus \
          (minimized under a concrete-oracle guard)")
    Term.(const run $ corpus_arg $ budget $ max_cases $ seed $ faults)

let stress_cmd =
  let workers, capacity, rate, _interactive_share, _dup_share, faults, store = serve_args in
  let duration =
    Arg.(value & opt float 2.0 & info [ "duration" ] ~docv:"SECONDS" ~doc:"Open-loop generation window")
  in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Replayable arrival schedule seed") in
  let mix =
    Arg.(
      value & opt int 100
      & info [ "mix" ] ~docv:"PCT"
          ~doc:"Percent of arrivals drawn from the corpus; the rest use the synthetic generators")
  in
  let run workers capacity rate faults store dir duration seed mix =
    if not (configure_faults faults) then 2
    else begin
      let corpus = Corpus.load ~dir in
      let engine =
        Veriopt_alive.Engine.create ~tier1_samples:4 ~isolate:Veriopt_alive.Engine.Proc ?store ()
      in
      let config =
        { Serve.default_config with Serve.queue_capacity = capacity; workers = max 1 workers }
      in
      Fmt.epr "stress-replaying %s for %.1fs at %.0f req/s (mix %d%%)...@." dir duration rate mix;
      match Miner.stress ~seed ~rate ~duration_s:duration ~mix_pct:mix ~config ~engine corpus with
      | None ->
        Fmt.epr "error: corpus at %s decodes to zero queries@." dir;
        1
      | Some summary ->
        Fault.disable ();
        Traffic.pp_summary Fmt.stdout summary;
        Fmt.pr "%a@." Corpus.pp_stats corpus;
        Veriopt.Report.engine_stats Fmt.stdout engine;
        if summary.Traffic.answered > 0 then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Drive open-loop traffic replaying the mined corpus through the serving layer, \
          then drain gracefully")
    Term.(const run $ workers $ capacity $ rate $ faults $ store $ corpus_arg $ duration $ seed $ mix)

let () =
  let info =
    Cmd.info "veriopt" ~version:"1.0.0"
      ~doc:"Verification-guided reinforcement learning for LLM-based compiler optimization"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            verify_cmd;
            opt_cmd;
            llm_opt_cmd;
            train_cmd;
            dataset_cmd;
            cost_cmd;
            serve_cmd;
            replay_cmd;
            mine_cmd;
            stress_cmd;
          ]))
