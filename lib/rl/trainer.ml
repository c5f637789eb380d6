(** The paper's four-model training pipeline (Fig. 3):

    Stage 1 — MODEL-ZERO: GRPO on the base model with generic prompts.
    Rewards are sparse (most rollouts fail Alive), so the run doubles as a
    {e diagnostic-augmented sample generator}: every failed rollout is kept,
    with Alive's verdict and message, as a correction sample.

    Stage 2 — WARM-UP: SFT from the pretrained base on first-time samples
    (instcombine traces) plus Model-Zero's correction samples, teaching
    rudimentary Alive2 emulation.  Then MODEL-CORRECTNESS: GRPO with
    augmented prompts, reward = Eq. 1 (answer) + Eq. 2 (CoT agreement).

    Stage 3 — MODEL-LATENCY: incremental GRPO with the latency reward
    (Eq. 4), labels dropped, correctness kept in the reward via Alive. *)

module Model = Veriopt_llm.Model
module Prompt = Veriopt_llm.Prompt
module Diag = Veriopt_llm.Diag
module Alive = Veriopt_alive.Alive
module Suite = Veriopt_data.Suite
module Latency = Veriopt_cost.Latency
module Par = Veriopt_par.Par
module Fault = Veriopt_fault.Fault
module Engine = Veriopt_alive.Engine

(* Group scoring below runs on the Par pool: generation (which touches the
   model's parameter table) and GRPO updates stay sequential; only the
   verifier-bound reward computation — the hot path — fans out.  Rewards are
   deterministic and order-preserving, so training trajectories are
   identical at any pool size. *)

type options = {
  grpo_steps : int;
  group_size : int;
  learning_rate : float;
  sft_epochs : int;
  seed : int;
  max_conflicts : int;
  verbose : bool;
  checkpoint_dir : string option;
  checkpoint_every : int;
  resume : bool;
  verify_timeout : float option;
  isolate : Engine.isolate option;
}

let default_options =
  {
    grpo_steps = 150;
    group_size = 6;
    learning_rate = 0.6;
    sft_epochs = 4;
    seed = 1;
    max_conflicts = 40_000;
    verbose = false;
    checkpoint_dir = None;
    checkpoint_every = 25;
    resume = false;
    verify_timeout = None;
    isolate = None;
  }

(* An explicit engine wins; otherwise a requested isolation backend gets a
   dedicated engine (with its worker pool forked here, before the Par
   domains see traffic); otherwise the stage uses the shared default. *)
let resolve_engine ~(opts : options) engine =
  match (engine, opts.isolate) with
  | (Some _ as e), _ -> e
  | None, Some i -> Some (Engine.create ~isolate:i ())
  | None, None -> None

type stage_log = { raw_rewards : float list; ema_rewards : float list }

let log_of rewards = { raw_rewards = rewards; ema_rewards = Grpo.ema rewards }

let sample_at (samples : Suite.sample array) rng = samples.(Random.State.int rng (Array.length samples))

(* ------------------------------------------------------------------ *)
(* The shared GRPO stage loop: checkpoint/resume and the kill-simulation
   fault site live here so all three stages inherit them identically.

   The whole mutable footprint of one stage — model, RNG, last completed
   step, running metrics, stage 1's failure harvest — travels together as
   [Checkpoint.snapshot]; the per-step reward logic is a callback.  Resume
   restores the snapshot and continues the loop from [step + 1] with the
   identical RNG state, so the trajectory matches an uninterrupted run bit
   for bit. *)

type stage_state = {
  st_model : Model.t;
  st_rng : Random.State.t;
  mutable st_rewards_rev : float list;
  mutable st_failures_rev : Sft.failure_record list;
}

let run_stage ~(opts : options) ~(stage : string) ~(fresh : unit -> Model.t) ~(rng_salt : int)
    ~(step_fn : stage_state -> unit) : stage_state =
  let fresh_state () =
    ( {
        st_model = fresh ();
        st_rng = Random.State.make [| opts.seed; rng_salt |];
        st_rewards_rev = [];
        st_failures_rev = [];
      },
      0 )
  in
  let state, last_done =
    match opts.checkpoint_dir with
    | Some dir when opts.resume -> (
      match Checkpoint.load ~dir ~stage with
      | Ok snap ->
        if opts.verbose then Fmt.epr "[%s] resuming after step %d@." stage snap.Checkpoint.step;
        ( {
            st_model = snap.Checkpoint.model;
            st_rng = snap.Checkpoint.rng;
            st_rewards_rev = snap.Checkpoint.rewards_rev;
            st_failures_rev = snap.Checkpoint.failures_rev;
          },
          snap.Checkpoint.step )
      | Error reason ->
        if opts.verbose then Fmt.epr "[%s] starting fresh: %s@." stage reason;
        fresh_state ())
    | _ -> fresh_state ()
  in
  let save step =
    match opts.checkpoint_dir with
    | Some dir ->
      Checkpoint.save ~dir
        {
          Checkpoint.stage;
          step;
          model = state.st_model;
          rng = state.st_rng;
          rewards_rev = state.st_rewards_rev;
          failures_rev = state.st_failures_rev;
        }
    | None -> ()
  in
  for step = last_done + 1 to opts.grpo_steps do
    (* fault site: a simulated kill between steps; the checkpoints already
       on disk must carry a resumed run to the identical final state *)
    (match Fault.abort_after () with
    | Some last when step > last ->
      Fault.inject Fault.Trainer_abort ~site:(Fmt.str "%s.step%d" stage step)
    | _ -> ());
    step_fn state;
    if opts.checkpoint_every > 0 && step mod opts.checkpoint_every = 0 then save step;
    if opts.verbose && step mod 25 = 0 then
      Fmt.epr "[%s] step %d mean reward %.3f@." stage step
        (match state.st_rewards_rev with r :: _ -> r | [] -> nan)
  done;
  save opts.grpo_steps;
  state

(* ------------------------------------------------------------------ *)
(* Stage 1: Model-Zero *)

type stage1_result = {
  model_zero : Model.t;
  failures : Sft.failure_record list;
  zero_log : stage_log;
}

let train_model_zero ?(opts = default_options) ?engine (base : Model.t)
    (train : Suite.sample list) : stage1_result =
  let engine = resolve_engine ~opts engine in
  let samples = Array.of_list train in
  let rcfg = { Reward.default_config with Reward.timeout = opts.verify_timeout } in
  let cfg =
    {
      Grpo.group_size = opts.group_size;
      learning_rate = opts.learning_rate;
      clip_norm = 5.0;
      temperature = 1.0;
    }
  in
  let step_fn (st : stage_state) =
    let model = st.st_model and rng = st.st_rng in
    let s = sample_at samples rng in
    let group =
      List.init opts.group_size (fun _ ->
          Model.generate model ~mode:Prompt.Generic ~rng:(Some rng) ~sample_id:s.Suite.id
            s.Suite.modul s.Suite.src)
    in
    let verified =
      Par.run
        (fun (g : Model.generation) ->
          Reward.correctness_of_completion ~cfg:rcfg ?engine s.Suite.modul ~src:s.Suite.src
            ~label:s.Suite.label g.Model.completion)
        group
    in
    (* harvest failures as correction-augmented raw material (sequentially,
       so the record order matches the sequential implementation) *)
    List.iter2
      (fun (g : Model.generation) ((_, vc) : float * Reward.verified_candidate) ->
        match vc.Reward.verdict.Alive.category with
        | Alive.Semantic_error | Alive.Syntax_error when not g.Model.copied ->
          st.st_failures_rev <-
            {
              Sft.f_sample = s;
              bad_actions = g.Model.final_attempt.Model.actions_taken;
              f_evidence = g.Model.evidence;
              true_class =
                Diag.class_of_verdict_message
                  (match vc.Reward.verdict.Alive.category with
                  | Alive.Semantic_error -> `Semantic
                  | Alive.Syntax_error -> `Syntax
                  | Alive.Equivalent -> `Equivalent
                  | Alive.Inconclusive -> `Inconclusive)
                  vc.Reward.verdict.Alive.message;
              alive_message = vc.Reward.verdict.Alive.message;
            }
            :: st.st_failures_rev
        | _ -> ())
      group verified;
    let scored =
      List.map2
        (fun (g : Model.generation) (r, _) -> ({ Grpo.steps = g.Model.steps; reward = r }, r))
        group verified
    in
    let rs = Array.of_list (List.map snd scored) in
    let advs = Grpo.advantages rs in
    Grpo.update cfg model (List.mapi (fun i (r, _) -> (r, advs.(i))) scored);
    let mean = Array.fold_left ( +. ) 0. rs /. float_of_int (Array.length rs) in
    st.st_rewards_rev <- mean :: st.st_rewards_rev
  in
  let st =
    run_stage ~opts ~stage:"model-zero" ~rng_salt:11
      ~fresh:(fun () ->
        Model.clone ~name:"Model-Zero" ~noise_scale:(0.72 *. base.Model.noise_scale) base)
      ~step_fn
  in
  {
    model_zero = st.st_model;
    failures = List.rev st.st_failures_rev;
    zero_log = log_of (List.rev st.st_rewards_rev);
  }

(* ------------------------------------------------------------------ *)
(* Stage 2a: Warm-up (SFT) *)

let warm_up ?(opts = default_options) (base : Model.t) (train : Suite.sample list)
    (failures : Sft.failure_record list) : Model.t =
  let model = Model.clone ~name:"Warm-up" ~noise_scale:(0.72 *. base.Model.noise_scale) base in
  let first_time = List.map (Sft.first_time_datum ~augmented:true) train in
  let corrections = List.map Sft.correction_datum failures in
  let cfg = { Sft.default_config with Sft.epochs = opts.sft_epochs } in
  Sft.train cfg model (first_time @ corrections);
  model

(** SFT-only baselines (the paper's Fig. 5 comparators) train on generic
    prompts without the think/diagnose structure. *)
let sft_baseline ?(opts = default_options) (base : Model.t) (train : Suite.sample list) : Model.t
    =
  let model = Model.clone ~name:(base.Model.name ^ "-SFT") ~noise_scale:(0.72 *. base.Model.noise_scale) base in
  let data = List.map (Sft.first_time_datum ~augmented:false) train in
  let cfg = { Sft.default_config with Sft.epochs = opts.sft_epochs } in
  Sft.train cfg model data;
  model

(* ------------------------------------------------------------------ *)
(* Stage 2b: Model-Correctness *)

type stage2_result = { model_correctness : Model.t; correctness_log : stage_log }

let train_correctness ?(opts = default_options) ?engine (warm : Model.t)
    (train : Suite.sample list) : stage2_result =
  let engine = resolve_engine ~opts engine in
  let samples = Array.of_list train in
  let rcfg = { Reward.default_config with Reward.timeout = opts.verify_timeout } in
  let cfg =
    {
      Grpo.group_size = opts.group_size;
      learning_rate = opts.learning_rate;
      clip_norm = 5.0;
      temperature = 1.0;
    }
  in
  let step_fn (st : stage_state) =
    let model = st.st_model and rng = st.st_rng in
    let s = sample_at samples rng in
    let group =
      List.init opts.group_size (fun _ ->
          Model.generate model ~mode:Prompt.Augmented ~rng:(Some rng) ~sample_id:s.Suite.id
            s.Suite.modul s.Suite.src)
    in
    (* render think-attempt texts sequentially (touches the model), then
       fan the two verifier calls per completion out on the pool *)
    let prepped =
      List.map
        (fun (g : Model.generation) ->
          let cot =
            match g.Model.claimed with
            | None -> None
            | Some claimed ->
              Some (claimed, Model.attempt_text model ~sample_id:s.Suite.id g.Model.first_attempt)
          in
          (g, cot))
        group
    in
    let scored =
      Par.run
        (fun ((g : Model.generation), cot) ->
          let answer_r, _ =
            Reward.correctness_of_completion ~cfg:rcfg ?engine s.Suite.modul ~src:s.Suite.src
              ~label:s.Suite.label g.Model.completion
          in
          let cot_r =
            match cot with
            | None -> 0.
            | Some (claimed, think_attempt) ->
              Reward.cot_agreement ~cfg:rcfg ?engine s.Suite.modul ~src:s.Suite.src ~claimed
                ~think_attempt ~model_message:(Diag.message_of_class claimed)
          in
          let r = answer_r +. cot_r in
          ({ Grpo.steps = g.Model.steps; reward = r }, r))
        prepped
    in
    let rs = Array.of_list (List.map snd scored) in
    let advs = Grpo.advantages rs in
    Grpo.update cfg model (List.mapi (fun i (r, _) -> (r, advs.(i))) scored);
    let mean = Array.fold_left ( +. ) 0. rs /. float_of_int (Array.length rs) in
    st.st_rewards_rev <- mean :: st.st_rewards_rev
  in
  let st =
    run_stage ~opts ~stage:"model-correctness" ~rng_salt:22
      ~fresh:(fun () ->
        (* diagnostic-feedback GRPO teaches the model to avoid its own
           failure modes, lowering the irreducible hallucination floor --
           SFT alone cannot do this, which is why the paper's SFT baselines
           trail on correctness *)
        Model.clone ~name:"Model-Correctness" ~halluc_rate:(0.5 *. warm.Model.halluc_rate) warm)
      ~step_fn
  in
  { model_correctness = st.st_model; correctness_log = log_of (List.rev st.st_rewards_rev) }

(* ------------------------------------------------------------------ *)
(* Stage 3: Model-Latency *)

type stage3_result = { model_latency : Model.t; latency_log : stage_log }

let train_latency ?(opts = default_options) ?engine (correctness : Model.t)
    (train : Suite.sample list) : stage3_result =
  let engine = resolve_engine ~opts engine in
  let samples = Array.of_list train in
  let rcfg =
    {
      Reward.default_config with
      Reward.max_conflicts = opts.max_conflicts;
      Reward.timeout = opts.verify_timeout;
    }
  in
  let u_max = Reward.u_max_of_samples train in
  let cfg =
    {
      Grpo.group_size = opts.group_size;
      learning_rate = opts.learning_rate;
      clip_norm = 5.0;
      temperature = 1.0;
    }
  in
  let step_fn (st : stage_state) =
    let model = st.st_model and rng = st.st_rng in
    let s = sample_at samples rng in
    let baseline = Latency.of_func s.Suite.src in
    let group =
      List.init opts.group_size (fun _ ->
          Model.generate model ~mode:Prompt.Generic ~rng:(Some rng) ~sample_id:s.Suite.id
            s.Suite.modul s.Suite.src)
    in
    let scored =
      Par.run
        (fun (g : Model.generation) ->
          let vc =
            Reward.verify_completion ~cfg:rcfg ?engine s.Suite.modul ~src:s.Suite.src
              g.Model.completion
          in
          let equivalent = vc.Reward.verdict.Alive.category = Alive.Equivalent in
          let cand_latency =
            match vc.Reward.parsed with Some f -> Latency.of_func f | None -> baseline
          in
          (* labels are gone: format keeps shaping, Alive keeps correctness,
             speedup does the rest (Eq. 4) *)
          let r =
            (if Prompt.format_ok g.Model.completion then 0.2 else 0.)
            +. (if equivalent then 1.0 else 0.)
            +. Reward.latency ~u_max ~equivalent ~baseline ~candidate:cand_latency ()
          in
          ({ Grpo.steps = g.Model.steps; reward = r }, r))
        group
    in
    let rs = Array.of_list (List.map snd scored) in
    let advs = Grpo.advantages rs in
    Grpo.update cfg model (List.mapi (fun i (r, _) -> (r, advs.(i))) scored);
    let mean = Array.fold_left ( +. ) 0. rs /. float_of_int (Array.length rs) in
    st.st_rewards_rev <- mean :: st.st_rewards_rev
  in
  let st =
    run_stage ~opts ~stage:"model-latency" ~rng_salt:33
      ~fresh:(fun () ->
        Model.clone ~name:"Model-Latency" ~halluc_rate:(0.5 *. correctness.Model.halluc_rate)
          correctness)
      ~step_fn
  in
  { model_latency = st.st_model; latency_log = log_of (List.rev st.st_rewards_rev) }

(* ------------------------------------------------------------------ *)

type pipeline_result = {
  base : Model.t;
  stage1 : stage1_result;
  warm : Model.t;
  stage2 : stage2_result;
  stage3 : stage3_result;
}

(** Run the full four-model pipeline from a base model. *)
let full_pipeline ?(opts = default_options) ?engine (base : Model.t) (train : Suite.sample list)
    : pipeline_result =
  (* resolve once so all three stages share one engine (and worker pool) *)
  let engine = resolve_engine ~opts engine in
  let stage1 = train_model_zero ~opts ?engine base train in
  let warm = warm_up ~opts base train stage1.failures in
  let stage2 = train_correctness ~opts ?engine warm train in
  let stage3 = train_latency ~opts ?engine stage2.model_correctness train in
  { base; stage1; warm; stage2; stage3 }
