(** The four-model training pipeline of the paper's Fig. 3. *)

module Model = Veriopt_llm.Model
module Suite = Veriopt_data.Suite

type options = {
  grpo_steps : int;
  group_size : int;
  learning_rate : float;
  sft_epochs : int;
  seed : int;
  max_conflicts : int;
  verbose : bool;
  checkpoint_dir : string option;
      (** write a {!Checkpoint} snapshot per stage when set (default off) *)
  checkpoint_every : int;
      (** snapshot period in GRPO steps (default 25; [0] = only at stage end) *)
  resume : bool;
      (** start each stage from its snapshot in [checkpoint_dir] when one
          exists; the resumed trajectory is bit-identical to an
          uninterrupted run *)
  verify_timeout : float option;
      (** per-candidate verification wall-clock budget in seconds *)
  isolate : Veriopt_alive.Engine.isolate option;
      (** tier-2 verification backend for stages run without an explicit
          [engine]: [Some Proc] gives each stage a dedicated engine whose
          SMT queries run in forked, SIGKILL-able workers; [None] (default)
          defers to the engine's own [VERIOPT_ISOLATE] resolution *)
}

val default_options : options

type stage_log = { raw_rewards : float list; ema_rewards : float list }

(** {1 Stage 1 — Model-Zero}

    GRPO on the base model with generic prompts.  Doubles as the
    diagnostic-augmented sample generator: every failed rollout is harvested
    with Alive's verdict and message. *)

type stage1_result = {
  model_zero : Model.t;
  failures : Sft.failure_record list;
  zero_log : stage_log;
}

val train_model_zero :
  ?opts:options ->
  ?engine:Veriopt_alive.Engine.t ->
  Model.t ->
  Suite.sample list ->
  stage1_result
(** Group verification runs on the shared Par pool through [engine]
    (default: {!Veriopt_alive.Engine.shared}). *)

(** {1 Stage 2 — Warm-up and Model-Correctness} *)

val warm_up : ?opts:options -> Model.t -> Suite.sample list -> Sft.failure_record list -> Model.t
(** SFT from the pretrained base on first-time + correction samples. *)

val sft_baseline : ?opts:options -> Model.t -> Suite.sample list -> Model.t
(** SFT-only comparators (the paper's Fig. 5 baselines), generic prompts. *)

type stage2_result = { model_correctness : Model.t; correctness_log : stage_log }

val train_correctness :
  ?opts:options ->
  ?engine:Veriopt_alive.Engine.t ->
  Model.t ->
  Suite.sample list ->
  stage2_result
(** GRPO with augmented prompts; reward = Eq. 1 (answer) + Eq. 2 (CoT). *)

(** {1 Stage 3 — Model-Latency} *)

type stage3_result = { model_latency : Model.t; latency_log : stage_log }

val train_latency :
  ?opts:options ->
  ?engine:Veriopt_alive.Engine.t ->
  Model.t ->
  Suite.sample list ->
  stage3_result
(** Incremental GRPO with the latency reward; labels dropped, correctness
    kept in the reward through the verifier. *)

type pipeline_result = {
  base : Model.t;
  stage1 : stage1_result;
  warm : Model.t;
  stage2 : stage2_result;
  stage3 : stage3_result;
}

val full_pipeline :
  ?opts:options ->
  ?engine:Veriopt_alive.Engine.t ->
  Model.t ->
  Suite.sample list ->
  pipeline_result
