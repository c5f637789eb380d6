(** The surrogate policy standing in for the fine-tuned LLM.

    A completion is a sequence of structured choices — edit actions over the
    input function, a format-compliance choice, and (in augmented mode) a
    self-diagnosis — each drawn from a softmax over learnable logits, so
    [log pi] is exact and differentiable: all SFT and GRPO need.

    Three non-trainable properties model LLM phenomenology: deterministic
    input-dependent noise (prompt sensitivity), frozen parameters (rules
    beyond the model's capacity), and an irreducible per-step hallucination
    floor. *)

module Ast = Veriopt_ir.Ast

type t = {
  name : string;
  theta : (string, float ref) Hashtbl.t;
  frozen : (string, unit) Hashtbl.t;
  noise_scale : float;
  temperature : float;
  halluc_rate : float;
  pass_size_limit : int;
}

val create :
  ?noise_scale:float -> ?temperature:float -> ?halluc_rate:float -> ?pass_size_limit:int ->
  string -> t

val freeze : t -> string -> unit
val is_frozen : t -> string -> bool

val param : t -> string -> float ref
val get : t -> string -> float
val set : t -> string -> float -> unit

val clone : ?name:string -> ?noise_scale:float -> ?halluc_rate:float -> t -> t
(** Deep copy; fine-tuned clones typically sharpen (lower noise) and, for
    verifier-feedback stages, halve the hallucination floor. *)

(** {1 Scoring and decisions} *)

val keys_of_action : Actions.action -> string list
(** Rule keys are shared lists from a table built when the module
    initialises; a rule outside {!Veriopt_passes.Instcombine.all_rules}
    gets family ["fold"]. *)

val noise : t -> sample_id:int -> string -> float
(** The deterministic input-dependent pseudo-noise of one signature: a
    value in the range from -1 to 1, scaled by [noise_scale]. *)

type avail = { action : Actions.action; signature : string; keys : string list }
(** One offered choice; [signature] is [Actions.action_to_string action],
    computed once. *)

val score : t -> sample_id:int -> avail -> float

type step = { keys : string list array; probs : float array; chosen : int }
(** One recorded decision: sufficient statistics for [d log pi / d theta]. *)

val softmax : float -> float array -> float array

val choose : t -> rng:Random.State.t option -> sample_id:int -> avail list -> int * step
(** Greedy when [rng] is [None]. *)

val available :
  ?mask:string list -> ?size_limit:int -> first:bool -> Ast.modul -> Ast.func -> avail list
(** The choices offered at one point of an attempt; [mask] removes
    signatures. *)

val mask_of_evidence : Diag.self_evidence -> string list
(** The signatures a retry masks out after diagnosing its first attempt. *)

val format_avail : avail list
val diag_avail : Diag.self_evidence -> avail list

(** {1 Rollouts and full generations} *)

val max_edit_steps : int

type attempt = {
  out_func : Ast.func;
  corruption : Actions.corruption option;
  copied : bool;
  evidence : Diag.self_evidence;
  attempt_steps : step list;
  actions_taken : Actions.action list;
}

val rollout_attempt :
  t -> rng:Random.State.t option -> sample_id:int -> ?mask:string list -> Ast.modul -> Ast.func ->
  attempt

val attempt_text : t -> sample_id:int -> attempt -> string

type generation = {
  completion : string;
  answer_text : string option;
  steps : step list;
  claimed : Diag.error_class option;
  evidence : Diag.self_evidence;
  copied : bool;
  first_attempt : attempt;
  final_attempt : attempt;
}

val generate :
  t -> mode:Prompt.mode -> rng:Random.State.t option -> sample_id:int -> Ast.modul -> Ast.func ->
  generation
