(** Supervised fine-tuning: maximize the policy's likelihood of teacher
    decision sequences — instcombine traces ("first-time" samples) and
    Model-Zero failures with their true diagnoses ("correction" samples). *)

module Model = Veriopt_llm.Model
module Actions = Veriopt_llm.Actions
module Diag = Veriopt_llm.Diag
module Suite = Veriopt_data.Suite

type datum = {
  modul : Veriopt_ir.Ast.modul;
  src : Veriopt_ir.Ast.func;
  attempt1 : Actions.action list;
  diagnosis : (Diag.self_evidence * Diag.error_class) option;
  attempt2 : Actions.action list option;
}

type failure_record = {
  f_sample : Suite.sample;
  bad_actions : Actions.action list;
  f_evidence : Diag.self_evidence;
  true_class : Diag.error_class;
  alive_message : string;
}

val teacher_edits : Veriopt_ir.Ast.modul -> Veriopt_ir.Ast.func -> Actions.action list
(** The instcombine driver's own action sequence for this input. *)

val first_time_datum : augmented:bool -> Suite.sample -> datum
val correction_datum : failure_record -> datum

(** {1 The decision tape}

    Neither the states a teacher sequence walks through nor the choices
    offered there depend on the parameters, so {!train} replays each datum
    once into a tape and every epoch only scores the tape. *)

type decision = {
  keys : string list array;  (** per offered choice *)
  noise : float array;  (** per offered choice, from {!Model.noise} *)
  target : int;  (** the teacher's choice *)
}

type tape = {
  sample_id : int;  (** hash of the printed source (the noise seed) *)
  decisions : decision list;
      (** the format choice, the first attempt, then (with a diagnosis) the
          diagnosis and the masked retry; a teacher action that is not
          offered leaves no decision *)
}

val tape_of_datum : Model.t -> datum -> tape
(** Noise is drawn with the given model's [noise_scale]. *)

type config = { epochs : int; learning_rate : float; clip_norm : float }

val default_config : config

val train : config -> Model.t -> datum list -> unit
