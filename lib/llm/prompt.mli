(** Prompt templates (the paper's Figs. 1 and 2) and completion parsing. *)

type mode = Generic | Augmented

val generic_template : string -> string
(** Fig. 1: the one-shot generic prompt around the input IR. *)

type output = {
  think : (string * string option) option;
      (** first attempt and optional self-diagnosis; [None] in generic mode *)
  answer : string;
  well_formed : bool;  (** whether the <answer> wrapper is emitted correctly *)
}

val render : output -> string

val extract_tag : string -> string -> string option
val format_ok : string -> bool
(** The [t_i] term of Eq. 1. *)

val answer_of : string -> string option
val think_of : string -> string option
