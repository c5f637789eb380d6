(** Indexed max-heap over variable activities: the VSIDS decision order. *)

type t

val create : capacity:int -> score:(int -> float) -> t
val in_heap : t -> int -> bool
val is_empty : t -> bool
val size : t -> int
val insert : t -> int -> unit
val pop_max : t -> int

val notify_increase : t -> int -> unit
