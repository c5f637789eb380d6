(** Bit-blasting of {!Expr} terms to CNF over the {!Sat} solver: bitvectors
    become little-endian literal arrays; gates go through Tseitin.
    Arithmetic uses ripple-carry adders, a shift-add multiplier, barrel
    shifters and a restoring divider. *)

type ctx = {
  sat : Sat.t;
  true_lit : int;
  bool_memo : (int, int) Hashtbl.t;
  bv_memo : (int, int array) Hashtbl.t;
  bv_vars : (string, int array) Hashtbl.t;
  bool_vars : (string, int) Hashtbl.t;
}

val create : unit -> ctx

val blast_bool : ctx -> Expr.t -> int
val blast_bv : ctx -> Expr.t -> int array

val assert_term : ctx -> Expr.t -> unit

val bv_model_value : ctx -> string -> (int * int64) option
val bool_model_value : ctx -> string -> bool option
