(** Bit-precise arithmetic at widths 1..64.

    Values are carried in [int64] in canonical unsigned form (bits above the
    width are zero).  Every operation takes the width first.  The overflow
    and poison predicates here are the single source of truth shared by the
    interpreter, the constant folder, the verifier encoder and the rule
    catalog. *)

val mask : int -> int64 -> int64
(** Canonicalize to [w] bits. *)

val to_signed : int -> int64 -> int64
(** Sign-extend a canonical [w]-bit value to a full [int64]. *)

val of_int : int -> int -> int64

val min_signed : int -> int64
val max_signed : int -> int64
val all_ones : int -> int64

(** {1 Wrapping arithmetic} *)

val add : int -> int64 -> int64 -> int64
val sub : int -> int64 -> int64 -> int64
val mul : int -> int64 -> int64 -> int64
val neg : int -> int64 -> int64
val logand : int -> int64 -> int64 -> int64
val logor : int -> int64 -> int64 -> int64
val logxor : int -> int64 -> int64 -> int64
val lognot : int -> int64 -> int64

val udiv : int -> int64 -> int64 -> int64
(** Unsigned division; division by zero is the caller's UB to rule out. *)

val urem : int -> int64 -> int64 -> int64

val sdiv : int -> int64 -> int64 -> int64
(** Signed division truncating toward zero.  The caller must rule out
    [b = 0] and the [min_signed / -1] overflow (both UB in LLVM). *)

val srem : int -> int64 -> int64 -> int64

val shl : int -> int64 -> int64 -> int64
val lshr : int -> int64 -> int64 -> int64
val ashr : int -> int64 -> int64 -> int64

val shift_amount_poison : int -> int64 -> bool
(** A shift amount [>= w] makes the shift's result poison in LLVM. *)

(** {1 Comparisons} *)

val ult : int -> int64 -> int64 -> bool
val ule : int -> int64 -> int64 -> bool
val slt : int -> int64 -> int64 -> bool
val sle : int -> int64 -> int64 -> bool

(** {1 Flag-violation predicates (nsw / nuw / exact)} *)

val add_nuw_overflow : int -> int64 -> int64 -> bool
val add_nsw_overflow : int -> int64 -> int64 -> bool
val sub_nuw_overflow : int -> int64 -> int64 -> bool
val sub_nsw_overflow : int -> int64 -> int64 -> bool
val mul_nuw_overflow : int -> int64 -> int64 -> bool
val mul_nsw_overflow : int -> int64 -> int64 -> bool
val shl_nuw_overflow : int -> int64 -> int64 -> bool
val shl_nsw_overflow : int -> int64 -> int64 -> bool
val udiv_exact_violation : int -> int64 -> int64 -> bool
val sdiv_exact_violation : int -> int64 -> int64 -> bool
val lshr_exact_violation : int -> int64 -> int64 -> bool
val ashr_exact_violation : int -> int64 -> int64 -> bool

val sdiv_overflow : int -> int64 -> int64 -> bool
(** [min_signed / -1]: immediate UB for sdiv/srem. *)

(** {1 Casts and bit queries} *)

val trunc : int -> int -> int64 -> int64
val zext : int -> int -> int64 -> int64
val sext : int -> int -> int64 -> int64

val is_power_of_two : int -> int64 -> bool
val log2 : int -> int64 -> int
val popcount : int -> int64 -> int
val bit : int -> int64 -> int -> bool
