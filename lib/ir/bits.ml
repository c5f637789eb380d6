(** Bit-precise arithmetic at widths 1..64.

    Values are carried in [int64] in a canonical unsigned form: all bits above
    the width are zero.  Every operation takes the width [w] first.  Semantics
    follow the LLVM language reference; operations that can produce poison or
    trigger UB expose the corresponding overflow predicates so callers
    (interpreter, verifier encoder, instcombine) share one source of truth. *)

let mask w x =
  if w >= 64 then x else Int64.logand x (Int64.sub (Int64.shift_left 1L w) 1L)

(** Sign-extend a canonical [w]-bit value to a full [int64]. *)
let to_signed w x =
  if w >= 64 then x
  else
    let sign_bit = Int64.shift_left 1L (w - 1) in
    if Int64.logand x sign_bit <> 0L then
      Int64.logor x (Int64.lognot (Int64.sub (Int64.shift_left 1L w) 1L))
    else x

let of_int w x = mask w (Int64.of_int x)

let min_signed w = mask w (Int64.shift_left 1L (w - 1))
let max_signed w = mask w (Int64.sub (Int64.shift_left 1L (w - 1)) 1L)
let all_ones w = mask w Int64.minus_one

let add w a b = mask w (Int64.add a b)
let sub w a b = mask w (Int64.sub a b)
let mul w a b = mask w (Int64.mul a b)
let neg w a = mask w (Int64.neg a)
let logand _w a b = Int64.logand a b
let logor _w a b = Int64.logor a b
let logxor _w a b = Int64.logxor a b
let lognot w a = mask w (Int64.lognot a)

(** Unsigned division; division by zero is the caller's UB to detect. *)
let udiv w a b = mask w (Int64.unsigned_div a b)

let urem w a b = mask w (Int64.unsigned_rem a b)

(** Signed division truncating toward zero.  The caller must rule out
    [b = 0] and [a = min_signed && b = -1] (both UB in LLVM). *)
let sdiv w a b = mask w (Int64.div (to_signed w a) (to_signed w b))

let srem w a b = mask w (Int64.rem (to_signed w a) (to_signed w b))

(** Shifts: a shift amount [>= w] yields poison in LLVM; callers check
    [shift_amount_poison] first.  We still return a defined value (0) so the
    interpreter's poison bookkeeping stays separate from the raw arithmetic. *)
let shl w a s =
  let s = Int64.to_int s in
  if s >= w || s < 0 then 0L else mask w (Int64.shift_left a s)

let lshr w a s =
  let s = Int64.to_int s in
  if s >= w || s < 0 then 0L else mask w (Int64.shift_right_logical (mask w a) s)

let ashr w a s =
  let s = Int64.to_int s in
  if s >= w || s < 0 then 0L else mask w (Int64.shift_right (to_signed w a) s)

let shift_amount_poison w s = Int64.unsigned_compare s (Int64.of_int w) >= 0

let ult _w a b = Int64.unsigned_compare a b < 0
let ule _w a b = Int64.unsigned_compare a b <= 0
let slt w a b = Int64.compare (to_signed w a) (to_signed w b) < 0
let sle w a b = Int64.compare (to_signed w a) (to_signed w b) <= 0

(* Overflow predicates for the nsw/nuw/exact poison flags. *)

let add_nuw_overflow w a b = ult w (add w a b) a

let add_nsw_overflow w a b =
  let r = add w a b in
  let sa = to_signed w a and sb = to_signed w b and sr = to_signed w r in
  (sa >= 0L && sb >= 0L && sr < 0L) || (sa < 0L && sb < 0L && sr >= 0L)

let sub_nuw_overflow w a b = ult w a b

let sub_nsw_overflow w a b =
  let r = sub w a b in
  let sa = to_signed w a and sb = to_signed w b and sr = to_signed w r in
  (sa >= 0L && sb < 0L && sr < 0L) || (sa < 0L && sb >= 0L && sr >= 0L)

(* Overflow iff the true unsigned product exceeds [all_ones w]; checked as
   [b > (2^w - 1) / a] so it is exact even at width 64. *)
let mul_nuw_overflow w a b =
  a <> 0L && Int64.unsigned_compare b (Int64.unsigned_div (all_ones w) a) > 0

(* If no overflow, dividing the wrapped product by [b] recovers [a]; if
   overflow, it cannot (|b| <= 2^(w-1) < k * 2^w).  The [b = -1] and [a = -1]
   cases are split out so [sdiv] never sees the min/-1 trap. *)
let mul_nsw_overflow w a b =
  if a = 0L || b = 0L then false
  else if b = all_ones w then a = min_signed w
  else if a = all_ones w then b = min_signed w
  else to_signed w (sdiv w (mul w a b) b) <> to_signed w a

let shl_nuw_overflow w a s =
  shift_amount_poison w s || lshr w (shl w a s) s <> mask w a

let shl_nsw_overflow w a s =
  shift_amount_poison w s || to_signed w (ashr w (shl w a s) s) <> to_signed w a

let udiv_exact_violation w a b = b <> 0L && urem w a b <> 0L
let sdiv_exact_violation w a b = b <> 0L && srem w a b <> 0L
let lshr_exact_violation w a s = (not (shift_amount_poison w s)) && shl w (lshr w a s) s <> a
let ashr_exact_violation w a s = (not (shift_amount_poison w s)) && shl w (ashr w a s) s <> a

let sdiv_overflow w a b = a = min_signed w && b = all_ones w

let trunc w_from w_to a =
  ignore w_from;
  mask w_to a

let zext _w_from _w_to a = a
let sext w_from w_to a = mask w_to (to_signed w_from a)

let is_power_of_two w a = a <> 0L && logand w a (sub w a 1L) = 0L

let log2 w a =
  let rec go i = if i >= w then -1 else if shl w 1L (Int64.of_int i) = a then i else go (i + 1) in
  go 0

let popcount _w a =
  let rec go acc x = if x = 0L then acc else go (acc + 1) (Int64.logand x (Int64.sub x 1L)) in
  go 0 a

let bit w a i = if i < 0 || i >= w then false else Int64.logand (Int64.shift_right_logical a i) 1L = 1L
