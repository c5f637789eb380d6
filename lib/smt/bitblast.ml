(** Bit-blasting of {!Expr} terms to CNF over the {!Sat} solver.

    Bitvectors become little-endian literal arrays; every gate is emitted via
    the Tseitin transformation.  Arithmetic uses ripple-carry adders, a
    shift-add multiplier, barrel shifters and a restoring divider — all
    quadratic in width, which is fine at the widths (<= 64) and term sizes
    produced by peephole-scale functions.

    Division-by-zero follows SMT-LIB ([bvudiv x 0 = ~0], [bvurem x 0 = x]);
    the IR encoder guards those cases with explicit UB conditions. *)

type ctx = {
  sat : Sat.t;
  true_lit : int;
  bool_memo : (int, int) Hashtbl.t; (* expr id -> literal *)
  bv_memo : (int, int array) Hashtbl.t; (* expr id -> literals, LSB first *)
  bv_vars : (string, int array) Hashtbl.t;
  bool_vars : (string, int) Hashtbl.t;
}

let create () =
  let sat = Sat.create () in
  let tv = Sat.new_var sat in
  let true_lit = Sat.lit_of_var tv in
  Sat.add_clause sat [ true_lit ];
  {
    sat;
    true_lit;
    bool_memo = Hashtbl.create 1024;
    bv_memo = Hashtbl.create 1024;
    bv_vars = Hashtbl.create 64;
    bool_vars = Hashtbl.create 64;
  }

let fresh ctx = Sat.lit_of_var (Sat.new_var ctx.sat)
let lfalse ctx = Sat.lit_neg ctx.true_lit
let lit_of_bool ctx b = if b then ctx.true_lit else lfalse ctx

(* ------------------------------------------------------------------ *)
(* Gates *)

let g_and ctx a b =
  if a = lfalse ctx || b = lfalse ctx then lfalse ctx
  else if a = ctx.true_lit then b
  else if b = ctx.true_lit then a
  else if a = b then a
  else if a = Sat.lit_neg b then lfalse ctx
  else begin
    let o = fresh ctx in
    Sat.add_clause ctx.sat [ Sat.lit_neg o; a ];
    Sat.add_clause ctx.sat [ Sat.lit_neg o; b ];
    Sat.add_clause ctx.sat [ o; Sat.lit_neg a; Sat.lit_neg b ];
    o
  end

let g_or ctx a b = Sat.lit_neg (g_and ctx (Sat.lit_neg a) (Sat.lit_neg b))

let g_xor ctx a b =
  if a = lfalse ctx then b
  else if b = lfalse ctx then a
  else if a = ctx.true_lit then Sat.lit_neg b
  else if b = ctx.true_lit then Sat.lit_neg a
  else if a = b then lfalse ctx
  else if a = Sat.lit_neg b then ctx.true_lit
  else begin
    let o = fresh ctx in
    Sat.add_clause ctx.sat [ Sat.lit_neg o; a; b ];
    Sat.add_clause ctx.sat [ Sat.lit_neg o; Sat.lit_neg a; Sat.lit_neg b ];
    Sat.add_clause ctx.sat [ o; Sat.lit_neg a; b ];
    Sat.add_clause ctx.sat [ o; a; Sat.lit_neg b ];
    o
  end

let g_ite ctx c a b =
  if c = ctx.true_lit then a
  else if c = lfalse ctx then b
  else if a = b then a
  else if a = ctx.true_lit && b = lfalse ctx then c
  else if a = lfalse ctx && b = ctx.true_lit then Sat.lit_neg c
  else begin
    let o = fresh ctx in
    Sat.add_clause ctx.sat [ Sat.lit_neg c; Sat.lit_neg a; o ];
    Sat.add_clause ctx.sat [ Sat.lit_neg c; a; Sat.lit_neg o ];
    Sat.add_clause ctx.sat [ c; Sat.lit_neg b; o ];
    Sat.add_clause ctx.sat [ c; b; Sat.lit_neg o ];
    o
  end

let g_iff ctx a b = Sat.lit_neg (g_xor ctx a b)

(* ------------------------------------------------------------------ *)
(* Word-level circuits (little-endian literal arrays) *)

let bv_of_const ctx w v =
  Array.init w (fun i -> lit_of_bool ctx (Veriopt_ir.Bits.bit w v i))

(* a + b + carry_in; returns (sum, carry_out) *)
let adder ctx a b cin =
  let w = Array.length a in
  let sum = Array.make w (lfalse ctx) in
  let c = ref cin in
  for i = 0 to w - 1 do
    let axb = g_xor ctx a.(i) b.(i) in
    sum.(i) <- g_xor ctx axb !c;
    c := g_or ctx (g_and ctx a.(i) b.(i)) (g_and ctx axb !c)
  done;
  (sum, !c)

let bv_add ctx a b = fst (adder ctx a b (lfalse ctx))
let bv_not_bits a = Array.map Sat.lit_neg a
let bv_sub ctx a b = fst (adder ctx a (bv_not_bits b) ctx.true_lit)

(* carry-out of a + ~b + 1 is 1 iff a >= b (unsigned) *)
let bv_uge_lit ctx a b = snd (adder ctx a (bv_not_bits b) ctx.true_lit)
let bv_ult_lit ctx a b = Sat.lit_neg (bv_uge_lit ctx a b)

let bv_slt_lit ctx a b =
  let w = Array.length a in
  let sa = a.(w - 1) and sb = b.(w - 1) in
  g_ite ctx (g_xor ctx sa sb) sa (bv_ult_lit ctx a b)

let bv_eq_lit ctx a b =
  let acc = ref ctx.true_lit in
  Array.iteri (fun i ai -> acc := g_and ctx !acc (g_iff ctx ai b.(i))) a;
  !acc

let bv_ite ctx c a b = Array.init (Array.length a) (fun i -> g_ite ctx c a.(i) b.(i))

let bv_neg ctx a = fst (adder ctx (bv_not_bits a) (bv_of_const ctx (Array.length a) 0L) ctx.true_lit)

let bv_mul ctx a b =
  let w = Array.length a in
  let acc = ref (bv_of_const ctx w 0L) in
  for i = 0 to w - 1 do
    (* (a << i) & replicate b.(i), added into acc *)
    let row =
      Array.init w (fun j -> if j < i then lfalse ctx else g_and ctx a.(j - i) b.(i))
    in
    acc := bv_add ctx !acc row
  done;
  !acc

(* Barrel shifter.  [step k bits] shifts by 2^k; amounts >= w force the
   default (0, or the sign bit for arithmetic shifts). *)
let bv_shift ctx ~kind a amount =
  let w = Array.length a in
  let default =
    match kind with
    | `Shl | `LShr -> Array.make w (lfalse ctx)
    | `AShr -> Array.make w a.(w - 1)
  in
  let shift_by_const bits k =
    Array.init w (fun i ->
        match kind with
        | `Shl -> if i >= k then bits.(i - k) else lfalse ctx
        | `LShr -> if i + k < w then bits.(i + k) else lfalse ctx
        | `AShr -> if i + k < w then bits.(i + k) else a.(w - 1))
  in
  let result = ref a in
  for k = 0 to Array.length amount - 1 do
    let bit = amount.(k) in
    if bit <> lfalse ctx then
      if k >= 6 || 1 lsl k >= w then result := bv_ite ctx bit default !result
      else result := bv_ite ctx bit (shift_by_const !result (1 lsl k)) !result
  done;
  !result

(* Restoring division: processes dividend bits MSB-down, keeping a remainder
   register.  For b = 0 this yields quotient ~0 and remainder a (SMT-LIB). *)
let bv_udivrem ctx a b =
  let w = Array.length a in
  let r = ref (bv_of_const ctx w 0L) in
  let q = Array.make w (lfalse ctx) in
  for i = w - 1 downto 0 do
    (* r = (r << 1) | a[i] *)
    let shifted = Array.init w (fun j -> if j = 0 then a.(i) else !r.(j - 1)) in
    (* For b = 0, geq is always true, so q = ~0 and r ends as a: exactly the
       SMT-LIB convention, with no special case needed. *)
    let geq = bv_uge_lit ctx shifted b in
    q.(i) <- geq;
    let diff = bv_sub ctx shifted b in
    r := bv_ite ctx geq diff shifted
  done;
  (q, !r)

let bv_abs ctx a =
  let w = Array.length a in
  bv_ite ctx a.(w - 1) (bv_neg ctx a) a

let bv_sdiv ctx a b =
  let w = Array.length a in
  let q, _ = bv_udivrem ctx (bv_abs ctx a) (bv_abs ctx b) in
  let opposite = g_xor ctx a.(w - 1) b.(w - 1) in
  bv_ite ctx opposite (bv_neg ctx q) q

let bv_srem ctx a b =
  let w = Array.length a in
  let _, r = bv_udivrem ctx (bv_abs ctx a) (bv_abs ctx b) in
  bv_ite ctx a.(w - 1) (bv_neg ctx r) r

(* ------------------------------------------------------------------ *)
(* Term translation *)

let rec blast_bool ctx (t : Expr.t) : int =
  match Hashtbl.find_opt ctx.bool_memo t.id with
  | Some l -> l
  | None ->
    let l =
      match t.node with
      | Expr.True -> ctx.true_lit
      | Expr.False -> lfalse ctx
      | Expr.BoolVar name -> (
        match Hashtbl.find_opt ctx.bool_vars name with
        | Some l -> l
        | None ->
          let l = fresh ctx in
          Hashtbl.replace ctx.bool_vars name l;
          l)
      | Expr.Not a -> Sat.lit_neg (blast_bool ctx a)
      | Expr.BAnd (a, b) -> g_and ctx (blast_bool ctx a) (blast_bool ctx b)
      | Expr.BOr (a, b) -> g_or ctx (blast_bool ctx a) (blast_bool ctx b)
      | Expr.BXor (a, b) -> g_xor ctx (blast_bool ctx a) (blast_bool ctx b)
      | Expr.BIte (c, a, b) ->
        g_ite ctx (blast_bool ctx c) (blast_bool ctx a) (blast_bool ctx b)
      | Expr.Eq (a, b) -> bv_eq_lit ctx (blast_bv ctx a) (blast_bv ctx b)
      | Expr.Ult (a, b) -> bv_ult_lit ctx (blast_bv ctx a) (blast_bv ctx b)
      | Expr.Slt (a, b) -> bv_slt_lit ctx (blast_bv ctx a) (blast_bv ctx b)
      | _ -> invalid_arg "Bitblast.blast_bool: bitvector-sorted term"
    in
    Hashtbl.replace ctx.bool_memo t.id l;
    l

and blast_bv ctx (t : Expr.t) : int array =
  match Hashtbl.find_opt ctx.bv_memo t.id with
  | Some bits -> bits
  | None ->
    let bits =
      match t.node with
      | Expr.BvConst { width; value } -> bv_of_const ctx width value
      | Expr.BvVar { name; width } -> (
        match Hashtbl.find_opt ctx.bv_vars name with
        | Some bits -> bits
        | None ->
          let bits = Array.init width (fun _ -> fresh ctx) in
          Hashtbl.replace ctx.bv_vars name bits;
          bits)
      | Expr.BvBin (op, a, b) -> (
        let av = blast_bv ctx a and bv = blast_bv ctx b in
        match op with
        | Expr.Add -> bv_add ctx av bv
        | Expr.Sub -> bv_sub ctx av bv
        | Expr.Mul -> bv_mul ctx av bv
        | Expr.UDiv -> fst (bv_udivrem ctx av bv)
        | Expr.URem -> snd (bv_udivrem ctx av bv)
        | Expr.SDiv -> bv_sdiv ctx av bv
        | Expr.SRem -> bv_srem ctx av bv
        | Expr.Shl -> bv_shift ctx ~kind:`Shl av bv
        | Expr.LShr -> bv_shift ctx ~kind:`LShr av bv
        | Expr.AShr -> bv_shift ctx ~kind:`AShr av bv
        | Expr.And -> Array.init (Array.length av) (fun i -> g_and ctx av.(i) bv.(i))
        | Expr.Or -> Array.init (Array.length av) (fun i -> g_or ctx av.(i) bv.(i))
        | Expr.Xor -> Array.init (Array.length av) (fun i -> g_xor ctx av.(i) bv.(i)))
      | Expr.BvNot a -> bv_not_bits (blast_bv ctx a)
      | Expr.BvNeg a -> bv_neg ctx (blast_bv ctx a)
      | Expr.BvIte (c, a, b) -> bv_ite ctx (blast_bool ctx c) (blast_bv ctx a) (blast_bv ctx b)
      | Expr.BvZext (w, a) ->
        let av = blast_bv ctx a in
        Array.init w (fun i -> if i < Array.length av then av.(i) else lfalse ctx)
      | Expr.BvSext (w, a) ->
        let av = blast_bv ctx a in
        let sign = av.(Array.length av - 1) in
        Array.init w (fun i -> if i < Array.length av then av.(i) else sign)
      | Expr.BvTrunc (w, a) ->
        let av = blast_bv ctx a in
        Array.sub av 0 w
      | _ -> invalid_arg "Bitblast.blast_bv: boolean-sorted term"
    in
    Hashtbl.replace ctx.bv_memo t.id bits;
    bits

(** Assert a boolean term. *)
let assert_term ctx t = Sat.add_clause ctx.sat [ blast_bool ctx t ]

let lit_value ctx l =
  let v = Sat.model_value ctx.sat (Sat.var_of_lit l) in
  if Sat.lit_sign l then v else not v

(** After [Sat], read back a bitvector variable's value. *)
let bv_model_value ctx name =
  match Hashtbl.find_opt ctx.bv_vars name with
  | None -> None
  | Some bits ->
    let v = ref 0L in
    for i = Array.length bits - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 1) (if lit_value ctx bits.(i) then 1L else 0L)
    done;
    Some (Array.length bits, !v)

let bool_model_value ctx name =
  Option.map (lit_value ctx) (Hashtbl.find_opt ctx.bool_vars name)
