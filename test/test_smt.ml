(* SAT solver and bit-blaster: unit formulas, pigeonhole unsatisfiability,
   and differential testing of the circuits against concrete evaluation. *)

module Sat = Veriopt_smt.Sat
module Expr = Veriopt_smt.Expr
module Solver = Veriopt_smt.Solver

let lit v = Sat.lit_of_var v
let nlit v = Sat.lit_of_var ~sign:false v

let sat_result =
  Alcotest.testable
    (fun ppf -> function
      | Sat.Sat -> Fmt.string ppf "SAT"
      | Sat.Unsat -> Fmt.string ppf "UNSAT"
      | Sat.Unknown -> Fmt.string ppf "UNKNOWN")
    ( = )

let sat_tests =
  [
    Alcotest.test_case "empty formula is SAT" `Quick (fun () ->
        let s = Sat.create () in
        Alcotest.check sat_result "sat" Sat.Sat (Sat.solve s));
    Alcotest.test_case "unit clauses propagate" `Quick (fun () ->
        let s = Sat.create () in
        let a = Sat.new_var s and b = Sat.new_var s in
        Sat.add_clause s [ lit a ];
        Sat.add_clause s [ nlit a; lit b ];
        Alcotest.check sat_result "sat" Sat.Sat (Sat.solve s);
        Alcotest.(check bool) "a true" true (Sat.model_value s a);
        Alcotest.(check bool) "b true" true (Sat.model_value s b));
    Alcotest.test_case "contradiction is UNSAT" `Quick (fun () ->
        let s = Sat.create () in
        let a = Sat.new_var s in
        Sat.add_clause s [ lit a ];
        Sat.add_clause s [ nlit a ];
        Alcotest.check sat_result "unsat" Sat.Unsat (Sat.solve s));
    Alcotest.test_case "xor chain forces conflict-driven search" `Quick (fun () ->
        (* a xor b, b xor c, a xor c is unsatisfiable as parity constraints
           with odd total parity *)
        let s = Sat.create () in
        let a = Sat.new_var s and b = Sat.new_var s and c = Sat.new_var s in
        let xor_true x y =
          Sat.add_clause s [ lit x; lit y ];
          Sat.add_clause s [ nlit x; nlit y ]
        in
        xor_true a b;
        xor_true b c;
        xor_true a c;
        Alcotest.check sat_result "unsat" Sat.Unsat (Sat.solve s));
    Alcotest.test_case "pigeonhole PHP(4,3) is UNSAT" `Quick (fun () ->
        (* 4 pigeons in 3 holes; classic resolution-hard family at scale *)
        let s = Sat.create () in
        let v = Array.init 4 (fun _ -> Array.init 3 (fun _ -> Sat.new_var s)) in
        for p = 0 to 3 do
          Sat.add_clause s (List.init 3 (fun h -> lit v.(p).(h)))
        done;
        for h = 0 to 2 do
          for p1 = 0 to 3 do
            for p2 = p1 + 1 to 3 do
              Sat.add_clause s [ nlit v.(p1).(h); nlit v.(p2).(h) ]
            done
          done
        done;
        Alcotest.check sat_result "unsat" Sat.Unsat (Sat.solve s));
    Alcotest.test_case "pigeonhole PHP(5,5) is SAT" `Quick (fun () ->
        let s = Sat.create () in
        let v = Array.init 5 (fun _ -> Array.init 5 (fun _ -> Sat.new_var s)) in
        for p = 0 to 4 do
          Sat.add_clause s (List.init 5 (fun h -> lit v.(p).(h)))
        done;
        for h = 0 to 4 do
          for p1 = 0 to 4 do
            for p2 = p1 + 1 to 4 do
              Sat.add_clause s [ nlit v.(p1).(h); nlit v.(p2).(h) ]
            done
          done
        done;
        Alcotest.check sat_result "sat" Sat.Sat (Sat.solve s));
    Alcotest.test_case "conflict budget yields Unknown" `Quick (fun () ->
        (* PHP(7,6) with a budget of 1 conflict *)
        let s = Sat.create () in
        let v = Array.init 7 (fun _ -> Array.init 6 (fun _ -> Sat.new_var s)) in
        for p = 0 to 6 do
          Sat.add_clause s (List.init 6 (fun h -> lit v.(p).(h)))
        done;
        for h = 0 to 5 do
          for p1 = 0 to 6 do
            for p2 = p1 + 1 to 6 do
              Sat.add_clause s [ nlit v.(p1).(h); nlit v.(p2).(h) ]
            done
          done
        done;
        Alcotest.check sat_result "unknown" Sat.Unknown (Sat.solve ~max_conflicts:1 s));
  ]

(* Random 3-CNF solved by the CDCL solver and checked against brute force. *)
let gen_cnf =
  QCheck2.Gen.(
    let* nvars = int_range 3 8 in
    let* nclauses = int_range 3 30 in
    let* clauses =
      list_size (return nclauses)
        (list_size (return 3)
           (let* v = int_bound (nvars - 1) in
            let* sign = bool in
            return (v, sign)))
    in
    return (nvars, clauses))

let brute_force nvars clauses =
  let rec go assignment v =
    if v = nvars then
      List.for_all
        (fun clause -> List.exists (fun (x, sign) -> List.nth assignment x = sign) clause)
        clauses
    else go (assignment @ [ true ]) (v + 1) || go (assignment @ [ false ]) (v + 1)
  in
  go [] 0

let sat_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"CDCL agrees with brute force on random 3-CNF" gen_cnf
       (fun (nvars, clauses) ->
         let s = Sat.create () in
         let vars = Array.init nvars (fun _ -> Sat.new_var s) in
         List.iter
           (fun clause ->
             Sat.add_clause s
               (List.map (fun (v, sign) -> Sat.lit_of_var ~sign vars.(v)) clause))
           clauses;
         let expected = brute_force nvars clauses in
         match Sat.solve s with
         | Sat.Sat ->
           expected
           && List.for_all
                (fun clause ->
                  List.exists (fun (v, sign) -> Sat.model_value s vars.(v) = sign) clause)
                clauses
         | Sat.Unsat -> not expected
         | Sat.Unknown -> false))

(* Differential testing of the bit-blaster against concrete evaluation. *)
let all_ops =
  Expr.[ Add; Sub; Mul; UDiv; URem; SDiv; SRem; Shl; LShr; AShr; And; Or; Xor ]

let gen_term =
  QCheck2.Gen.(
    let* w = oneofl [ 1; 5; 8; 16; 32; 64 ] in
    let* env = array_size (return 3) (map Int64.of_int int) in
    let rec term depth =
      if depth = 0 then
        let* pick = int_bound 3 in
        if pick = 0 then map (Expr.bv_const w) (map Int64.of_int int)
        else return (Expr.bv_var (Fmt.str "x%d" (pick - 1)) w)
      else
        let* a = term (depth - 1) in
        let* b = term (depth - 1) in
        let* op = oneofl all_ops in
        return (Expr.bin op a b)
    in
    let* t = term 3 in
    return (w, env, t))

let env_fn env name =
  match name with
  | "x0" -> env.(0)
  | "x1" -> env.(1)
  | "x2" -> env.(2)
  | _ -> 0L

let bitblast_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"bit-blast agrees with concrete evaluation" gen_term
       (fun (w, env, t) ->
         let expected = Solver.eval_bv (env_fn env) (fun _ -> false) t in
         let pin i =
           Expr.eq (Expr.bv_var (Fmt.str "x%d" i) w) (Expr.bv_const w env.(i))
         in
         (* t != expected under the pinned env must be UNSAT *)
         match
           Solver.check
             (Expr.not_ (Expr.eq t (Expr.bv_const w expected)) :: List.init 3 pin)
         with
         | Solver.Unsat -> true
         | Solver.Sat _ | Solver.Unknown -> false))

let model_soundness_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"SAT models satisfy the formula" gen_term
       (fun (w, _, t) ->
         let goal = Expr.bv_const w 42L in
         match Solver.check [ Expr.eq t goal ] with
         | Solver.Unsat | Solver.Unknown -> true
         | Solver.Sat m ->
           let env name = match m.Solver.bv_value name with Some (_, v) -> v | None -> 0L in
           Solver.eval_bv env (fun _ -> false) t = Veriopt_ir.Bits.mask w 42L))

(* ------------------------------------------------------------------ *)
(* End-to-end bit-vector fuzz: >= 1000 seeded round-trip cases (concrete
   evaluation vs bit-blast + solve), plus the nsw/nuw/exact poison
   predicates the Alive encoder builds, cross-checked against Bits'
   concrete overflow predicates — the single source of truth both the
   interpreter and the encoder claim to mirror.  VERIOPT_FUZZ_N cranks the
   counts along with the SAT fuzzer's. *)

module Bits = Veriopt_ir.Bits

let bv_fuzz_n =
  match Sys.getenv_opt "VERIOPT_FUZZ_N" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> max 1_000 (n / 5) | _ -> 1_000)
  | None -> 1_000

(* Like [gen_term] but biased toward small widths and shallow terms so a
   thousand cases bit-blast in seconds; occasional wide terms keep the
   64-bit carry chains honest. *)
let gen_term_small =
  QCheck2.Gen.(
    let* w = frequency [ (9, oneofl [ 1; 2; 3; 4; 5; 6; 7; 8 ]); (1, oneofl [ 16; 32; 64 ]) ]
    in
    let* env = array_size (return 3) (map Int64.of_int int) in
    let* depth = int_range 1 2 in
    let rec term depth =
      if depth = 0 then
        let* pick = int_bound 3 in
        if pick = 0 then map (Expr.bv_const w) (map Int64.of_int int)
        else return (Expr.bv_var (Fmt.str "x%d" (pick - 1)) w)
      else
        let* a = term (depth - 1) in
        let* b = term (depth - 1) in
        let* op = oneofl all_ops in
        return (Expr.bin op a b)
    in
    let* t = term depth in
    return (w, env, t))

let bitblast_roundtrip_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:bv_fuzz_n
       ~name:(Fmt.str "bit-vector round-trip fuzz, %d cases (VERIOPT_FUZZ_N)" bv_fuzz_n)
       gen_term_small
       (fun (w, env, t) ->
         let expected = Solver.eval_bv (env_fn env) (fun _ -> false) t in
         let pin i = Expr.eq (Expr.bv_var (Fmt.str "x%d" i) w) (Expr.bv_const w env.(i)) in
         match
           Solver.check (Expr.not_ (Expr.eq t (Expr.bv_const w expected)) :: List.init 3 pin)
         with
         | Solver.Unsat -> true
         | Solver.Sat _ | Solver.Unknown -> false))

(* The poison paths used by Alive: each case mirrors the exact term the
   encoder builds for the flag (encode.ml) and the exact concrete predicate
   the interpreter uses (Bits). *)
type poison_case =
  | Add_nsw
  | Add_nuw
  | Sub_nsw
  | Sub_nuw
  | Mul_nsw
  | Mul_nuw
  | Shl_nuw
  | Shl_nsw
  | Udiv_exact
  | Sdiv_exact
  | Lshr_exact
  | Ashr_exact

let poison_cases =
  [
    Add_nsw; Add_nuw; Sub_nsw; Sub_nuw; Mul_nsw; Mul_nuw; Shl_nuw; Shl_nsw; Udiv_exact;
    Sdiv_exact; Lshr_exact; Ashr_exact;
  ]

let poison_term case w at bt =
  let r op = Expr.bin op at bt in
  let zero = Expr.bv_const w 0L in
  let ones = Expr.bv_const w (Bits.all_ones w) in
  let minv = Expr.bv_const w (Bits.min_signed w) in
  match case with
  | Add_nsw ->
    let rt = r Expr.Add in
    Expr.or_
      (Expr.conj [ Expr.sge at zero; Expr.sge bt zero; Expr.slt rt zero ])
      (Expr.conj [ Expr.slt at zero; Expr.slt bt zero; Expr.sge rt zero ])
  | Add_nuw -> Expr.ult (r Expr.Add) at
  | Sub_nsw ->
    let rt = r Expr.Sub in
    Expr.or_
      (Expr.conj [ Expr.sge at zero; Expr.slt bt zero; Expr.slt rt zero ])
      (Expr.conj [ Expr.slt at zero; Expr.sge bt zero; Expr.sge rt zero ])
  | Sub_nuw -> Expr.ult at bt
  | Mul_nuw ->
    Expr.and_ (Expr.not_ (Expr.eq at zero)) (Expr.ugt bt (Expr.bin Expr.UDiv ones at))
  | Mul_nsw ->
    let rt = r Expr.Mul in
    Expr.and_
      (Expr.not_ (Expr.eq bt zero))
      (Expr.or_
         (Expr.not_ (Expr.eq (Expr.bin Expr.SDiv rt bt) at))
         (Expr.and_ (Expr.eq at minv) (Expr.eq bt ones)))
  | Shl_nuw -> Expr.not_ (Expr.eq (Expr.bin Expr.LShr (r Expr.Shl) bt) at)
  | Shl_nsw -> Expr.not_ (Expr.eq (Expr.bin Expr.AShr (r Expr.Shl) bt) at)
  | Udiv_exact -> Expr.not_ (Expr.eq (r Expr.URem) zero)
  | Sdiv_exact -> Expr.not_ (Expr.eq (r Expr.SRem) zero)
  | Lshr_exact -> Expr.not_ (Expr.eq (Expr.bin Expr.Shl (r Expr.LShr) bt) at)
  | Ashr_exact -> Expr.not_ (Expr.eq (Expr.bin Expr.Shl (r Expr.AShr) bt) at)

let poison_concrete case w a b =
  match case with
  | Add_nsw -> Bits.add_nsw_overflow w a b
  | Add_nuw -> Bits.add_nuw_overflow w a b
  | Sub_nsw -> Bits.sub_nsw_overflow w a b
  | Sub_nuw -> Bits.sub_nuw_overflow w a b
  | Mul_nsw -> Bits.mul_nsw_overflow w a b
  | Mul_nuw -> Bits.mul_nuw_overflow w a b
  | Shl_nuw -> Bits.shl_nuw_overflow w a b
  | Shl_nsw -> Bits.shl_nsw_overflow w a b
  | Udiv_exact -> Bits.udiv_exact_violation w a b
  | Sdiv_exact -> Bits.sdiv_exact_violation w a b
  | Lshr_exact -> Bits.lshr_exact_violation w a b
  | Ashr_exact -> Bits.ashr_exact_violation w a b

let gen_poison =
  QCheck2.Gen.(
    let* w = oneofl [ 1; 2; 3; 4; 5; 6; 7; 8; 12; 16 ] in
    let* case = oneofl poison_cases in
    let* a0 = map Int64.of_int int in
    let* b0 = map Int64.of_int int in
    let a = Bits.mask w a0 and b = Bits.mask w b0 in
    (* mirror the UB/poison guards the encoder emits before the flag
       predicate matters: in-range shift amounts, nonzero divisors, and no
       min/-1 signed-division overflow *)
    let b =
      match case with
      | Shl_nuw | Shl_nsw | Lshr_exact | Ashr_exact -> Int64.rem b (Int64.of_int w)
      | Udiv_exact | Sdiv_exact -> if b = 0L then 1L else b
      | _ -> b
    in
    let a =
      match case with
      | Sdiv_exact when a = Bits.min_signed w && b = Bits.all_ones w -> 0L
      | _ -> a
    in
    return (case, w, a, b))

let poison_paths_fuzz =
  let n = max 600 (bv_fuzz_n / 2) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:n
       ~name:(Fmt.str "nsw/nuw/exact poison predicates vs Bits, %d cases" n)
       gen_poison
       (fun (case, w, a, b) ->
         let at = Expr.bv_var "pa" w and bt = Expr.bv_var "pb" w in
         let p = poison_term case w at bt in
         let expected = poison_concrete case w a b in
         let env name = if name = "pa" then a else if name = "pb" then b else 0L in
         (* the term evaluator agrees with Bits *)
         Solver.eval_bool env (fun _ -> false) p = expected
         &&
         (* and so does the bit-blasted circuit: the disagreeing formula is
            UNSAT under the pinned inputs *)
         match
           Solver.check
             [
               (if expected then Expr.not_ p else p);
               Expr.eq at (Expr.bv_const w a);
               Expr.eq bt (Expr.bv_const w b);
             ]
         with
         | Solver.Unsat -> true
         | Solver.Sat _ | Solver.Unknown -> false))

(* ------------------------------------------------------------------ *)
(* The word-level normal form.  The round-trip fuzz above evaluates the
   already-normalised term, so it cannot see an unsound rewrite; this one
   evaluates the raw operator tree with a reference evaluator of its own
   and compares it with [Solver.eval_bv] on the term the smart
   constructors built from that tree. *)

type raw =
  | RConst of int64
  | RVar of int
  | RBin of Expr.bv_binop * raw * raw
  | RNot of raw
  | RNeg of raw

let rec build w = function
  | RConst c -> Expr.bv_const w c
  | RVar i -> Expr.bv_var (Fmt.str "x%d" i) w
  | RBin (op, a, b) -> Expr.bin op (build w a) (build w b)
  | RNot a -> Expr.bv_not (build w a)
  | RNeg a -> Expr.bv_neg (build w a)

(* SMT-LIB semantics on masked values, written out independently of
   Expr's constant folder *)
let rec ref_eval w env = function
  | RConst c -> Bits.mask w c
  | RVar i -> Bits.mask w env.(i)
  | RNot a -> Bits.lognot w (ref_eval w env a)
  | RNeg a -> Bits.neg w (ref_eval w env a)
  | RBin (op, a, b) -> (
    let x = ref_eval w env a and y = ref_eval w env b in
    let shift f default =
      if Int64.unsigned_compare y (Int64.of_int w) >= 0 then default else f w x y
    in
    let neg_x = Bits.slt w x 0L in
    match op with
    | Expr.Add -> Bits.add w x y
    | Expr.Sub -> Bits.sub w x y
    | Expr.Mul -> Bits.mul w x y
    | Expr.And -> Bits.logand w x y
    | Expr.Or -> Bits.logor w x y
    | Expr.Xor -> Bits.logxor w x y
    | Expr.UDiv -> if y = 0L then Bits.all_ones w else Bits.udiv w x y
    | Expr.URem -> if y = 0L then x else Bits.urem w x y
    | Expr.SDiv ->
      if y = 0L then if neg_x then 1L else Bits.all_ones w
      else if x = Bits.min_signed w && y = Bits.all_ones w then x
      else Bits.sdiv w x y
    | Expr.SRem ->
      if y = 0L then x
      else if x = Bits.min_signed w && y = Bits.all_ones w then 0L
      else Bits.srem w x y
    | Expr.Shl -> shift Bits.shl 0L
    | Expr.LShr -> shift Bits.lshr 0L
    | Expr.AShr -> shift Bits.ashr (if neg_x then Bits.all_ones w else 0L))

(* biased toward the five reassociated operators and toward constants, so
   constant chains, commuted twins and identities actually occur *)
let gen_raw =
  QCheck2.Gen.(
    let* w = frequency [ (8, int_range 1 8); (1, oneofl [ 16; 32; 64 ]) ] in
    let* env = array_size (return 3) (map Int64.of_int int) in
    let const =
      frequency
        [
          (3, map Int64.of_int (int_range (-3) 16));
          (1, return (Bits.all_ones w));
          (1, map Int64.of_int int);
        ]
    in
    let rec raw depth =
      if depth = 0 then
        frequency [ (2, map (fun c -> RConst c) const); (3, map (fun i -> RVar i) (int_bound 2)) ]
      else
        frequency
          [
            (1, raw 0);
            (1, map (fun a -> RNot a) (raw (depth - 1)));
            (1, map (fun a -> RNeg a) (raw (depth - 1)));
            ( 8,
              let* op =
                frequency
                  [ (3, oneofl Expr.[ Add; Mul; And; Or; Xor ]); (1, oneofl all_ops) ]
              in
              let* a = raw (depth - 1) in
              let* b = raw (depth - 1) in
              return (RBin (op, a, b)) );
          ]
    in
    let* depth = int_range 1 4 in
    let* a = raw depth in
    let* b = raw depth in
    return (w, env, a, b))

let normal_form_fuzz =
  let n = 2 * bv_fuzz_n in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:n
       ~name:(Fmt.str "normal form vs reference evaluator, %d cases (VERIOPT_FUZZ_N)" n)
       gen_raw
       (fun (w, env, a, b) ->
         let ta = build w a and tb = build w b in
         let va = ref_eval w env a and vb = ref_eval w env b in
         Solver.eval_bv (env_fn env) (fun _ -> false) ta = va
         && Solver.eval_bv (env_fn env) (fun _ -> false) tb = vb
         && Solver.eval_bool (env_fn env) (fun _ -> false) (Expr.eq ta tb) = (va = vb)))

let parse_pair src tgt =
  let m = Veriopt_ir.Parser.parse_module src in
  let f text = List.hd (Veriopt_ir.Parser.parse_module text).Veriopt_ir.Ast.funcs in
  (m, f src, f tgt)

(* The verification-relevant slice of a train-workload pair: an -O0
   source computing (t7 +nsw 2) +nsw 10 next to a 32-bit sdiv, against a
   candidate computing t7 + 12.  Without constant reassociation the two
   sides are different circuits and CDCL needs some 13k conflicts. *)
let f25_text add =
  Fmt.str
    "declare void @sink(i32)\n\
     define i8 @f25(i32 %%p0, i16 %%p1) {\n\
     entry:\n\
    \  %%p0.addr.1 = alloca i32, align 4\n\
    \  store i32 %%p0, ptr %%p0.addr.1, align 4\n\
    \  %%t3 = load i32, ptr %%p0.addr.1, align 4\n\
    \  %%t4 = sdiv i32 %%t3, 2\n\
    \  %%t5 = load i32, ptr %%p0.addr.1, align 4\n\
    \  %%t6 = shl i32 %%t5, 3\n\
    \  %%t7 = ashr i32 %%t6, 3\n\
     %s\
    \  %%t10 = sub nsw i32 %%t4, %%t9\n\
    \  call void @sink(i32 %%t10)\n\
    \  ret i8 1\n\
     }\n"
    add

let verify_counting_conflicts ?max_conflicts (m, src, tgt) =
  Solver.reset_stats ();
  let v = Veriopt_alive.Alive.verify_funcs ?max_conflicts m ~src ~tgt in
  (v.Veriopt_alive.Alive.category, (Solver.stats ()).Solver.conflicts)

let normal_form_tests =
  [
    Alcotest.test_case "commuted and constant-reassociated twins are one node" `Quick
      (fun () ->
        let x = Expr.bv_var "nx" 16 and y = Expr.bv_var "ny" 16 in
        let c v = Expr.bv_const 16 v in
        List.iter
          (fun op ->
            Alcotest.(check bool) "a op b == b op a" true (Expr.bin op x y == Expr.bin op y x);
            Alcotest.(check bool)
              "(x op c1) op c2 == x op (c1 op c2)" true
              (Expr.bin op (Expr.bin op x (c 2L)) (c 10L)
              == Expr.bin op x (Expr.bin op (c 2L) (c 10L)));
            Alcotest.(check bool)
              "c op x == x op c" true
              (Expr.bin op (c 7L) x == Expr.bin op x (c 7L)))
          Expr.[ Add; Mul; And; Or; Xor ];
        Alcotest.(check bool) "x+2+10 == 12+x" true
          (Expr.bin Expr.Add (Expr.bin Expr.Add x (c 2L)) (c 10L) == Expr.bin Expr.Add (c 12L) x);
        Alcotest.(check bool) "a chain that cancels folds away" true
          (Expr.bin Expr.Add (Expr.bin Expr.Add x (c 5L)) (c (-5L)) == x);
        Alcotest.(check bool) "eq of commuted twins is tt" true
          (Expr.eq (Expr.bin Expr.Mul x y) (Expr.bin Expr.Mul y x) == Expr.tt);
        (* non-commutative operators keep their order, and non-constant
           operands are never reassociated *)
        Alcotest.(check bool) "x-y stays apart from y-x" false
          (Expr.bin Expr.Sub x y == Expr.bin Expr.Sub y x);
        let z = Expr.bv_var "nz" 16 in
        Alcotest.(check bool) "(x*y)*z stays apart from x*(y*z)" false
          (Expr.bin Expr.Mul (Expr.bin Expr.Mul x y) z
          == Expr.bin Expr.Mul x (Expr.bin Expr.Mul y z)));
    Alcotest.test_case "bit-blast numbering is history-independent" `Quick (fun () ->
        (* the same query blasted in two fresh domains, one of which first
           interned an unrelated term over y: every variable must land on
           the same SAT variables, so a forked worker and the in-process
           path run the same search on the same query *)
        let blast ~warm =
          Domain.join
            (Domain.spawn (fun () ->
                 let w = 7 in
                 if warm then ignore (Expr.bin Expr.Xor (Expr.bv_var "y" w) (Expr.bv_const w 5L));
                 let x = Expr.bv_var "x" w and y = Expr.bv_var "y" w in
                 let q =
                   Expr.and_
                     (Expr.not_ (Expr.eq x y))
                     (Expr.ult (Expr.bin Expr.Add x y) (Expr.bv_const w 100L))
                 in
                 let ctx = Veriopt_smt.Bitblast.create () in
                 Veriopt_smt.Bitblast.assert_term ctx q;
                 let bits name =
                   Array.to_list (Hashtbl.find ctx.Veriopt_smt.Bitblast.bv_vars name)
                 in
                 (bits "x", bits "y")))
        in
        let x0, y0 = blast ~warm:false and x1, y1 = blast ~warm:true in
        Alcotest.(check (list int)) "x's literals" x0 x1;
        Alcotest.(check (list int)) "y's literals" y0 y1);
    Alcotest.test_case "the f25 train pair decides without search" `Quick (fun () ->
        let pair =
          parse_pair
            (f25_text "  %t8 = add nsw i32 %t7, 2\n  %t9 = add nsw i32 %t8, 10\n")
            (f25_text "  %t9 = add i32 %t7, 12\n")
        in
        let cat, conflicts = verify_counting_conflicts pair in
        Alcotest.(check bool) "equivalent" true (cat = Veriopt_alive.Alive.Equivalent);
        Alcotest.(check bool) (Fmt.str "%d conflicts < 500" conflicts) true (conflicts < 500));
    Alcotest.test_case "a serve mul-comm pair decides within its budget" `Quick (fun () ->
        let module W = Veriopt_serve.Workload in
        let rec find i =
          let q = W.make ~seed:1 ~index:i in
          if q.W.w_label = "mul-comm" then q else find (i + 1)
        in
        let q = find 0 in
        let cat, _ =
          verify_counting_conflicts ?max_conflicts:q.W.w_max_conflicts
            (q.W.w_m, q.W.w_src, q.W.w_tgt)
        in
        Alcotest.(check bool) "equivalent" true (cat = Veriopt_alive.Alive.Equivalent));
  ]

let expr_tests =
  [
    Alcotest.test_case "constant folding in smart constructors" `Quick (fun () ->
        let a = Expr.bv_const 8 200L and b = Expr.bv_const 8 100L in
        Alcotest.(check (option int64)) "fold add" (Some 44L) (Expr.const_value (Expr.bin Expr.Add a b));
        Alcotest.(check (option int64))
          "fold udiv by zero = all ones" (Some 255L)
          (Expr.const_value (Expr.bin Expr.UDiv a (Expr.bv_const 8 0L))));
    Alcotest.test_case "identity simplifications" `Quick (fun () ->
        let x = Expr.bv_var "x" 8 in
        Alcotest.(check bool) "x+0 = x" true (Expr.bin Expr.Add x (Expr.bv_const 8 0L) == x);
        Alcotest.(check bool) "x&x = x" true (Expr.bin Expr.And x x == x);
        Alcotest.(check bool)
          "x^x = 0" true
          (Expr.const_value (Expr.bin Expr.Xor x x) = Some 0L));
    Alcotest.test_case "hash-consing shares structure" `Quick (fun () ->
        let x = Expr.bv_var "hc" 16 in
        let t1 = Expr.bin Expr.Add x (Expr.bv_const 16 3L) in
        let t2 = Expr.bin Expr.Add x (Expr.bv_const 16 3L) in
        Alcotest.(check bool) "physically equal" true (t1 == t2));
    Alcotest.test_case "boolean simplifications" `Quick (fun () ->
        let p = Expr.bool_var "p" in
        Alcotest.(check bool) "not not p" true (Expr.not_ (Expr.not_ p) == p);
        Alcotest.(check bool) "p and not p" true (Expr.and_ p (Expr.not_ p) == Expr.ff);
        Alcotest.(check bool) "p or not p" true (Expr.or_ p (Expr.not_ p) == Expr.tt));
    Alcotest.test_case "valid recognizes a tautology" `Quick (fun () ->
        let x = Expr.bv_var "vx" 8 in
        (* (x & 0) = 0 is valid *)
        match Solver.valid (Expr.eq (Expr.bin Expr.And x (Expr.bv_const 8 0L)) (Expr.bv_const 8 0L)) with
        | Solver.Unsat -> ()
        | _ -> Alcotest.fail "expected validity");
    Alcotest.test_case "valid finds a counterexample" `Quick (fun () ->
        let x = Expr.bv_var "cx" 8 in
        (* x = 0 is not valid *)
        match Solver.valid (Expr.eq x (Expr.bv_const 8 0L)) with
        | Solver.Sat m -> (
          match m.Solver.bv_value "cx" with
          | Some (_, v) -> Alcotest.(check bool) "nonzero witness" true (v <> 0L)
          | None -> Alcotest.fail "no witness")
        | _ -> Alcotest.fail "expected counterexample");
  ]

let suite =
  ( "smt",
    sat_tests @ expr_tests
    @ [
        sat_property;
        bitblast_property;
        model_soundness_property;
        bitblast_roundtrip_fuzz;
        poison_paths_fuzz;
        normal_form_fuzz;
      ]
    @ normal_form_tests )
