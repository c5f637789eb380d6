(* Differential fuzz harness guarding the SAT core's clause-DB reduction.

   Thousands of seeded random CNF instances (up to 18 variables, so
   brute-force enumeration stays cheap) are solved twice — reduction off
   (the seed solver's behavior) and on, with a tiny [reduce_first] so
   reductions actually fire on small instances — and cross-checked against
   exhaustive enumeration.  SAT models are validated against every clause,
   verdicts must agree across the knob, and [Sat.check_invariants] audits
   the clause DB after every solve.

   The case count defaults to 5000 and is cranked with VERIOPT_FUZZ_N
   (`make fuzz` runs a long campaign).  The seed is fixed so `dune runtest`
   is deterministic. *)

module Sat = Veriopt_smt.Sat
module Expr = Veriopt_smt.Expr
module Solver = Veriopt_smt.Solver

let fuzz_n =
  match Sys.getenv_opt "VERIOPT_FUZZ_N" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 5_000)
  | None -> 5_000

type cnf = { nvars : int; clauses : (int * bool) list list }

(* Mostly small mixed-width instances (cheap, exercise every code path);
   one case in five is a pure 3-SAT instance near the satisfiability phase
   transition (ratio ~4.26) at 14..18 variables — the conflict-heavy shape
   that actually accumulates enough learned clauses for the reducer to
   fire. *)
let gen_case st : cnf =
  if Random.State.int st 5 = 0 then begin
    let nvars = 14 + Random.State.int st 5 in
    let ratio = 4.0 +. Random.State.float st 0.6 in
    let nclauses = int_of_float (ratio *. float_of_int nvars) in
    let clause () = List.init 3 (fun _ -> (Random.State.int st nvars, Random.State.bool st)) in
    { nvars; clauses = List.init nclauses (fun _ -> clause ()) }
  end
  else begin
    let nvars = 3 + Random.State.int st 10 in
    let ratio = 2.0 +. Random.State.float st 3.0 in
    let nclauses = max 1 (int_of_float (ratio *. float_of_int nvars)) in
    let clause () =
      let len = [| 2; 3; 3; 3; 4 |].(Random.State.int st 5) in
      List.init len (fun _ -> (Random.State.int st nvars, Random.State.bool st))
    in
    { nvars; clauses = List.init nclauses (fun _ -> clause ()) }
  end

(* Exhaustive enumeration over bitmask assignments: bit [v] of the mask is
   variable [v]'s value.  A clause is two masks; early exit everywhere. *)
let brute_force { nvars; clauses } =
  let masks =
    List.map
      (fun c ->
        List.fold_left
          (fun (p, n) (v, sign) ->
            let bit = 1 lsl v in
            if sign then (p lor bit, n) else (p, n lor bit))
          (0, 0) c)
      clauses
  in
  let limit = 1 lsl nvars in
  let rec sat_from a =
    a < limit
    && (List.for_all (fun (p, n) -> a land p <> 0 || lnot a land n <> 0) masks
       || sat_from (a + 1))
  in
  sat_from 0

let show_cnf { nvars; clauses } =
  Fmt.str "%d vars: %s" nvars
    (String.concat " "
       (List.map
          (fun c ->
            Fmt.str "(%s)"
              (String.concat "|" (List.map (fun (v, s) -> Fmt.str "%s%d" (if s then "" else "-") v) c)))
          clauses))

let solve_cnf ~reduce (c : cnf) =
  let s = Sat.create () in
  let vars = Array.init c.nvars (fun _ -> Sat.new_var s) in
  List.iter
    (fun clause ->
      Sat.add_clause s (List.map (fun (v, sign) -> Sat.lit_of_var ~sign vars.(v)) clause))
    c.clauses;
  (* reduce_first far below the production default (2000) so reductions
     actually fire on instances this small *)
  let r = Sat.solve ~reduce ~reduce_first:4 s in
  Sat.check_invariants s;
  (r, s, vars)

let model_satisfies (c : cnf) s vars =
  List.for_all
    (fun clause -> List.exists (fun (v, sign) -> Sat.model_value s vars.(v) = sign) clause)
    c.clauses

let check_db_stats ~reduce ~case s =
  let db = Sat.db_stats s in
  if db.Sat.live <> db.Sat.learned - db.Sat.deleted then
    Alcotest.failf "case %d: live %d <> learned %d - deleted %d" case db.Sat.live db.Sat.learned
      db.Sat.deleted;
  if db.Sat.peak < db.Sat.live then
    Alcotest.failf "case %d: peak %d < live %d" case db.Sat.peak db.Sat.live;
  (* glue clauses (LBD <= 2 at learning time, and LBD only ever shrinks)
     are never deleted, so deletions are bounded by the non-glue count *)
  let glue = db.Sat.lbd_hist.(0) + db.Sat.lbd_hist.(1) in
  if db.Sat.deleted > db.Sat.learned - glue then
    Alcotest.failf "case %d: deleted %d > learned %d - glue %d" case db.Sat.deleted db.Sat.learned
      glue;
  if (not reduce) && (db.Sat.deleted > 0 || db.Sat.reductions > 0) then
    Alcotest.failf "case %d: reduction ran with the knob off (deleted %d, reductions %d)" case
      db.Sat.deleted db.Sat.reductions;
  db

let differential_fuzz () =
  let st = Random.State.make [| 0x5eed; 20260805 |] in
  let total_reductions = ref 0 and total_deleted = ref 0 and sat_cases = ref 0 in
  for case = 1 to fuzz_n do
    let c = gen_case st in
    let expected = brute_force c in
    let r_off, s_off, v_off = solve_cnf ~reduce:false c in
    let r_on, s_on, v_on = solve_cnf ~reduce:true c in
    let name r = match r with Sat.Sat -> "SAT" | Sat.Unsat -> "UNSAT" | Sat.Unknown -> "UNKNOWN" in
    if r_off <> r_on then
      Alcotest.failf "case %d: reduction flipped the verdict (%s off, %s on) on %s" case
        (name r_off) (name r_on) (show_cnf c);
    (match r_on with
    | Sat.Sat ->
      incr sat_cases;
      if not expected then
        Alcotest.failf "case %d: solver says SAT, brute force says UNSAT on %s" case (show_cnf c);
      if not (model_satisfies c s_on v_on) then
        Alcotest.failf "case %d: reduce-on model violates a clause on %s" case (show_cnf c);
      if not (model_satisfies c s_off v_off) then
        Alcotest.failf "case %d: reduce-off model violates a clause on %s" case (show_cnf c)
    | Sat.Unsat ->
      if expected then
        Alcotest.failf "case %d: solver says UNSAT, brute force says SAT on %s" case (show_cnf c)
    | Sat.Unknown ->
      Alcotest.failf "case %d: budget exhausted on a tiny instance: %s" case (show_cnf c));
    let db_on = check_db_stats ~reduce:true ~case s_on in
    let (_ : Sat.db_stats) = check_db_stats ~reduce:false ~case s_off in
    total_reductions := !total_reductions + db_on.Sat.reductions;
    total_deleted := !total_deleted + db_on.Sat.deleted
  done;
  Fmt.epr "sat-fuzz: %d cases (%d SAT), %d reductions deleted %d clauses@." fuzz_n !sat_cases
    !total_reductions !total_deleted;
  Alcotest.(check bool)
    "some instances were satisfiable and some were not" true
    (!sat_cases > 0 && !sat_cases < fuzz_n);
  Alcotest.(check bool) "the reducer actually fired during the campaign" true (!total_reductions > 0)

(* Incremental differential: one persistent solver takes the clauses in two
   batches with a solve in between — retained learned clauses, activities
   and phases must not flip the final verdict against brute force.  Then
   the same instance is solved under unit assumptions both ways and
   unconstrained again: assumption solves must match brute force with the
   unit added, leave no trace in the clause DB, and their models must set
   the assumed literal. *)
let incremental_fuzz () =
  let st = Random.State.make [| 0x1ac5; 20260805 |] in
  let n = max 200 (fuzz_n / 5) in
  let constrained_unsat = ref 0 and sat_cases = ref 0 in
  for case = 1 to n do
    let c = gen_case st in
    let expected = brute_force c in
    let s = Sat.create () in
    let vars = Array.init c.nvars (fun _ -> Sat.new_var s) in
    let add clause =
      Sat.add_clause s (List.map (fun (v, sign) -> Sat.lit_of_var ~sign vars.(v)) clause)
    in
    let k = List.length c.clauses / 2 in
    List.iteri (fun i clause -> if i < k then add clause) c.clauses;
    let r1 = Sat.solve ~reduce:true ~reduce_first:4 s in
    Sat.check_invariants s;
    if r1 = Sat.Unsat && expected then
      Alcotest.failf "case %d: clause prefix UNSAT but the full CNF is SAT on %s" case
        (show_cnf c);
    List.iteri (fun i clause -> if i >= k then add clause) c.clauses;
    let check_full label =
      match Sat.solve ~reduce:true ~reduce_first:4 s with
      | Sat.Sat ->
        if not expected then
          Alcotest.failf "case %d (%s): incremental SAT, brute force UNSAT on %s" case label
            (show_cnf c);
        if not (model_satisfies c s vars) then
          Alcotest.failf "case %d (%s): incremental model violates a clause on %s" case label
            (show_cnf c)
      | Sat.Unsat ->
        if expected then
          Alcotest.failf "case %d (%s): incremental UNSAT, brute force SAT on %s" case label
            (show_cnf c)
      | Sat.Unknown ->
        Alcotest.failf "case %d (%s): budget exhausted on a tiny instance: %s" case label
          (show_cnf c)
    in
    check_full "second batch";
    if expected then incr sat_cases;
    let v = Random.State.int st c.nvars in
    let check_assumption sign =
      let expected_a = brute_force { c with clauses = [ (v, sign) ] :: c.clauses } in
      match
        Sat.solve ~reduce:true ~reduce_first:4
          ~assumptions:[ Sat.lit_of_var ~sign vars.(v) ]
          s
      with
      | Sat.Sat ->
        if not expected_a then
          Alcotest.failf "case %d: SAT under assumption %s%d, brute force disagrees on %s" case
            (if sign then "" else "-") v (show_cnf c);
        if Sat.model_value s vars.(v) <> sign then
          Alcotest.failf "case %d: model ignores the assumption %s%d on %s" case
            (if sign then "" else "-") v (show_cnf c);
        if not (model_satisfies c s vars) then
          Alcotest.failf "case %d: assumption model violates a clause on %s" case (show_cnf c)
      | Sat.Unsat ->
        if expected_a then
          Alcotest.failf "case %d: UNSAT under assumption %s%d, brute force disagrees on %s" case
            (if sign then "" else "-") v (show_cnf c);
        if expected then incr constrained_unsat
      | Sat.Unknown ->
        Alcotest.failf "case %d: budget exhausted under an assumption: %s" case (show_cnf c)
    in
    check_assumption true;
    check_assumption false;
    (* the assumptions left no trace: the unconstrained verdict is intact *)
    check_full "after assumptions";
    Sat.check_invariants s
  done;
  Fmt.epr "sat-fuzz incremental: %d cases (%d SAT), %d assumption-forced UNSATs@." n !sat_cases
    !constrained_unsat;
  Alcotest.(check bool)
    "mixed verdicts in the campaign" true
    (!sat_cases > 0 && !sat_cases < n);
  Alcotest.(check bool)
    "some assumptions flipped a SAT instance to UNSAT-under-assumptions" true
    (!constrained_unsat > 0)

(* ------------------------------------------------------------------ *)
(* Regression pins: the reduction schedule on a crafted conflict-heavy
   query, and aggregate-stats monotonicity. *)

(* PHP(n+1, n): unsatisfiable, resolution-hard — a deterministic source of
   thousands of conflicts. *)
let pigeonhole s ~pigeons ~holes =
  let v = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.new_var s)) in
  for p = 0 to pigeons - 1 do
    Sat.add_clause s (List.init holes (fun h -> Sat.lit_of_var v.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Sat.add_clause s [ Sat.lit_of_var ~sign:false v.(p1).(h); Sat.lit_of_var ~sign:false v.(p2).(h) ]
      done
    done
  done

let reduction_schedule_test () =
  let s = Sat.create () in
  pigeonhole s ~pigeons:8 ~holes:7;
  let r = Sat.solve ~reduce:true ~reduce_first:100 ~max_conflicts:50_000 s in
  Sat.check_invariants s;
  let db = Sat.db_stats s in
  Fmt.epr "sat-fuzz schedule: %s, learned %d, deleted %d, reductions %d, peak %d, live %d@."
    (match r with Sat.Sat -> "SAT" | Sat.Unsat -> "UNSAT" | Sat.Unknown -> "UNKNOWN")
    db.Sat.learned db.Sat.deleted db.Sat.reductions db.Sat.peak db.Sat.live;
  Alcotest.(check bool) "PHP(8,7) is not SAT" true (r <> Sat.Sat);
  Alcotest.(check bool) "several reduction passes ran" true (db.Sat.reductions >= 2);
  Alcotest.(check bool) "reductions deleted clauses" true (db.Sat.deleted > 0);
  Alcotest.(check bool) "the DB stayed well below the learned total" true
    (db.Sat.peak < db.Sat.learned);
  Alcotest.(check int) "live = learned - deleted" (db.Sat.learned - db.Sat.deleted) db.Sat.live;
  (* the geometric schedule (x3/2 from 100) bounds the live DB: after the
     last reduction at threshold T the DB holds at most ~T + growth-to-the-
     next-threshold clauses; with learned in the thousands, live must be a
     strict fraction of learned *)
  Alcotest.(check bool) "live DB bounded by the schedule" true (db.Sat.live < db.Sat.learned / 2);
  (* glue clauses are never deleted *)
  let glue = db.Sat.lbd_hist.(0) + db.Sat.lbd_hist.(1) in
  Alcotest.(check bool) "glue clauses survived every reduction" true
    (db.Sat.deleted <= db.Sat.learned - glue)

let locked_reasons_test () =
  (* same query, but stress a tiny threshold so reductions run while the
     trail is deep — check_invariants fails if a reason clause is deleted *)
  let s = Sat.create () in
  pigeonhole s ~pigeons:7 ~holes:6;
  let r = Sat.solve ~reduce:true ~reduce_first:20 ~max_conflicts:20_000 s in
  Sat.check_invariants s;
  Alcotest.(check bool) "PHP(7,6) is not SAT" true (r <> Sat.Sat);
  let db = Sat.db_stats s in
  Alcotest.(check bool) "aggressive schedule reduced repeatedly" true (db.Sat.reductions >= 3)

let solver_stats_monotonic_test () =
  Solver.reset_stats ();
  let z = Solver.stats () in
  Alcotest.(check int) "learned starts at 0" 0 z.Solver.learned;
  Alcotest.(check int) "deleted starts at 0" 0 z.Solver.deleted;
  Alcotest.(check int) "reductions start at 0" 0 z.Solver.reductions;
  Alcotest.(check int) "db_peak starts at 0" 0 z.Solver.db_peak;
  Alcotest.(check int) "lbd_hist starts empty" 0 (Array.fold_left ( + ) 0 z.Solver.lbd_hist);
  (* a conflict-heavy query: w-bit mul reassociation (the term-level form
     of Workload.assoc_pair) is valid, so the mismatch formula is UNSAT and
     the solver must actually search *)
  let query w =
    let x = Expr.bv_var "mx" w and y = Expr.bv_var "my" w and z = Expr.bv_var "mz" w in
    let mul = Expr.bin Expr.Mul in
    Expr.not_ (Expr.eq (mul (mul x y) z) (mul x (mul y z)))
  in
  (match Solver.check [ query 5 ] with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "mul reassociation must be UNSAT");
  let a = Solver.stats () in
  Alcotest.(check bool) "conflicts counted" true (a.Solver.conflicts > 0);
  Alcotest.(check bool) "clauses learned" true (a.Solver.learned > 0);
  Alcotest.(check bool) "learned >= deleted" true (a.Solver.learned >= a.Solver.deleted);
  Alcotest.(check bool) "db_peak positive and bounded by learned" true
    (a.Solver.db_peak > 0 && a.Solver.db_peak <= a.Solver.learned);
  Alcotest.(check int) "histogram sums to learned"
    a.Solver.learned
    (Array.fold_left ( + ) 0 a.Solver.lbd_hist);
  (match Solver.check [ query 4 ] with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "mul reassociation must be UNSAT");
  let b = Solver.stats () in
  Alcotest.(check bool) "checks monotone" true (b.Solver.checks > a.Solver.checks);
  Alcotest.(check bool) "conflicts monotone" true (b.Solver.conflicts >= a.Solver.conflicts);
  Alcotest.(check bool) "learned monotone" true (b.Solver.learned >= a.Solver.learned);
  Alcotest.(check bool) "deleted monotone" true (b.Solver.deleted >= a.Solver.deleted);
  Alcotest.(check bool) "reductions monotone" true (b.Solver.reductions >= a.Solver.reductions);
  Alcotest.(check bool) "db_peak monotone (CAS max)" true (b.Solver.db_peak >= a.Solver.db_peak);
  Alcotest.(check bool) "histogram monotone" true
    (Array.for_all2 ( <= ) a.Solver.lbd_hist b.Solver.lbd_hist);
  Alcotest.(check int) "histogram still sums to learned"
    b.Solver.learned
    (Array.fold_left ( + ) 0 b.Solver.lbd_hist);
  Solver.reset_stats ();
  let r = Solver.stats () in
  Alcotest.(check int) "reset zeroes learned" 0 r.Solver.learned;
  Alcotest.(check int) "reset zeroes the histogram" 0 (Array.fold_left ( + ) 0 r.Solver.lbd_hist)

let suite =
  ( "sat-fuzz",
    [
      Alcotest.test_case
        (Fmt.str "differential CNF fuzz, %d cases (VERIOPT_FUZZ_N)" fuzz_n)
        `Slow differential_fuzz;
      Alcotest.test_case "incremental + assumption differential fuzz" `Slow incremental_fuzz;
      Alcotest.test_case "reduction schedule bounds the DB on PHP(8,7)" `Slow
        reduction_schedule_test;
      Alcotest.test_case "aggressive reduction never deletes reasons (PHP(7,6))" `Quick
        locked_reasons_test;
      Alcotest.test_case "Solver.stats clause-DB counters are monotone" `Quick
        solver_stats_monotonic_test;
    ] )
