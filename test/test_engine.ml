(* The tiered, cached verification engine: cached verdicts match fresh
   ones, tier 1's concrete counterexamples agree with the SMT verdict, the
   cache stays bounded, and the Par pool is observationally List.map. *)

open Veriopt_ir
module A = Veriopt_alive.Alive
module Engine = Veriopt_alive.Engine
module Vcache = Veriopt_alive.Vcache
module Oracle = Veriopt_eval.Exec_oracle
module Par = Veriopt_par.Par
module Reward = Veriopt_rl.Reward
module S = Veriopt_data.Suite

let m0 = Ast.empty_module
let parse = Parser.parse_func

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let category =
  Alcotest.testable
    (fun ppf -> function
      | A.Equivalent -> Fmt.string ppf "Equivalent"
      | A.Semantic_error -> Fmt.string ppf "Semantic_error"
      | A.Syntax_error -> Fmt.string ppf "Syntax_error"
      | A.Inconclusive -> Fmt.string ppf "Inconclusive")
    ( = )

(* a small battery covering every verdict category *)
let battery =
  [
    ( "equivalent fold",
      "define i32 @f(i32 %x) {\nentry:\n  %r = add i32 %x, 0\n  ret i32 %r\n}",
      "define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}" );
    ( "identity copy",
      "define i32 @f(i32 %x) {\nentry:\n  %r = add i32 %x, 0\n  ret i32 %r\n}",
      "define i32 @f(i32 %x) {\nentry:\n  %r = add i32 %x, 0\n  ret i32 %r\n}" );
    ( "wrong constant",
      "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 1\n  ret i8 %r\n}",
      "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 2\n  ret i8 %r\n}" );
    ( "garbage target",
      "define i8 @f(i8 %x) {\nentry:\n  ret i8 %x\n}",
      "this is not IR at all" );
  ]

let cached_matches_fresh_tests =
  [
    Alcotest.test_case "engine verdict = seed verdict, then cache hit repeats it" `Quick
      (fun () ->
        let e = Engine.create () in
        List.iter
          (fun (name, src_text, tgt_text) ->
            let src = parse src_text in
            let fresh = A.verify_text m0 ~src ~tgt_text in
            let tiered = Engine.verify_text e m0 ~src ~tgt_text in
            Alcotest.check category (name ^ " category") fresh.A.category tiered.A.category;
            (* second query must come from the cache and be byte-identical *)
            let again = Engine.verify_text e m0 ~src ~tgt_text in
            Alcotest.(check bool) (name ^ " cached identical") true (tiered = again))
          battery;
        let st = Engine.stats e in
        Alcotest.(check bool) "cache was hit" true (st.Vcache.hits >= 1));
    Alcotest.test_case "verdict preserved across the dataset suite" `Quick (fun () ->
        let ds = S.build ~verify:false ~seed0:77001 ~n:12 () in
        let e = Engine.create () in
        List.iter
          (fun (s : S.sample) ->
            let fresh = A.verify_funcs s.S.modul ~src:s.S.src ~tgt:s.S.label in
            let tiered = Engine.verify_funcs e s.S.modul ~src:s.S.src ~tgt:s.S.label in
            Alcotest.check category
              (Printf.sprintf "sample %d label" s.S.id)
              fresh.A.category tiered.A.category)
          ds.S.samples);
  ]

let tier1_tests =
  [
    Alcotest.test_case "concrete counterexample agrees with SMT and skips it" `Quick
      (fun () ->
        let src =
          parse "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 1\n  ret i8 %r\n}"
        in
        let tgt =
          parse "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 2\n  ret i8 %r\n}"
        in
        let smt = A.verify_funcs m0 ~src ~tgt in
        Alcotest.check category "SMT says semantic error" A.Semantic_error smt.A.category;
        let e = Engine.create () in
        let v = Engine.verify_funcs e m0 ~src ~tgt in
        Alcotest.check category "tier 1 agrees" A.Semantic_error v.A.category;
        let st = Engine.stats e in
        Alcotest.(check bool) "tier 1 short-circuited" true (st.Vcache.tier1_hits >= 1);
        Alcotest.(check int) "SMT tier never ran" 0 st.Vcache.tier2_runs;
        (* the diagnostic carries the distinguishing input, alive2-style *)
        Alcotest.(check bool)
          "diagnostic shows an example" true
          (contains v.A.message "Example:"));
    Alcotest.test_case "tier 1 disabled falls through to SMT" `Quick (fun () ->
        let src = parse "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 1\n  ret i8 %r\n}" in
        let tgt = parse "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 2\n  ret i8 %r\n}" in
        let e = Engine.create ~tier1_samples:0 () in
        let v = Engine.verify_funcs e m0 ~src ~tgt in
        Alcotest.check category "still semantic error" A.Semantic_error v.A.category;
        let st = Engine.stats e in
        Alcotest.(check int) "tier 1 never ran" 0 (st.Vcache.tier1_hits + st.Vcache.tier1_misses);
        Alcotest.(check bool) "SMT ran" true (st.Vcache.tier2_runs >= 1));
  ]

let cache_tests =
  [
    Alcotest.test_case "generation sweep keeps the cache bounded" `Quick (fun () ->
        let capacity = 4 in
        let e = Engine.create ~capacity () in
        (* 12 distinct queries through a capacity-4 cache *)
        for k = 1 to 12 do
          let src =
            parse
              (Printf.sprintf "define i8 @f(i8 %%x) {\nentry:\n  %%r = add i8 %%x, %d\n  ret i8 %%r\n}" k)
          in
          ignore (Engine.verify_funcs e m0 ~src ~tgt:src)
        done;
        let st = Engine.stats e in
        Alcotest.(check bool) "entries bounded by 2*capacity" true
          (st.Vcache.entries <= (2 * capacity));
        Alcotest.(check bool) "sweeps evicted something" true (st.Vcache.evictions > 0);
        Alcotest.(check int) "every query was distinct" 12 st.Vcache.misses);
    Alcotest.test_case "reset zeroes counters and drops entries" `Quick (fun () ->
        let e = Engine.create () in
        let src = parse "define i8 @f(i8 %x) {\nentry:\n  ret i8 %x\n}" in
        ignore (Engine.verify_funcs e m0 ~src ~tgt:src);
        Engine.reset_stats e;
        let st = Engine.stats e in
        Alcotest.(check int) "no entries" 0 st.Vcache.entries;
        Alcotest.(check int) "no misses" 0 st.Vcache.misses);
  ]

let par_tests =
  [
    Alcotest.test_case "Par.map = List.map for pool sizes 1..4" `Quick (fun () ->
        let xs = List.init 100 (fun i -> i) in
        let f x = (x * x) + 7 in
        let expected = List.map f xs in
        List.iter
          (fun jobs ->
            let pool = Par.create ~jobs in
            let got = Par.map pool f xs in
            Par.shutdown pool;
            Alcotest.(check (list int))
              (Printf.sprintf "jobs=%d order and values" jobs)
              expected got)
          [ 1; 2; 3; 4 ]);
    Alcotest.test_case "Par.map re-raises the first exception" `Quick (fun () ->
        let pool = Par.create ~jobs:3 in
        let raised =
          try
            ignore (Par.map pool (fun x -> if x = 5 then failwith "boom" else x) (List.init 10 Fun.id));
            false
          with Failure m -> m = "boom"
        in
        Par.shutdown pool;
        Alcotest.(check bool) "Failure boom propagated" true raised);
  ]

let satellite_tests =
  [
    Alcotest.test_case "random_value samples the full 64-bit range" `Quick (fun () ->
        let rng = Random.State.make [| 31337 |] in
        let top_bit_seen = ref false in
        for _ = 1 to 100 do
          if Int64.compare (Oracle.random_value rng 64) 0L < 0 then top_bit_seen := true
        done;
        Alcotest.(check bool) "a negative (top-bit-set) value appeared" true !top_bit_seen);
    Alcotest.test_case "syntax_verdict and missing answer tags" `Quick (fun () ->
        let v = Reward.syntax_verdict "no <answer> tags" in
        Alcotest.check category "syntax" A.Syntax_error v.A.category;
        let src = parse "define i8 @f(i8 %x) {\nentry:\n  ret i8 %x\n}" in
        let vc = Reward.verify_completion m0 ~src "a completion with no tags" in
        Alcotest.check category "untagged completion" A.Syntax_error
          vc.Reward.verdict.A.category);
  ]

(* the solver-bound pair; width-parameterized so consecutive queries never
   share a cache key *)
let hostile_pair w = Veriopt_serve.Workload.assoc_pair w

(* a counting loop against a constant: cyclic, so the bounded encoding and
   the iterative-deepening incremental session engage *)
let loop_pair ?(bound = 3) ?(ret = 3) () =
  let src =
    Printf.sprintf
      "define i32 @f(i32 %%n) {\nentry:\n  br label %%h\nh:\n  %%i = phi i32 [ 0, %%entry ], [ \
       %%i2, %%b ]\n  %%c = icmp slt i32 %%i, %d\n  br i1 %%c, label %%b, label %%x\nb:\n  %%i2 \
       = add i32 %%i, 1\n  br label %%h\nx:\n  ret i32 %%i\n}"
      bound
  in
  let tgt = Printf.sprintf "define i32 @f(i32 %%n) {\nentry:\n  ret i32 %d\n}" ret in
  let m = Parser.parse_module src in
  (m, List.hd m.Ast.funcs, List.hd (Parser.parse_module tgt).Ast.funcs)

(* the hostile reassociation inside a data-dependent-exit loop: every
   deepening step re-poses it, so no realistic deadline survives it *)
let hostile_loop_pair w = Veriopt_serve.Workload.assoc_chain_pair w

let incremental_tests =
  [
    Alcotest.test_case "iterative deepening agrees with single-shot unroll" `Quick (fun () ->
        (* handwritten loop pairs covering every verdict the deepening loop
           can produce, plus a slice of the generated corpus (some samples
           carry loops): the deepening session must never flip a verdict
           against the single-shot reference at the full bound *)
        List.iter
          (fun (name, (m, src, tgt)) ->
            let fresh = A.verify_funcs_single_shot m ~src ~tgt in
            let incr = A.verify_funcs m ~src ~tgt in
            Alcotest.check category name fresh.A.category incr.A.category)
          [
            ("terminating loop", loop_pair ());
            ("wrong constant", loop_pair ~ret:4 ());
            ("bound exceeds unroll", loop_pair ~bound:100 ~ret:100 ());
            ("loop against itself", (fun (m, src, _) -> (m, src, src)) (loop_pair ()));
            ("mul reassociation in a loop", hostile_loop_pair 4);
          ];
        let ds = S.build ~verify:false ~seed0:88111 ~n:10 () in
        List.iter
          (fun (s : S.sample) ->
            let fresh =
              A.verify_funcs_single_shot s.S.modul ~src:s.S.src ~tgt:s.S.label
            in
            let incr = A.verify_funcs s.S.modul ~src:s.S.src ~tgt:s.S.label in
            Alcotest.check category
              (Printf.sprintf "sample %d" s.S.id)
              fresh.A.category incr.A.category)
          ds.S.samples);
    Alcotest.test_case "deepening verdicts at the default bound" `Quick (fun () ->
        let check name expect (m, src, tgt) =
          let v = A.verify_funcs m ~src ~tgt in
          Alcotest.check category name expect v.A.category;
          Alcotest.(check bool) (name ^ " is bounded") true v.A.bounded
        in
        check "exhausted loop proves equivalent" A.Equivalent (loop_pair ());
        check "wrong constant is refuted" A.Semantic_error (loop_pair ~ret:4 ());
        (* a loop that cannot exhaust the bound has no terminating execution
           within it, so bounded validation accepts vacuously — same as the
           single-shot path *)
        check "unexhausted loop verifies vacuously" A.Equivalent
          (loop_pair ~bound:100 ~ret:100 ()));
  ]

let deadline_tests =
  [
    Alcotest.test_case "deadline-expired verdicts are never cached" `Quick (fun () ->
        let e = Engine.create ~tier1_samples:0 () in
        let m, src, tgt = hostile_pair 12 in
        let v =
          Engine.verify_funcs ~deadline:(Unix.gettimeofday () +. 0.05) e m ~src ~tgt
        in
        Alcotest.check category "deadline widened" A.Inconclusive v.A.category;
        let st = Engine.stats e in
        Alcotest.(check int) "nothing was inserted" 0 st.Vcache.insertions;
        (* the retry is a genuine re-run, not a cache hit *)
        ignore (Engine.verify_funcs ~deadline:(Unix.gettimeofday () +. 0.05) e m ~src ~tgt);
        let st = Engine.stats e in
        Alcotest.(check int) "second attempt ran tier 2 again" 2 st.Vcache.tier2_runs;
        Alcotest.(check int) "still nothing cached" 0 st.Vcache.insertions);
    Alcotest.test_case "deadline death mid-session leaves no poisoned state" `Quick (fun () ->
        (* a loop pair drives the incremental deepening session; a deadline
           expiring inside it must yield an uncached Inconclusive, and the
           next check on the same engine must conclude from a clean session *)
        let e = Engine.create ~tier1_samples:0 () in
        let m, src, tgt = loop_pair () in
        let v = Engine.verify_funcs ~deadline:(Unix.gettimeofday () -. 1.0) e m ~src ~tgt in
        Alcotest.check category "expired deadline widens" A.Inconclusive v.A.category;
        let st = Engine.stats e in
        Alcotest.(check int) "nothing cached" 0 st.Vcache.insertions;
        (* a deadline that dies between depths, not before the first solve *)
        let mh, srch, tgth = hostile_loop_pair 12 in
        let v2 =
          Engine.verify_funcs ~deadline:(Unix.gettimeofday () +. 0.05) e mh ~src:srch ~tgt:tgth
        in
        Alcotest.check category "mid-session death widens" A.Inconclusive v2.A.category;
        let st = Engine.stats e in
        Alcotest.(check int) "still nothing cached" 0 st.Vcache.insertions;
        (* the abandoned sessions corrupt nothing: the retry concludes *)
        let v3 = Engine.verify_funcs e m ~src ~tgt in
        Alcotest.check category "retry concludes" A.Equivalent v3.A.category;
        let st = Engine.stats e in
        Alcotest.(check int) "all three were real tier-2 runs" 3 st.Vcache.tier2_runs;
        Alcotest.(check int) "the conclusive verdict was cached" 1 st.Vcache.insertions);
  ]

let report_tests =
  [
    Alcotest.test_case "engine_stats report renders every counter block" `Quick (fun () ->
        let e = Engine.create () in
        let src = parse "define i8 @f(i8 %x) {\nentry:\n  ret i8 %x\n}" in
        ignore (Engine.verify_funcs e m0 ~src ~tgt:src);
        let buf = Buffer.create 256 in
        let ppf = Format.formatter_of_buffer buf in
        Veriopt.Report.engine_stats ppf e;
        Format.pp_print_flush ppf ();
        let out = Buffer.contents buf in
        List.iter
          (fun block ->
            Alcotest.(check bool) (block ^ " present") true (contains out block))
          [ "cache"; "tier"; "sat"; "VERIOPT_JOBS" ]);
  ]

let fuel_tests =
  [
    Alcotest.test_case "tier 1 classifies a long-running pair on its own fuel" `Quick (fun () ->
        (* about 400k interpreter steps per run: past the 200k default,
           inside this engine's 1M budget.  Re-running the distinguishing
           input on less fuel than the oracle had would lose both values
           and fall back to the generic "does not refine" message. *)
        let m, src, tgt = loop_pair ~bound:80_000 ~ret:80_001 () in
        let e = Engine.create ~tier1_fuel:1_000_000 () in
        let v = Engine.verify_funcs e m ~src ~tgt in
        Alcotest.check category "semantic error" A.Semantic_error v.A.category;
        let st = Engine.stats e in
        Alcotest.(check int) "decided by tier 1" 1 st.Vcache.tier1_hits;
        Alcotest.(check int) "SMT tier never ran" 0 st.Vcache.tier2_runs;
        List.iter
          (fun line -> Alcotest.(check bool) line true (contains v.A.message line))
          [ "Value mismatch"; "Source value: 80000"; "Target value: 80001" ]);
  ]

(* Validation item 10 of the paper pipeline (an -O0 lowering) and the
   Model-Latency answer to it.  The answer never stores the loop counter
   [%i3.addr.9], the body's update or the return slot: in the concrete
   interpreter allocas start zeroed, so [for.cond.10] loads 0 forever and
   every tier-1 run of the target diverges.  No sample distinguishes the
   pair, and tier 2 (where the uninitialised slots are undef) decides it. *)
let item10_src =
  {|define i16 @f10(i8 %p0) {
entry:
  %retval = alloca i16, align 2
  %p0.addr.1 = alloca i8, align 1
  %v1.addr.5 = alloca i16, align 2
  %v2.addr.8 = alloca i32, align 4
  %i3.addr.9 = alloca i32, align 4
  store i8 %p0, ptr %p0.addr.1, align 1
  %t2 = sub nsw i16 -2, -2
  %t3 = sub nsw i16 -2, -2
  %t4 = sub nsw i16 %t2, %t3
  store i16 %t4, ptr %v1.addr.5, align 2
  %t6 = and i32 198, -1
  %t7 = shl i32 %t6, 26
  store i32 %t7, ptr %v2.addr.8, align 4
  store i32 0, ptr %i3.addr.9, align 4
  br label %for.cond.10
for.cond.10:
  %t14 = load i32, ptr %i3.addr.9, align 4
  %cmp15 = icmp slt i32 %t14, 1
  br i1 %cmp15, label %for.body.11, label %for.end.13
for.body.11:
  %t16 = load i8, ptr %p0.addr.1, align 1
  %t17 = load i8, ptr %p0.addr.1, align 1
  %t18 = mul nsw i8 %t16, %t17
  %t19 = shl i8 %t18, 1
  %t20 = ashr i8 %t19, 1
  store i8 %t20, ptr %p0.addr.1, align 1
  br label %for.inc.12
for.inc.12:
  %t21 = load i32, ptr %i3.addr.9, align 4
  %inc22 = add nsw i32 %t21, 1
  store i32 %inc22, ptr %i3.addr.9, align 4
  br label %for.cond.10
for.end.13:
  %t23 = load i16, ptr %v1.addr.5, align 2
  %t24 = load i16, ptr %v1.addr.5, align 2
  %t25 = sub nsw i16 %t23, %t24
  %t26 = mul nsw i16 %t25, 4
  store i16 %t26, ptr %retval, align 2
  br label %return
dead.27:
  br label %return
return:
  %rv28 = load i16, ptr %retval, align 2
  ret i16 %rv28
}|}

let item10_tgt =
  {|define i16 @f10(i8 %p0) {
entry:
  %retval = alloca i16, align 2
  %p0.addr.1 = alloca i8, align 1
  %v1.addr.5 = alloca i16, align 2
  %v2.addr.8 = alloca i32, align 4
  %i3.addr.9 = alloca i32, align 4
  store i8 %p0, ptr %p0.addr.1, align 1
  store i16 0, ptr %v1.addr.5, align 2
  br label %for.cond.10
for.cond.10:
  %t14 = load i32, ptr %i3.addr.9, align 4
  %cmp15 = icmp slt i32 %t14, 1
  br i1 %cmp15, label %for.body.11, label %for.end.13
for.body.11:
  %t16 = load i8, ptr %p0.addr.1, align 1
  %t17 = load i8, ptr %p0.addr.1, align 1
  %t18 = mul nsw i8 %t16, %t17
  %t19 = shl nsw i8 %t18, 1
  %t20 = ashr i8 %t19, 1
  br label %for.inc.12
for.inc.12:
  %t21 = load i32, ptr %i3.addr.9, align 4
  %inc22 = add nsw i32 %t21, 1
  br label %for.cond.10
for.end.13:
  %t23 = load i16, ptr %v1.addr.5, align 2
  %t24 = load i16, ptr %v1.addr.5, align 2
  %t25 = sub nsw i16 %t23, %t24
  %t26 = shl nsw i16 %t25, 2
  br label %return
dead.27:
  br label %return
return:
  %rv28 = load i16, ptr %retval, align 2
  ret i16 %rv28
}|}

let divergence_tests =
  [
    Alcotest.test_case "a target that never stores its loop counter: tier 2 decides" `Quick
      (fun () ->
        let m = Parser.parse_module item10_src in
        let src = List.hd m.Ast.funcs in
        let tgt = parse item10_tgt in
        let e = Engine.create () in
        let v = Engine.verify_funcs e m ~src ~tgt in
        Alcotest.check category "semantic error" A.Semantic_error v.A.category;
        Alcotest.(check bool) "a value mismatch" true (contains v.A.message "Value mismatch");
        let st = Engine.stats e in
        Alcotest.(check int) "tier 1 found no distinguishing input" 0 st.Vcache.tier1_hits;
        Alcotest.(check int) "tier 1 ran its battery" 1 st.Vcache.tier1_misses;
        Alcotest.(check int) "decided by tier 2" 1 st.Vcache.tier2_runs);
  ]

let suite =
  ( "engine",
    cached_matches_fresh_tests @ tier1_tests @ cache_tests @ par_tests @ satellite_tests
    @ incremental_tests @ deadline_tests @ report_tests @ divergence_tests @ fuel_tests )
