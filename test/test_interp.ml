(* Concrete interpreter semantics: values, poison, UB, memory, calls. *)

open Veriopt_ir
module I = Veriopt_eval.Interp

let parse = Parser.parse_func

let run_i32 ?(m = Ast.empty_module) src args =
  let f = parse src in
  (I.run m f (List.map (fun v -> I.vint 32 v) args)).I.ret

let check_ret msg expected actual =
  match actual with
  | Some (I.VInt { v; _ }) -> Alcotest.(check int64) msg expected v
  | Some I.VPoison -> Alcotest.failf "%s: got poison" msg
  | _ -> Alcotest.failf "%s: unexpected result" msg

let expect_ub src args =
  let f = parse src in
  match I.run Ast.empty_module f (List.map (fun v -> I.vint 32 v) args) with
  | _ -> Alcotest.fail "expected UB"
  | exception I.Undefined_behavior _ -> ()

let expect_poison src args =
  match run_i32 src args with
  | Some I.VPoison -> ()
  | _ -> Alcotest.fail "expected poison"

let arithmetic_tests =
  [
    Alcotest.test_case "basic arithmetic" `Quick (fun () ->
        check_ret "add" 8L
          (run_i32 "define i32 @f(i32 %x) {\nentry:\n  %r = add i32 %x, 3\n  ret i32 %r\n}" [ 5L ]));
    Alcotest.test_case "wrapping" `Quick (fun () ->
        check_ret "wrap" 0L
          (run_i32
             "define i32 @f(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}"
             [ 0xffffffffL ]));
    Alcotest.test_case "signed division" `Quick (fun () ->
        check_ret "sdiv" (Bits.mask 32 (-2L))
          (run_i32
             "define i32 @f(i32 %x) {\nentry:\n  %r = sdiv i32 %x, 3\n  ret i32 %r\n}"
             [ Bits.mask 32 (-7L) ]));
    Alcotest.test_case "icmp and select" `Quick (fun () ->
        let src =
          "define i32 @f(i32 %x) {\nentry:\n  %c = icmp slt i32 %x, 0\n  %r = select i1 %c, i32 1, i32 2\n  ret i32 %r\n}"
        in
        check_ret "neg" 1L (run_i32 src [ Bits.mask 32 (-5L) ]);
        check_ret "pos" 2L (run_i32 src [ 5L ]));
    Alcotest.test_case "casts" `Quick (fun () ->
        check_ret "trunc+sext" (Bits.mask 32 (-1L))
          (run_i32
             "define i32 @f(i32 %x) {\nentry:\n  %t = trunc i32 %x to i8\n  %s = sext i8 %t to i32\n  ret i32 %s\n}"
             [ 0xffL ]));
  ]

let ub_tests =
  [
    Alcotest.test_case "division by zero is UB" `Quick (fun () ->
        expect_ub "define i32 @f(i32 %x) {\nentry:\n  %r = udiv i32 %x, 0\n  ret i32 %r\n}" [ 1L ]);
    Alcotest.test_case "sdiv overflow is UB" `Quick (fun () ->
        expect_ub
          "define i32 @f(i32 %x) {\nentry:\n  %r = sdiv i32 %x, -1\n  ret i32 %r\n}"
          [ 0x80000000L ]);
    Alcotest.test_case "branch on poison is UB" `Quick (fun () ->
        expect_ub
          "define i32 @f(i32 %x) {\nentry:\n  %p = add nsw i32 %x, 1\n  %c = icmp eq i32 %p, 0\n  br i1 %c, label %a, label %b\na:\n  ret i32 1\nb:\n  ret i32 2\n}"
          [ 0x7fffffffL ]);
    Alcotest.test_case "unreachable is UB" `Quick (fun () ->
        expect_ub "define i32 @f(i32 %x) {\nentry:\n  unreachable\n}" [ 0L ]);
    Alcotest.test_case "null store is UB" `Quick (fun () ->
        expect_ub
          "define i32 @f(i32 %x) {\nentry:\n  store i32 %x, ptr null, align 4\n  ret i32 0\n}"
          [ 1L ]);
    Alcotest.test_case "out-of-bounds store is UB" `Quick (fun () ->
        expect_ub
          "define i32 @f(i32 %x) {\nentry:\n  %p = alloca i8, align 1\n  store i32 %x, ptr %p, align 4\n  ret i32 0\n}"
          [ 1L ]);
  ]

let poison_tests =
  [
    Alcotest.test_case "nsw overflow yields poison" `Quick (fun () ->
        expect_poison
          "define i32 @f(i32 %x) {\nentry:\n  %r = add nsw i32 %x, 1\n  ret i32 %r\n}"
          [ 0x7fffffffL ]);
    Alcotest.test_case "no overflow, no poison" `Quick (fun () ->
        check_ret "ok" 6L
          (run_i32 "define i32 @f(i32 %x) {\nentry:\n  %r = add nsw i32 %x, 1\n  ret i32 %r\n}" [ 5L ]));
    Alcotest.test_case "oversized shift is poison" `Quick (fun () ->
        expect_poison
          "define i32 @f(i32 %x) {\nentry:\n  %r = shl i32 %x, 32\n  ret i32 %r\n}" [ 1L ]);
    Alcotest.test_case "poison propagates through arithmetic" `Quick (fun () ->
        expect_poison
          "define i32 @f(i32 %x) {\nentry:\n  %p = shl i32 %x, 40\n  %r = add i32 %p, 1\n  ret i32 %r\n}"
          [ 1L ]);
    Alcotest.test_case "exact division violation is poison" `Quick (fun () ->
        expect_poison
          "define i32 @f(i32 %x) {\nentry:\n  %r = udiv exact i32 %x, 2\n  ret i32 %r\n}" [ 7L ]);
    Alcotest.test_case "freeze stops poison" `Quick (fun () ->
        match
          run_i32
            "define i32 @f(i32 %x) {\nentry:\n  %p = shl i32 %x, 40\n  %fr = freeze i32 %p\n  ret i32 %fr\n}"
            [ 1L ]
        with
        | Some (I.VInt _) -> ()
        | _ -> Alcotest.fail "freeze should produce a defined value");
    Alcotest.test_case "store/load preserves poison" `Quick (fun () ->
        expect_poison
          "define i32 @f(i32 %x) {\nentry:\n  %a = alloca i32, align 4\n  %p = shl i32 %x, 40\n  store i32 %p, ptr %a, align 4\n  %v = load i32, ptr %a, align 4\n  ret i32 %v\n}"
          [ 1L ]);
  ]

let memory_tests =
  [
    Alcotest.test_case "store/load roundtrip" `Quick (fun () ->
        check_ret "rt" 42L
          (run_i32
             "define i32 @f(i32 %x) {\nentry:\n  %p = alloca i32, align 4\n  store i32 %x, ptr %p, align 4\n  %v = load i32, ptr %p, align 4\n  ret i32 %v\n}"
             [ 42L ]));
    Alcotest.test_case "narrow store into struct field via gep" `Quick (fun () ->
        check_ret "field" 7L
          (run_i32
             {|define i32 @f(i32 %x) {
entry:
  %p = alloca { i32, i32 }, align 4
  %q = getelementptr inbounds { i32, i32 }, ptr %p, i64 0, i32 1
  store i32 7, ptr %q, align 4
  %v = load i32, ptr %q, align 4
  ret i32 %v
}|}
             [ 0L ]));
    Alcotest.test_case "distinct allocas do not alias" `Quick (fun () ->
        check_ret "noalias" 1L
          (run_i32
             {|define i32 @f(i32 %x) {
entry:
  %p = alloca i32, align 4
  %q = alloca i32, align 4
  store i32 1, ptr %p, align 4
  store i32 2, ptr %q, align 4
  %v = load i32, ptr %p, align 4
  ret i32 %v
}|}
             [ 0L ]));
    Alcotest.test_case "little-endian multi-width access" `Quick (fun () ->
        check_ret "low byte" 0xddL
          (run_i32
             {|define i32 @f(i32 %x) {
entry:
  %p = alloca i32, align 4
  store i32 %x, ptr %p, align 4
  %b = load i8, ptr %p, align 1
  %z = zext i8 %b to i32
  ret i32 %z
}|}
             [ 0xaabbccddL ]));
    Alcotest.test_case "global initializer visible" `Quick (fun () ->
        let m = Parser.parse_module "@g = global i32 11\ndefine i32 @f() {\nentry:\n  %v = load i32, ptr @g, align 4\n  ret i32 %v\n}" in
        let f = List.hd m.Ast.funcs in
        match (I.run m f []).I.ret with
        | Some (I.VInt { v; _ }) -> Alcotest.(check int64) "init" 11L v
        | _ -> Alcotest.fail "bad result");
  ]

let control_tests =
  [
    Alcotest.test_case "loop computes a sum" `Quick (fun () ->
        check_ret "sum 0..4" 10L
          (run_i32
             {|define i32 @f(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  br label %head
exit:
  ret i32 %acc
}|}
             [ 5L ]));
    Alcotest.test_case "phi reads simultaneous values" `Quick (fun () ->
        (* swap idiom through phis *)
        check_ret "swap" 1L
          (run_i32
             {|define i32 @f(i32 %n) {
entry:
  br label %loop
loop:
  %a = phi i32 [ 0, %entry ], [ %b, %loop ]
  %b = phi i32 [ 1, %entry ], [ %a, %loop ]
  %c = icmp eq i32 %a, 0
  br i1 %c, label %loop, label %out
out:
  ret i32 %a
}|}
             [ 0L ]));
    Alcotest.test_case "switch dispatch" `Quick (fun () ->
        let src =
          {|define i32 @f(i32 %x) {
entry:
  switch i32 %x, label %d [ i32 1, label %a i32 2, label %b ]
a:
  ret i32 100
b:
  ret i32 200
d:
  ret i32 300
}|}
        in
        check_ret "case1" 100L (run_i32 src [ 1L ]);
        check_ret "case2" 200L (run_i32 src [ 2L ]);
        check_ret "default" 300L (run_i32 src [ 9L ]));
    Alcotest.test_case "infinite loop raises Out_of_fuel" `Quick (fun () ->
        let f = parse "define i32 @f(i32 %x) {\nentry:\n  br label %entry2\nentry2:\n  br label %entry2\n}" in
        match I.run ~fuel:1000 Ast.empty_module f [ I.vint 32 0L ] with
        | _ -> Alcotest.fail "expected fuel exhaustion"
        | exception I.Out_of_fuel -> ());
    Alcotest.test_case "call trace records impure calls" `Quick (fun () ->
        let m =
          Parser.parse_module
            "declare void @sink(i32)\ndefine i32 @f(i32 %x) {\nentry:\n  call void @sink(i32 %x)\n  ret i32 0\n}"
        in
        let f = List.hd m.Ast.funcs in
        let outcome = I.run m f [ I.vint 32 9L ] in
        Alcotest.(check int) "one call" 1 (List.length outcome.I.call_trace));
  ]

(* Property: the interpreter is deterministic. *)
let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:40 ~name:"interpretation is deterministic"
         QCheck2.Gen.(pair (int_bound 50_000) (int_bound 1000))
         (fun (seed, arg) ->
           let cf = Veriopt_data.Cgen.generate ~seed ~name:"t" () in
           let m, f = Veriopt_data.Lower.lower cf in
           let args =
             List.map
               (fun (ty, _) -> I.vint (Types.width ty) (Int64.of_int arg))
               f.Ast.params
           in
           let run () =
             match I.run ~fuel:50_000 m f args with
             | o -> `Ret o.I.ret
             | exception I.Undefined_behavior msg -> `Ub msg
             | exception I.Out_of_fuel -> `Fuel
           in
           run () = run ()));
  ]

module O = Veriopt_eval.Exec_oracle

let oracle_tests =
  [
    Alcotest.test_case "oracle accepts equivalent functions" `Quick (fun () ->
        let src = parse "define i32 @f(i32 %x) {\nentry:\n  %r = add i32 %x, 0\n  ret i32 %r\n}" in
        let tgt = parse "define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}" in
        match O.equivalent Ast.empty_module ~src ~tgt with
        | O.Io_equivalent n -> Alcotest.(check bool) "ran samples" true (n > 8)
        | _ -> Alcotest.fail "expected IO equivalence");
    Alcotest.test_case "oracle catches a boundary-value bug" `Quick (fun () ->
        let src = parse "define i8 @f(i8 %x) {\nentry:\n  %r = sub i8 %x, 1\n  ret i8 %r\n}" in
        let tgt = parse "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 1\n  ret i8 %r\n}" in
        match O.equivalent Ast.empty_module ~src ~tgt with
        | O.Io_different _ -> ()
        | _ -> Alcotest.fail "expected a distinguishing input");
    Alcotest.test_case "oracle overestimates where the verifier does not" `Quick (fun () ->
        (* wrong only on one magic 32-bit input: finite testing waves it
           through, formal verification rejects it -- the paper's central
           motivation (via LLM-Vectorizer) *)
        let src = parse "define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}" in
        let tgt =
          parse
            "define i32 @f(i32 %x) {\nentry:\n  %c = icmp eq i32 %x, 123456789\n  %r = select i1 %c, i32 0, i32 %x\n  ret i32 %r\n}"
        in
        (match O.equivalent Ast.empty_module ~src ~tgt with
        | O.Io_equivalent _ -> ()
        | _ -> Alcotest.fail "finite testing should miss the magic input");
        let v = Veriopt_alive.Alive.verify_funcs Ast.empty_module ~src ~tgt in
        Alcotest.(check bool) "formal verification catches it" true
          (v.Veriopt_alive.Alive.category = Veriopt_alive.Alive.Semantic_error));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:30
         ~name:"a distinguishing input refutes formal equivalence"
         QCheck2.Gen.(pair (int_bound 20_000) (int_bound 5))
         (fun (seed, k) ->
           let cf = Veriopt_data.Cgen.generate ~seed ~name:"t" () in
           let m, src = Veriopt_data.Lower.lower cf in
           let base, _ = Veriopt_passes.Pass_manager.instcombine m src in
           let tgt =
             Veriopt_llm.Actions.apply_unsound base
               (List.nth
                  Veriopt_llm.Actions.
                    [ Wrong_constant; Predicate_flip; Drop_store; Flip_operands; Bogus_flag; Width_confusion ]
                  k)
               0
           in
           match Veriopt_ir.Validator.validate_func ~module_:m tgt with
           | Error _ -> QCheck2.assume_fail ()
           | Ok () -> (
             match O.equivalent m ~src ~tgt with
             | O.Io_different _ ->
               (* the oracle found a bug: the formal verdict must agree --
                  except for bounded (loop-unrolled) validation, which is
                  allowed to miss beyond-bound behaviour, exactly Alive2's
                  documented limitation (paper SVI) *)
               let v = Veriopt_alive.Alive.verify_funcs ~max_conflicts:60_000 m ~src ~tgt in
               v.Veriopt_alive.Alive.category <> Veriopt_alive.Alive.Equivalent
               || v.Veriopt_alive.Alive.bounded
             | O.Io_equivalent _ | O.Io_unsupported _ -> true)));
  ]

(* The oracle-verdict battery: Cgen functions under both profiles, each
   against its [Pass_manager.aggressive] output and against model-style
   unsound edits of the -O0 lowering and of that output (every dropped
   store, the first and last site of each other edit kind).  A dropped
   store to a loop counter makes a candidate diverge.  Returns the verdicts
   rendered one per line, the number of loop-bearing sources and the number
   of candidates that run out of fuel on the all-zero input. *)
let oracle_battery () =
  let module Cgen = Veriopt_data.Cgen in
  let module Act = Veriopt_llm.Actions in
  let edits =
    Act.
      [
        Wrong_constant;
        Flip_operands;
        Predicate_flip;
        Drop_store;
        Bogus_flag;
        Width_confusion;
        Stale_forward;
      ]
  in
  let show_value = function
    | I.VInt { width; v } -> Printf.sprintf "i%d:%Ld" width v
    | I.VPtr { base; offset } -> Printf.sprintf "p%d+%d" base offset
    | I.VPoison -> "poison"
  in
  let lines = Buffer.create 4096 and loops = ref 0 and diverging = ref 0 in
  List.iter
    (fun (pname, profile) ->
      for seed = 9100 to 9129 do
        let cf = Cgen.generate ~profile ~seed ~name:"t" () in
        let m, src = Veriopt_data.Lower.lower cf in
        if Cfg.has_loop (Cfg.of_func src) then incr loops;
        let opt, _ = Veriopt_passes.Pass_manager.aggressive m src in
        let edited base =
          List.concat_map
            (fun k ->
              let n = Act.unsound_sites base k in
              let sites =
                if n = 0 then []
                else if k = Act.Drop_store then List.init n Fun.id
                else List.sort_uniq compare [ 0; n - 1 ]
              in
              List.map (Act.apply_unsound base k) sites)
            edits
        in
        List.iteri
          (fun i tgt ->
            match Validator.validate_func ~module_:m tgt with
            | Error _ -> ()
            | Ok () ->
              let zeros = List.map (fun (ty, _) -> I.vint (Types.width ty) 0L) tgt.Ast.params in
              (match I.run ~fuel:200_000 m tgt zeros with
              | exception I.Out_of_fuel -> incr diverging
              | _ | (exception I.Undefined_behavior _) -> ());
              let verdict =
                match O.equivalent m ~src ~tgt with
                | O.Io_equivalent n -> Printf.sprintf "equivalent %d" n
                | O.Io_different args -> "different " ^ String.concat "," (List.map show_value args)
                | O.Io_unsupported why -> "unsupported " ^ why
              in
              Buffer.add_string lines (Printf.sprintf "%s %d %d %s\n" pname seed i verdict))
          ((opt :: edited src) @ edited opt)
      done)
    [ ("default", Cgen.default_profile); ("adversarial", Cgen.adversarial_profile) ];
  (Buffer.contents lines, !loops, !diverging)

(* A counter loop [for (i = start; i != bound; i += step) ; return i] at
   width [w].  It runs [5k + 5] steps when the smallest [k] with
   [start + k * step = bound (mod 2^w)] exists, and never returns when no
   such [k] does. *)
let counter_loop w ~start ~bound ~step =
  parse
    (Printf.sprintf
       "define i%d @f() {\nentry:\n  br label %%head\nhead:\n  %%i = phi i%d [ %Ld, %%entry ], [ \
        %%i2, %%body ]\n  %%c = icmp ne i%d %%i, %Ld\n  br i1 %%c, label %%body, label \
        %%exit\nbody:\n  %%i2 = add i%d %%i, %Ld\n  br label %%head\nexit:\n  ret i%d %%i\n}"
       w w (Bits.to_signed w start) w (Bits.to_signed w bound) w (Bits.to_signed w step) w)

(* The trip count in closed form: with [step = 2^t * odd], [k] exists iff
   [2^t] divides [bound - start], and is then [(d / 2^t) * odd^-1] modulo
   [2^(w-t)]; the inverse comes from Newton's iteration on 2-adic numbers. *)
let trip_count w ~start ~bound ~step =
  let d = Bits.mask w (Int64.sub bound start) in
  if step = 0L then if d = 0L then Some 0L else None
  else
    let rec tz x = if Int64.logand x 1L = 1L then 0 else 1 + tz (Int64.shift_right_logical x 1) in
    let t = tz step in
    if Bits.mask t d <> 0L then None
    else
      let odd = Int64.shift_right_logical step t in
      let inv = ref odd in
      for _ = 1 to 5 do
        inv := Int64.mul !inv (Int64.sub 2L (Int64.mul odd !inv))
      done;
      Some (Bits.mask (w - t) (Int64.mul (Int64.shift_right_logical d t) !inv))

let divergence_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:120
         ~name:"a counter loop returns exactly when its step count fits the fuel"
         QCheck2.Gen.(
           tup6 (oneofl [ 8; 16; 32 ]) int
             (frequency [ (1, pure 0); (3, int_range (-3) 4); (2, int) ])
             (frequency [ (3, map Option.some (int_bound 60_000)); (1, pure None) ])
             int (int_bound 350_000))
         (fun (w, start, step, trips, rand_bound, rand_fuel) ->
           let start = Bits.mask w (Int64.of_int start)
           and step = Bits.mask w (Int64.of_int step) in
           let bound =
             match trips with
             | Some k -> Bits.mask w (Int64.add start (Int64.mul (Int64.of_int k) step))
             | None -> Bits.mask w (Int64.of_int rand_bound)
           in
           let k = trip_count w ~start ~bound ~step in
           let steps = Option.map (fun k -> (5 * Int64.to_int k) + 5) k in
           (* half the budgets sit on the boundary: one step short, exact *)
           let fuel =
             match steps with
             | Some n when rand_fuel mod 2 = 0 && n <= 350_000 -> n + (rand_fuel / 2 mod 2)
             | _ -> 1 + rand_fuel
           in
           let f = counter_loop w ~start ~bound ~step in
           match (I.run ~fuel Ast.empty_module f [], steps) with
           | o, Some n when n < fuel ->
             o.I.steps = n && o.I.ret = Some (I.vint w bound)
           | _, _ -> false
           | exception I.Out_of_fuel -> (
             match steps with Some n -> n >= fuel | None -> true)));
    Alcotest.test_case "a period-1 loop on unbounded fuel stops promptly" `Quick (fun () ->
        let f =
          parse "define i32 @f(i32 %x) {\nentry:\n  br label %spin\nspin:\n  br label %spin\n}"
        in
        let t0 = Unix.gettimeofday () in
        (match I.run ~fuel:max_int Ast.empty_module f [ I.vint 32 0L ] with
        | _ -> Alcotest.fail "a self-loop returned"
        | exception I.Out_of_fuel -> ());
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) (Printf.sprintf "stopped in %.3fs" dt) true (dt < 1.0));
    Alcotest.test_case "oracle verdicts over the Cgen battery are pinned" `Slow (fun () ->
        let lines, loops, diverging = oracle_battery () in
        let digest = String.sub (Digest.to_hex (Digest.string lines)) 0 8 in
        (* recorded before tier 1 detected divergence; on a mismatch the
           log carries every verdict for a diff *)
        if digest <> "35ca3886" then print_string lines;
        Alcotest.(check bool) (Printf.sprintf "loop-bearing sources (%d)" loops) true (loops >= 4);
        Alcotest.(check bool)
          (Printf.sprintf "diverging candidates (%d)" diverging)
          true (diverging >= 2);
        Alcotest.(check string) "verdict digest" "35ca3886" digest);
  ]

let suite =
  ( "interp",
    arithmetic_tests @ ub_tests @ poison_tests @ memory_tests @ control_tests @ oracle_tests
    @ property_tests @ divergence_tests )
