(* The adversarial pain miner: corpus crash-safety and corruption
   degradation, mutator validity, miner smoke with deterministic replay,
   and the workload-replay consumers.

   ORDER MATTERS: the crash test forks a child miner and SIGKILLs it
   mid-commit, so this suite must run before any suite that spawns a
   domain (OCaml 5 forbids fork afterwards).  Within the suite the fork
   test runs first for the same reason. *)

module Corpus = Veriopt_adversary.Corpus
module Miner = Veriopt_adversary.Miner
module Mutate = Veriopt_adversary.Mutate
module Engine = Veriopt_alive.Engine
module Workload = Veriopt_serve.Workload
module Fault = Veriopt_fault.Fault
open Veriopt_ir

let dir_counter = ref 0

let temp_dir () =
  incr dir_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "veriopt-test-adv-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Unix.mkdir d 0o755;
  d

let mk_case i =
  let src = Fmt.str "define i8 @f(i8 %%x) {\nentry:\n  %%r = add i8 %%x, %d\n  ret i8 %%r\n}" i in
  let tgt = Fmt.str "define i8 @f(i8 %%x) {\nentry:\n  %%r = add i8 %%x, %d\n  ret i8 %%r\n}" i in
  {
    Corpus.c_id = 0;
    c_family = "flags";
    c_label = "test";
    c_key = Fmt.str "key-%04d" i;
    c_verdict = "inconclusive";
    c_pain = 1.5;
    c_wall_us = 1200 + i;
    c_conflicts = 34;
    c_unroll = 6;
    c_max_conflicts = 2000;
    c_semantics = Engine.semantics_digest ();
    c_m_text = src;
    c_src_text = src;
    c_tgt_text = tgt;
  }

(* ------------------------------------------------------------------ *)
(* Crash-safety: SIGKILL a child miner mid-commit; the reopened corpus
   must hold only whole cases — zero torn entries, at most the in-flight
   case lost *)

let crash_tests =
  [
    Alcotest.test_case "SIGKILL mid-mine: no torn cases on reopen" `Quick (fun () ->
        let dir = temp_dir () in
        (match Unix.fork () with
        | 0 ->
          (* child: commit synthetic cases as fast as possible until killed *)
          (try
             let c = Corpus.load ~dir in
             for i = 0 to 100_000 do
               ignore (Corpus.add c (mk_case i))
             done
           with _ -> ());
          Unix._exit 0
        | pid ->
          Unix.sleepf 0.2;
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid));
        let c = Corpus.load ~dir in
        let cases = Corpus.cases c in
        let s = Corpus.stats c in
        Alcotest.(check bool)
          (Fmt.str "some cases survived the kill (%d)" (List.length cases))
          true
          (List.length cases > 0);
        Alcotest.(check int) "zero torn or skipped cases" 0 s.Corpus.s_skipped;
        (* tmp+rename per case means every surviving file decodes whole *)
        List.iteri
          (fun i (case : Corpus.case) ->
            Alcotest.(check int) "ids form a contiguous prefix" i case.Corpus.c_id;
            Alcotest.(check bool)
              (Fmt.str "case %d decodes" case.Corpus.c_id)
              true
              (Corpus.decode_pair case <> None))
          cases);
  ]

(* ------------------------------------------------------------------ *)
(* Corpus basics: round-trip, dedup key membership, damage degradation *)

let corpus_tests =
  [
    Alcotest.test_case "cases round-trip across close and reopen" `Quick (fun () ->
        let dir = temp_dir () in
        let c = Corpus.load ~dir in
        for i = 0 to 9 do
          ignore (Corpus.add c (mk_case i))
        done;
        let c' = Corpus.load ~dir in
        let cases = Array.of_list (Corpus.cases c') in
        Alcotest.(check int) "all back" 10 (Array.length cases);
        Array.iteri
          (fun i (case : Corpus.case) ->
            Alcotest.(check int) "id" i case.Corpus.c_id;
            Alcotest.(check string) "key" (Fmt.str "key-%04d" i) case.Corpus.c_key;
            Alcotest.(check string) "family" "flags" case.Corpus.c_family;
            Alcotest.(check int) "unroll" 6 case.Corpus.c_unroll;
            Alcotest.(check bool) "pair decodes" true (Corpus.decode_pair case <> None))
          cases;
        Alcotest.(check bool) "mem_key finds a committed key" true
          (Corpus.mem_key c' "key-0003");
        Alcotest.(check bool) "mem_key rejects a fresh key" true
          (not (Corpus.mem_key c' "key-9999")));
    Alcotest.test_case "a corrupt case file degrades to one counted skip" `Quick (fun () ->
        let dir = temp_dir () in
        let c = Corpus.load ~dir in
        for i = 0 to 4 do
          ignore (Corpus.add c (mk_case i))
        done;
        (* flip a payload byte inside one case file: the CRC frame must
           catch it and the load must keep every other case *)
        let victim = Filename.concat dir "case-000002.vadv" in
        let fd = Unix.openfile victim [ Unix.O_RDWR ] 0 in
        let size = (Unix.fstat fd).Unix.st_size in
        ignore (Unix.lseek fd (size - 5) Unix.SEEK_SET);
        let b = Bytes.create 1 in
        ignore (Unix.read fd b 0 1);
        ignore (Unix.lseek fd (size - 5) Unix.SEEK_SET);
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x20));
        ignore (Unix.write fd b 0 1);
        Unix.close fd;
        let c' = Corpus.load ~dir in
        let s = Corpus.stats c' in
        Alcotest.(check int) "four cases survive" 4 (List.length (Corpus.cases c'));
        Alcotest.(check bool) "damage counted" true (s.Corpus.s_skipped >= 1);
        Alcotest.(check bool) "case 2 is the one lost" true
          (List.for_all (fun (k : Corpus.case) -> k.Corpus.c_id <> 2) (Corpus.cases c'));
        (* a fresh commit into the damaged corpus must not reuse id 2's file *)
        let added = Corpus.add c' (mk_case 99) in
        Alcotest.(check bool) "fresh id past the damaged one" true (added.Corpus.c_id > 4));
    Alcotest.test_case "corpus_corrupt fault forces the counted-skip path" `Quick (fun () ->
        let dir = temp_dir () in
        let c = Corpus.load ~dir in
        for i = 0 to 3 do
          ignore (Corpus.add c (mk_case i))
        done;
        (match Fault.configure_string "seed=1,corpus_corrupt=1.0" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "bad fault spec: %s" e);
        Fun.protect ~finally:Fault.disable @@ fun () ->
        let c' = Corpus.load ~dir in
        Alcotest.(check int) "every read skipped under the fault" 0
          (List.length (Corpus.cases c'));
        Alcotest.(check bool) "skips counted" true ((Corpus.stats c').Corpus.s_skipped >= 4);
        Fault.disable ();
        let c'' = Corpus.load ~dir in
        Alcotest.(check int) "intact once the fault clears" 4
          (List.length (Corpus.cases c'')));
    Alcotest.test_case "a lost index is healed from the directory scan" `Quick (fun () ->
        let dir = temp_dir () in
        let c = Corpus.load ~dir in
        for i = 0 to 3 do
          ignore (Corpus.add c (mk_case i))
        done;
        Sys.remove (Filename.concat dir "index.vadv");
        let c' = Corpus.load ~dir in
        Alcotest.(check int) "all cases recovered" 4 (List.length (Corpus.cases c'));
        Alcotest.(check bool) "rescan counted" true ((Corpus.stats c').Corpus.s_rescans >= 1);
        (* the heal rewrote the index: a third load is clean *)
        let c'' = Corpus.load ~dir in
        Alcotest.(check int) "healed index agrees" 0 (Corpus.stats c'').Corpus.s_rescans);
  ]

(* ------------------------------------------------------------------ *)
(* Mutators: every family produces validator-clean pairs *)

let mutate_tests =
  [
    Alcotest.test_case "mutants validate and cover several families" `Quick (fun () ->
        let cfg = Miner.default_config in
        let rng = Random.State.make [| 42 |] in
        let seen = Hashtbl.create 8 in
        let applied = ref 0 in
        for i = 0 to 39 do
          match Miner.seed_pair cfg i with
          | None -> ()
          | Some (_, p) -> (
            match Mutate.apply rng p with
            | None -> ()
            | Some (family, p') ->
              incr applied;
              Alcotest.(check bool) (Fmt.str "mutant %d (%s) validates" i family) true
                (Mutate.valid p');
              Alcotest.(check bool) "family name is known" true
                (List.mem family Mutate.families);
              Hashtbl.replace seen family ())
        done;
        Alcotest.(check bool) (Fmt.str "%d mutants applied" !applied) true (!applied >= 20);
        Alcotest.(check bool)
          (Fmt.str "%d families seen" (Hashtbl.length seen))
          true
          (Hashtbl.length seen >= 3));
    Alcotest.test_case "widen never fires on a loop" `Quick (fun () ->
        (* widened loop trip counts would make the interpreter-backed
           oracle battery quadratic in the new bound, so widen must be
           restricted to loop-free control flow *)
        let m =
          Parser.parse_module
            "define i8 @f(i8 %x) {\n\
             entry:\n\
            \  br label %loop\n\
             loop:\n\
            \  %i = phi i8 [ 0, %entry ], [ %i1, %loop ]\n\
            \  %i1 = add i8 %i, 1\n\
            \  %c = icmp ult i8 %i1, %x\n\
            \  br i1 %c, label %loop, label %done\n\
             done:\n\
            \  ret i8 %i1\n\
             }"
        in
        let f = List.hd m.Ast.funcs in
        let p = { Mutate.a_m = m; a_src = f; a_tgt = f } in
        let rng = Random.State.make [| 7 |] in
        for _ = 0 to 199 do
          match Mutate.apply rng p with
          | Some ("widen", _) -> Alcotest.fail "widen fired on a loopy function"
          | _ -> ()
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Miner smoke: a short budgeted run mines real cases, minimization
   never flips a conclusive verdict, and replay is deterministic *)

let miner_tests =
  [
    Alcotest.test_case "fast corpus smoke: mine, reopen, replay twice" `Slow (fun () ->
        let dir = temp_dir () in
        let corpus = Corpus.load ~dir in
        let cfg = { Miner.default_config with Miner.mc_budget_s = 4.; mc_max_cases = 6 } in
        let r = Miner.mine ~cfg corpus in
        Alcotest.(check bool) (Fmt.str "mined %d cases" r.Miner.r_mined) true
          (r.Miner.r_mined >= 1);
        Alcotest.(check int) "zero committed verdict flips" 0 r.Miner.r_committed_flips;
        (* reopen from disk and replay on two fresh engines: the verdict
           stream must be a pure function of the corpus *)
        let corpus' = Corpus.load ~dir in
        Alcotest.(check int) "reopen sees every mined case" r.Miner.r_mined
          (List.length (Corpus.cases corpus'));
        let once = Miner.replay corpus' in
        let twice = Miner.replay corpus' in
        Alcotest.(check int) "replay covers the corpus" r.Miner.r_mined (List.length once);
        List.iter2
          (fun (a : Miner.replayed) (b : Miner.replayed) ->
            Alcotest.(check int) "same case" a.Miner.rp_id b.Miner.rp_id;
            Alcotest.(check string)
              (Fmt.str "case %d verdict deterministic" a.Miner.rp_id)
              a.Miner.rp_category b.Miner.rp_category)
          once twice;
        let keys = List.sort_uniq compare (List.map (fun r -> r.Miner.rp_key) once) in
        Alcotest.(check int) "store keys distinct" (List.length once) (List.length keys));
    Alcotest.test_case "miner_stall fault: counted bounded pause, mining continues" `Slow
      (fun () ->
        let dir = temp_dir () in
        (match Fault.configure_string "seed=3,miner_stall=0.5:0.002" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "bad fault spec: %s" e);
        Fun.protect ~finally:Fault.disable @@ fun () ->
        let corpus = Corpus.load ~dir in
        let cfg = { Miner.default_config with Miner.mc_budget_s = 3.; mc_max_cases = 3 } in
        let r = Miner.mine ~cfg corpus in
        Alcotest.(check bool) (Fmt.str "stalls fired (%d)" r.Miner.r_stalls) true
          (r.Miner.r_stalls >= 1);
        Alcotest.(check bool) "mining survived the stalls" true (r.Miner.r_mined >= 1));
  ]

(* ------------------------------------------------------------------ *)
(* Workload determinism (the replay consumer's foundation) *)

let workload_tests =
  [
    Alcotest.test_case "same (seed, index) is bit-identical" `Quick (fun () ->
        for index = 0 to 49 do
          let a = Workload.make ~seed:9 ~index in
          let b = Workload.make ~seed:9 ~index in
          Alcotest.(check string) "label" a.Workload.w_label b.Workload.w_label;
          Alcotest.(check string) "module text"
            (Printer.module_to_string a.Workload.w_m)
            (Printer.module_to_string b.Workload.w_m);
          Alcotest.(check string) "src text"
            (Printer.func_to_string a.Workload.w_src)
            (Printer.func_to_string b.Workload.w_src);
          Alcotest.(check string) "tgt text"
            (Printer.func_to_string a.Workload.w_tgt)
            (Printer.func_to_string b.Workload.w_tgt);
          Alcotest.(check bool) "knobs" true
            (a.Workload.w_unroll = b.Workload.w_unroll
            && a.Workload.w_max_conflicts = b.Workload.w_max_conflicts)
        done);
    Alcotest.test_case "alpha_variant coalesces with the original" `Quick (fun () ->
        for index = 0 to 19 do
          let q = Workload.make ~seed:9 ~index in
          let a = Workload.alpha_variant q in
          Alcotest.(check string)
            (Fmt.str "index %d (%s) coalesce keys equal" index q.Workload.w_label)
            (Engine.coalesce_key q.Workload.w_m ~src:q.Workload.w_src ~tgt:q.Workload.w_tgt)
            (Engine.coalesce_key a.Workload.w_m ~src:a.Workload.w_src ~tgt:a.Workload.w_tgt)
        done);
    Alcotest.test_case "the documented mix holds over 1k indices" `Quick (fun () ->
        let count = Hashtbl.create 8 in
        for index = 0 to 999 do
          let q = Workload.make ~seed:21 ~index in
          Hashtbl.replace count q.Workload.w_label
            (1 + Option.value ~default:0 (Hashtbl.find_opt count q.Workload.w_label))
        done;
        let n label = Option.value ~default:0 (Hashtbl.find_opt count label) in
        let within label lo hi =
          let v = n label in
          Alcotest.(check bool) (Fmt.str "%s share %d in [%d, %d]" label v lo hi) true
            (lo <= v && v <= hi)
        in
        (* ~40% chain loops, ~20% commuted muls, the rest split between
           easy / wrong / count shapes *)
        within "mul-chain" 340 460;
        within "mul-comm" 150 250;
        within "easy" 100 200;
        within "wrong" 100 200;
        within "count" 50 150;
        Alcotest.(check int) "labels partition the stream" 1000
          (Hashtbl.fold (fun _ v acc -> v + acc) count 0));
    Alcotest.test_case "make_from replays mined queries deterministically" `Quick (fun () ->
        let mined =
          Array.init 3 (fun i ->
              let case = mk_case i in
              Workload.of_pair ~label:(Fmt.str "mined-%d" i) ~unroll:6 ~max_conflicts:2000
                (Parser.parse_module case.Corpus.c_m_text)
                ~src:(Parser.parse_func case.Corpus.c_src_text)
                ~tgt:(Parser.parse_func case.Corpus.c_tgt_text))
        in
        let source = Workload.Mined mined in
        for index = 0 to 19 do
          let a = Workload.make_from ~source ~seed:5 ~index in
          let b = Workload.make_from ~source ~seed:5 ~index in
          Alcotest.(check string) "mined pick deterministic" a.Workload.w_label
            b.Workload.w_label;
          Alcotest.(check bool) "label is a mined one" true
            (String.length a.Workload.w_label >= 6
            && String.sub a.Workload.w_label 0 6 = "mined-")
        done;
        (* an empty corpus falls back to the synthetic stream *)
        let e = Workload.make_from ~source:(Workload.Mined [||]) ~seed:5 ~index:0 in
        let s = Workload.make ~seed:5 ~index:0 in
        Alcotest.(check string) "empty corpus falls back" s.Workload.w_label
          e.Workload.w_label);
  ]

let suite =
  ("adversary", crash_tests @ corpus_tests @ mutate_tests @ miner_tests @ workload_tests)
