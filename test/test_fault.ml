(* The resilience layer: fault-spec parsing and determinism, wall-clock
   deadlines and the verdicts they widen, the crash-proof reward path, and
   checkpoint/resume (kill-and-resume must be bit-identical).

   Every test that arms injection disables it again in a [Fun.protect]
   finalizer: the fault config is process-global. *)

open Veriopt_ir
module A = Veriopt_alive.Alive
module Engine = Veriopt_alive.Engine
module Vcache = Veriopt_alive.Vcache
module Solver = Veriopt_smt.Solver
module Fault = Veriopt_fault.Fault
module Par = Veriopt_par.Par
module Model = Veriopt_llm.Model
module Reward = Veriopt_rl.Reward
module Trainer = Veriopt_rl.Trainer
module Checkpoint = Veriopt_rl.Checkpoint
module S = Veriopt_data.Suite

let m0 = Ast.empty_module
let parse = Parser.parse_func

let with_faults spec f =
  (match Fault.configure_string spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bad fault spec %S: %s" spec e);
  Fault.reset_stats ();
  Fun.protect ~finally:Fault.disable f

let tmpdir () =
  let d = Filename.temp_file "veriopt-ckpt" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let category =
  Alcotest.testable
    (fun ppf -> function
      | A.Equivalent -> Fmt.string ppf "Equivalent"
      | A.Semantic_error -> Fmt.string ppf "Semantic_error"
      | A.Syntax_error -> Fmt.string ppf "Syntax_error"
      | A.Inconclusive -> Fmt.string ppf "Inconclusive")
    ( = )

(* SMT-hostile pair: bit-blasted mul reassociation, which only search can
   decide — the shape the deadline exists for. *)
let hostile_pair () = Veriopt_serve.Workload.assoc_pair 12

(* ------------------------------------------------------------------ *)

let spec_tests =
  [
    Alcotest.test_case "spec grammar round-trips" `Quick (fun () ->
        match Fault.parse "seed=9, solver_timeout=1, verify_delay=0.25:0.002" with
        | Error e -> Alcotest.fail e
        | Ok cfg ->
          Alcotest.(check int) "seed" 9 cfg.Fault.seed;
          (match cfg.Fault.specs.(0) with
          | Some s -> Alcotest.(check (float 0.)) "rate" 1.0 s.Fault.rate
          | None -> Alcotest.fail "solver_timeout unset");
          (match cfg.Fault.specs.(2) with
          | Some s -> Alcotest.(check (float 1e-9)) "param" 0.002 s.Fault.param
          | None -> Alcotest.fail "verify_delay unset"));
    Alcotest.test_case "invalid specs are rejected with a reason" `Quick (fun () ->
        List.iter
          (fun bad ->
            match Fault.parse bad with
            | Ok _ -> Alcotest.failf "accepted %S" bad
            | Error _ -> ())
          [ "nonsense"; "bogus_kind=1"; "solver_timeout=2.0"; "seed=abc"; "verify_delay=0.5:x" ]);
    Alcotest.test_case "same spec, same call sequence, same faults" `Quick (fun () ->
        let sequence () =
          with_faults "seed=3,oracle_exn=0.5" (fun () ->
              List.init 64 (fun _ -> Fault.fire Fault.Oracle_exn))
        in
        let a = sequence () and b = sequence () in
        Alcotest.(check (list bool)) "deterministic" a b;
        Alcotest.(check bool) "roughly half fire" true
          (let fires = List.length (List.filter Fun.id a) in
           fires > 16 && fires < 48));
    Alcotest.test_case "disabled injection never fires" `Quick (fun () ->
        Fault.disable ();
        Alcotest.(check bool) "enabled" false (Fault.enabled ());
        Alcotest.(check bool) "fire" false (Fault.fire Fault.Solver_timeout));
  ]

(* ------------------------------------------------------------------ *)

let deadline_tests =
  [
    Alcotest.test_case "expired deadline: Inconclusive immediately" `Quick (fun () ->
        let m, src, tgt = hostile_pair () in
        let t0 = Unix.gettimeofday () in
        let v =
          A.verify_funcs ~max_conflicts:10_000_000 ~deadline:(t0 -. 1.0) m ~src ~tgt
        in
        Alcotest.check category "inconclusive" A.Inconclusive v.A.category;
        Alcotest.(check bool) "fast" true (Unix.gettimeofday () -. t0 < 1.0));
    Alcotest.test_case "deadline bounds a hostile SMT query" `Quick (fun () ->
        let m, src, tgt = hostile_pair () in
        let t0 = Unix.gettimeofday () in
        let v =
          A.verify_funcs ~max_conflicts:10_000_000 ~deadline:(t0 +. 0.05) m ~src ~tgt
        in
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.check category "inconclusive, not hung" A.Inconclusive v.A.category;
        (* amortized checks add slack; the point is seconds, not minutes *)
        Alcotest.(check bool) (Fmt.str "bounded (took %.3fs)" dt) true (dt < 2.0));
    Alcotest.test_case "deadline-expired verdicts are not cached" `Quick (fun () ->
        let m, src, tgt = hostile_pair () in
        let e = Engine.create ~tier1_samples:0 () in
        let v1 =
          Engine.verify_funcs ~max_conflicts:10_000_000
            ~deadline:(Unix.gettimeofday () -. 1.0)
            e m ~src ~tgt
        in
        Alcotest.check category "expired run inconclusive" A.Inconclusive v1.A.category;
        let st = Engine.stats e in
        Alcotest.(check int) "nothing cached" 0 st.Vcache.insertions);
    Alcotest.test_case "100% solver timeouts: verdicts only widen" `Quick (fun () ->
        let ds = S.build ~verify:false ~seed0:99221 ~n:8 () in
        let verdicts e =
          List.map
            (fun (s : S.sample) ->
              (Engine.verify_funcs e s.S.modul ~src:s.S.src ~tgt:s.S.label).A.category)
            ds.S.samples
        in
        let clean = verdicts (Engine.create ()) in
        let chaos = with_faults "seed=5,solver_timeout=1" (fun () -> verdicts (Engine.create ())) in
        List.iter2
          (fun cl ch ->
            if ch <> cl then
              Alcotest.check category "faults may only widen to Inconclusive" A.Inconclusive ch)
          clean chaos);
  ]

(* ------------------------------------------------------------------ *)

let crash_proof_tests =
  [
    Alcotest.test_case "injected parse crash becomes a counted engine failure" `Quick
      (fun () ->
        let src = parse "define i8 @f(i8 %x) {\nentry:\n  ret i8 %x\n}" in
        let completion = "<answer>define i8 @f(i8 %x) {\nentry:\n  ret i8 %x\n}</answer>" in
        with_faults "seed=1,parse_corrupt=1" (fun () ->
            Reward.reset_engine_failures ();
            let vc = Reward.verify_completion m0 ~src completion in
            Alcotest.check category "absorbed as inconclusive" A.Inconclusive
              vc.Reward.verdict.A.category;
            Alcotest.(check int) "counted" 1 (Reward.engine_failures ())));
    Alcotest.test_case "injected oracle crash is absorbed too" `Quick (fun () ->
        let src = parse "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 1\n  ret i8 %r\n}" in
        let completion =
          "<answer>define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 2\n  ret i8 %r\n}</answer>"
        in
        with_faults "seed=1,oracle_exn=1" (fun () ->
            Reward.reset_engine_failures ();
            let vc = Reward.verify_completion ~engine:(Engine.create ()) m0 ~src completion in
            Alcotest.check category "absorbed" A.Inconclusive vc.Reward.verdict.A.category;
            Alcotest.(check int) "counted" 1 (Reward.engine_failures ())));
    Alcotest.test_case "worker death surfaces to the Par caller, not a crash" `Quick
      (fun () ->
        with_faults "seed=1,worker_exn=1" (fun () ->
            let pool = Par.create ~jobs:3 in
            let got =
              try
                ignore (Par.map pool (fun x -> x) (List.init 8 Fun.id));
                `No_exn
              with Fault.Injected _ -> `Injected
            in
            Par.shutdown pool;
            Alcotest.(check bool) "Injected delivered in order" true (got = `Injected)));
  ]

(* ------------------------------------------------------------------ *)

let par_jobs_tests =
  [
    Alcotest.test_case "invalid VERIOPT_JOBS falls back to recommended" `Quick (fun () ->
        let recommended = min 8 (Domain.recommended_domain_count ()) in
        let with_env v f =
          Unix.putenv "VERIOPT_JOBS" v;
          Fun.protect ~finally:(fun () -> Unix.putenv "VERIOPT_JOBS" "") f
        in
        with_env "abc" (fun () ->
            Alcotest.(check int) "abc -> recommended" recommended (Par.default_jobs ()));
        with_env "0" (fun () ->
            Alcotest.(check int) "0 -> recommended" recommended (Par.default_jobs ()));
        with_env "-3" (fun () ->
            Alcotest.(check int) "-3 -> recommended" recommended (Par.default_jobs ()));
        with_env "3" (fun () -> Alcotest.(check int) "3 -> 3" 3 (Par.default_jobs ()));
        Alcotest.(check int) "unset -> recommended" recommended (Par.default_jobs ()));
  ]

(* ------------------------------------------------------------------ *)

let vcache_tests =
  [
    Alcotest.test_case "generation sweep: promotion on old-generation hit" `Quick (fun () ->
        let key i =
          {
            Vcache.ctx = "";
            src = string_of_int i;
            tgt = "";
            unroll = 4;
            max_conflicts = 1;
          }
        in
        let (c : int Vcache.t) = Vcache.create ~capacity:2 () in
        Vcache.add c (key 1) 1;
        Vcache.add c (key 2) 2;
        (* the third insertion sweeps {1,2} into the old generation *)
        Vcache.add c (key 3) 3;
        Alcotest.(check (option int)) "old-gen entry still found" (Some 1) (Vcache.find c (key 1));
        (* the hit promoted it; two more sweeps without touching it evict it *)
        Vcache.add c (key 4) 4;
        Vcache.add c (key 5) 5;
        Vcache.add c (key 6) 6;
        Vcache.add c (key 7) 7;
        Alcotest.(check (option int)) "untouched entry evicted" None (Vcache.find c (key 1));
        let st = Vcache.stats c in
        Alcotest.(check bool) "entries bounded by 2*capacity" true
          (st.Vcache.entries <= 4);
        Alcotest.(check bool) "evictions counted" true (st.Vcache.evictions >= 1));
    Alcotest.test_case "capacity floor and reset" `Quick (fun () ->
        let (c : int Vcache.t) = Vcache.create ~capacity:0 () in
        let st = Vcache.stats c in
        Alcotest.(check int) "capacity clamped to 1" 1 st.Vcache.capacity;
        Vcache.add c
          {
            Vcache.ctx = "x";
            src = "";
            tgt = "";
            unroll = 0;
            max_conflicts = 0;
          }
          9;
        Vcache.reset c;
        let st = Vcache.stats c in
        Alcotest.(check int) "no entries after reset" 0 st.Vcache.entries);
  ]

(* ------------------------------------------------------------------ *)

let theta_alist (m : Model.t) =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) m.Model.theta [] |> List.sort compare

let ckpt_opts dir =
  {
    Trainer.default_options with
    Trainer.grpo_steps = 6;
    group_size = 4;
    checkpoint_dir = dir;
    checkpoint_every = 2;
  }

let checkpoint_tests =
  [
    Alcotest.test_case "snapshot save/load round-trip and validation" `Quick (fun () ->
        let dir = tmpdir () in
        let model = Veriopt_llm.Capability.base_3b () in
        Model.set model "act:rule" 1.25;
        let snap =
          {
            Checkpoint.stage = "model-zero";
            step = 7;
            model;
            rng = Random.State.make [| 42 |];
            rewards_rev = [ 0.5; 0.25 ];
            failures_rev = [];
          }
        in
        Checkpoint.save ~dir snap;
        (match Checkpoint.load ~dir ~stage:"model-zero" with
        | Error e -> Alcotest.fail e
        | Ok got ->
          Alcotest.(check int) "step" 7 got.Checkpoint.step;
          Alcotest.(check (list (float 0.))) "metrics" [ 0.5; 0.25 ] got.Checkpoint.rewards_rev;
          Alcotest.(check bool) "params round-trip" true
            (theta_alist got.Checkpoint.model = theta_alist model);
          (* the marshalled RNG must continue identically *)
          Alcotest.(check int) "rng state round-trips"
            (Random.State.int (Random.State.make [| 42 |]) 1_000_000)
            (Random.State.int got.Checkpoint.rng 1_000_000));
        (match Checkpoint.load ~dir ~stage:"model-latency" with
        | Ok _ -> Alcotest.fail "stage mismatch accepted"
        | Error _ -> ());
        let oc = open_out (Checkpoint.path ~dir ~stage:"model-zero") in
        output_string oc "NOT A CHECKPOINT";
        close_out oc;
        match Checkpoint.load ~dir ~stage:"model-zero" with
        | Ok _ -> Alcotest.fail "corrupt file accepted"
        | Error _ -> ());
    Alcotest.test_case "corrupt snapshot falls back to the previous good one" `Quick
      (fun () ->
        let model = Veriopt_llm.Capability.base_3b () in
        let snap step =
          {
            Checkpoint.stage = "model-zero";
            step;
            model;
            rng = Random.State.make [| step |];
            rewards_rev = [ float_of_int step ];
            failures_rev = [];
          }
        in
        let damaged damage =
          let dir = tmpdir () in
          Checkpoint.save ~dir (snap 2);
          Checkpoint.save ~dir (snap 4) (* rotates the step-2 file into .prev *);
          let path = Checkpoint.path ~dir ~stage:"model-zero" in
          damage path;
          match Checkpoint.load ~dir ~stage:"model-zero" with
          | Error e -> Alcotest.failf "no fallback: %s" e
          | Ok got -> Alcotest.(check int) "previous good snapshot" 2 got.Checkpoint.step
        in
        (* a truncated payload (crash mid-write) fails the length check *)
        damaged (fun path ->
            let len = (Unix.stat path).Unix.st_size in
            Unix.truncate path (len - 7));
        (* a flipped byte (disk rot) fails the CRC *)
        damaged (fun path ->
            let ic = open_in_bin path in
            let len = in_channel_length ic in
            let body = Bytes.of_string (really_input_string ic len) in
            close_in ic;
            Bytes.set body (len - 3) (Char.chr (Char.code (Bytes.get body (len - 3)) lxor 0x5a));
            let oc = open_out_bin path in
            output_bytes oc body;
            close_out oc);
        (* with both generations corrupt, the error mentions each *)
        let dir = tmpdir () in
        Checkpoint.save ~dir (snap 2);
        Checkpoint.save ~dir (snap 4);
        let wreck path =
          let oc = open_out_bin path in
          output_string oc "NOT A CHECKPOINT";
          close_out oc
        in
        let path = Checkpoint.path ~dir ~stage:"model-zero" in
        wreck path;
        wreck (path ^ ".prev");
        match Checkpoint.load ~dir ~stage:"model-zero" with
        | Ok _ -> Alcotest.fail "two corrupt generations accepted"
        | Error _ -> ());
    Alcotest.test_case "kill and resume reproduces the uninterrupted run exactly" `Quick
      (fun () ->
        let train = (S.build ~verify:false ~seed0:55105 ~n:4 ()).S.samples in
        let base = Veriopt_llm.Capability.base_3b () in
        (* reference: uninterrupted *)
        let reference = Trainer.train_model_zero ~opts:(ckpt_opts None) base train in
        (* killed: checkpoints every 2 steps, simulated crash after step 4 *)
        let dir = Some (tmpdir ()) in
        (match
           with_faults "seed=1,trainer_abort=1:4" (fun () ->
               Trainer.train_model_zero ~opts:(ckpt_opts dir) base train)
         with
        | _ -> Alcotest.fail "the injected abort did not fire"
        | exception Fault.Injected _ -> ());
        (* resume from the snapshot written at step 4 *)
        let resumed =
          Trainer.train_model_zero
            ~opts:{ (ckpt_opts dir) with Trainer.resume = true }
            base train
        in
        Alcotest.(check (list (float 0.)))
          "per-step mean rewards bit-identical"
          reference.Trainer.zero_log.Trainer.raw_rewards
          resumed.Trainer.zero_log.Trainer.raw_rewards;
        Alcotest.(check bool) "final model parameters bit-identical" true
          (theta_alist reference.Trainer.model_zero = theta_alist resumed.Trainer.model_zero);
        Alcotest.(check int) "harvested failures match"
          (List.length reference.Trainer.failures)
          (List.length resumed.Trainer.failures));
  ]

(* ------------------------------------------------------------------ *)

let proc_chaos_tests =
  [
    Alcotest.test_case "worker-death chaos cannot break training even without fork" `Quick
      (fun () ->
        (* by this point the test binary has long since spawned Par domains,
           so OCaml 5 refuses to fork: asking for the proc backend must fall
           back to the in-process one (where worker faults have no site to
           fire) and the sweep must still complete every step *)
        let e = Engine.create ~isolate:Engine.Proc () in
        Alcotest.(check bool) "fell back to the domain backend" true
          (Engine.isolate e = Engine.Domains);
        let train = (S.build ~verify:false ~seed0:55111 ~n:4 ()).S.samples in
        let base = Veriopt_llm.Capability.base_3b () in
        let opts =
          {
            Trainer.default_options with
            Trainer.grpo_steps = 4;
            group_size = 4;
            verify_timeout = Some 0.05;
            isolate = Some Engine.Proc;
          }
        in
        let r =
          with_faults "seed=1,worker_hang=1,worker_oom=1" (fun () ->
              Trainer.train_model_zero ~opts base train)
        in
        Alcotest.(check int) "every GRPO step logged" 4
          (List.length r.Trainer.zero_log.Trainer.raw_rewards));
  ]

let suite =
  ( "fault",
    spec_tests @ deadline_tests @ crash_proof_tests @ par_jobs_tests
    @ vcache_tests @ checkpoint_tests @ proc_chaos_tests )
