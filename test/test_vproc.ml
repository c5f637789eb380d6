(* The process-isolation layer: EINTR-safe syscall wrappers, the forked
   worker pool (hard SIGKILL deadlines, rlimits, supervisor respawn), and
   the proc verification backend end to end.

   ORDER MATTERS: OCaml 5 forbids [Unix.fork] in any process that has ever
   created a domain, so this suite runs FIRST in the test binary and keeps
   its own domain-spawning test (the trainer chaos sweep) last.  Everything
   fork-based before that point sees a domain-free runtime. *)

open Veriopt_ir
module A = Veriopt_alive.Alive
module Engine = Veriopt_alive.Engine
module Vcache = Veriopt_alive.Vcache
module Eintr = Veriopt_vproc.Eintr
module Vproc = Veriopt_vproc.Vproc
module Fault = Veriopt_fault.Fault
module Trainer = Veriopt_rl.Trainer
module S = Veriopt_data.Suite

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

let with_faults spec f =
  (match Fault.configure_string spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bad fault spec %S: %s" spec e);
  Fault.reset_stats ();
  Fun.protect ~finally:Fault.disable f

(* SMT-hostile pair: bit-blasted mul reassociation, which only search can
   decide — the shape the deadline exists for. *)
let hostile_pair () = Veriopt_serve.Workload.assoc_pair 12

let easy_pair () =
  let m =
    Parser.parse_module
      "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 0\n  ret i8 %r\n}"
  in
  let src = List.hd m.Ast.funcs in
  let tgt = List.hd (Parser.parse_module "define i8 @f(i8 %x) {\nentry:\n  ret i8 %x\n}").Ast.funcs in
  (m, src, tgt)

(* cyclic, so the worker's iterative-deepening incremental session engages *)
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

(* ------------------------------------------------------------------ *)

let eintr_tests =
  [
    Alcotest.test_case "read_fully/write_fully round-trip a pipe exactly" `Quick (fun () ->
        let r, w = Unix.pipe () in
        Fun.protect
          ~finally:(fun () ->
            Unix.close r;
            Unix.close w)
          (fun () ->
            let n = 8192 in
            let data = Bytes.init n (fun i -> Char.chr ((i * 31) land 0xff)) in
            let got = Bytes.create n in
            (* interleave bounded chunks so one thread never fills the pipe *)
            let rec go off =
              if off < n then begin
                let k = min 4096 (n - off) in
                Eintr.write_fully w data off k;
                Alcotest.(check bool) "no EOF mid-stream" true (Eintr.read_fully r got off k);
                go (off + k)
              end
            in
            go 0;
            Alcotest.(check bool) "payload intact" true (Bytes.equal data got)));
    Alcotest.test_case "read_fully reports EOF as false, not an exception" `Quick (fun () ->
        let r, w = Unix.pipe () in
        Eintr.write_fully w (Bytes.of_string "abc") 0 3;
        Unix.close w;
        let buf = Bytes.create 8 in
        Alcotest.(check bool) "peer closed early" false (Eintr.read_fully r buf 0 8);
        Unix.close r);
    Alcotest.test_case "wait_readable: timeout on silence, ready on data" `Quick (fun () ->
        let r, w = Unix.pipe () in
        Fun.protect
          ~finally:(fun () ->
            Unix.close r;
            Unix.close w)
          (fun () ->
            let t0 = Unix.gettimeofday () in
            (match Eintr.wait_readable r ~deadline:(Some (t0 +. 0.05)) with
            | `Timeout -> ()
            | `Ready -> Alcotest.fail "ready on an empty pipe");
            Alcotest.(check bool) "timeout honored the deadline" true
              (Unix.gettimeofday () -. t0 >= 0.04);
            Eintr.write_fully w (Bytes.of_string "x") 0 1;
            match Eintr.wait_readable r ~deadline:(Some (Unix.gettimeofday () +. 1.0)) with
            | `Ready -> ()
            | `Timeout -> Alcotest.fail "data was waiting"));
    Alcotest.test_case "a signal mid-read retries instead of erroring" `Quick (fun () ->
        let r, w = Unix.pipe () in
        let wrote = ref false in
        let old =
          Sys.signal Sys.sigalrm
            (Sys.Signal_handle
               (fun _ ->
                 if not !wrote then begin
                   wrote := true;
                   Eintr.write_fully w (Bytes.of_string "x") 0 1
                 end))
        in
        Fun.protect
          ~finally:(fun () ->
            ignore
              (Unix.setitimer Unix.ITIMER_REAL
                 { Unix.it_value = 0.; it_interval = 0. });
            Sys.set_signal Sys.sigalrm old;
            Unix.close r;
            Unix.close w)
          (fun () ->
            (* the alarm interrupts the blocking read; the handler supplies
               the byte; the retry must deliver it as if nothing happened *)
            ignore
              (Unix.setitimer Unix.ITIMER_REAL
                 { Unix.it_value = 0.03; it_interval = 0.03 });
            let buf = Bytes.create 1 in
            let n = Eintr.read r buf 0 1 in
            Alcotest.(check int) "one byte" 1 n;
            Alcotest.(check char) "the handler's byte" 'x' (Bytes.get buf 0)));
  ]

(* ------------------------------------------------------------------ *)

(* The pool request language: closure-free values only (Marshal). *)
type cmd =
  | Echo of string
  | Sleep of float * string  (* answer after a nap *)
  | Stamp_sleep of string * float
      (* write the start time to a file, then nap: a call the parent can
         see is in flight *)
  | Hang  (* busy-spin; only SIGKILL ends it *)
  | Crash  (* exit without a response *)
  | Raise  (* handler exception; the worker itself survives *)
  | Alloc of int  (* grab and hold this many MB, tripping RLIMIT_AS *)

let handler = function
  | Echo s -> String.uppercase_ascii s
  | Sleep (d, s) ->
    Unix.sleepf d;
    String.uppercase_ascii s
  | Stamp_sleep (path, d) ->
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_text tmp (fun oc ->
        output_string oc (Printf.sprintf "%.6f" (Unix.gettimeofday ())));
    Sys.rename tmp path;
    Unix.sleepf d;
    "DONE"
  | Hang ->
    while true do
      ignore (Sys.opaque_identity 0)
    done;
    assert false
  | Crash -> Unix._exit 3
  | Raise -> failwith "boom"
  | Alloc mb ->
    let hold = Array.init mb (fun _ -> Bytes.create (1 lsl 20)) in
    string_of_int (Array.length hold)

let with_pool ?mem_headroom_mb f =
  Vproc.reset_stats ();
  let pool = Vproc.create ?mem_headroom_mb ~jobs:1 ~handler () in
  Fun.protect ~finally:(fun () -> Vproc.shutdown pool) (fun () -> f pool)

let check_ok pool what =
  match Vproc.call pool (Echo what) with
  | Ok r -> Alcotest.(check string) ("echo " ^ what) (String.uppercase_ascii what) r
  | Error f -> Alcotest.failf "echo %s failed: %s" what (Vproc.failure_message f)

let pool_tests =
  [
    Alcotest.test_case "echo round-trips frames through a forked worker" `Quick (fun () ->
        with_pool (fun pool ->
            Alcotest.(check bool) "a slot came up" true (Vproc.slots_available pool >= 1);
            check_ok pool "alpha";
            check_ok pool "beta";
            let st = Vproc.stats () in
            Alcotest.(check int) "two frames" 2 st.Vproc.frames;
            Alcotest.(check int) "one worker" 1 st.Vproc.spawned;
            Alcotest.(check int) "nothing killed" 0 st.Vproc.killed));
    Alcotest.test_case "a hung worker is SIGKILLed at the deadline and respawned" `Quick
      (fun () ->
        with_pool (fun pool ->
            let t0 = Unix.gettimeofday () in
            (match Vproc.call ~kill_at:(t0 +. 0.1) pool Hang with
            | Error (Vproc.Killed _) -> ()
            | Ok _ -> Alcotest.fail "a busy-spin returned"
            | Error f -> Alcotest.failf "expected Killed, got %s" (Vproc.failure_message f));
            let dt = Unix.gettimeofday () -. t0 in
            Alcotest.(check bool) (Fmt.str "kill was prompt (%.3fs)" dt) true (dt < 2.0);
            (* the next call must land on a fresh worker *)
            check_ok pool "after-kill";
            let st = Vproc.stats () in
            Alcotest.(check int) "one kill" 1 st.Vproc.killed;
            Alcotest.(check bool) "respawned" true (st.Vproc.respawned >= 1)));
    Alcotest.test_case "a crashing worker yields Crashed, then a fresh worker" `Quick
      (fun () ->
        with_pool (fun pool ->
            (match Vproc.call ~kill_at:(Unix.gettimeofday () +. 10.) pool Crash with
            | Error (Vproc.Crashed _) -> ()
            | Ok _ -> Alcotest.fail "an _exit 3 returned"
            | Error f -> Alcotest.failf "expected Crashed, got %s" (Vproc.failure_message f));
            check_ok pool "after-crash";
            let st = Vproc.stats () in
            Alcotest.(check bool) "crash counted" true (st.Vproc.crashed >= 1);
            Alcotest.(check bool) "respawned" true (st.Vproc.respawned >= 1)));
    Alcotest.test_case "an allocation bomb dies on its rlimit, not in the parent" `Quick
      (fun () ->
        with_pool ~mem_headroom_mb:48 (fun pool ->
            (match Vproc.call ~kill_at:(Unix.gettimeofday () +. 30.) pool (Alloc 512) with
            | Error (Vproc.Crashed _) -> ()
            | Ok held -> Alcotest.failf "held %s MB past a 48 MB headroom" held
            | Error f -> Alcotest.failf "expected Crashed, got %s" (Vproc.failure_message f));
            check_ok pool "after-oom"));
    Alcotest.test_case "handler exceptions come back as values, worker intact" `Quick
      (fun () ->
        with_pool (fun pool ->
            (match Vproc.call pool Raise with
            | Error (Vproc.Handler_raised msg) ->
              Alcotest.(check bool) "carries the message" true (contains msg "boom")
            | Ok _ -> Alcotest.fail "failwith returned Ok"
            | Error f ->
              Alcotest.failf "expected Handler_raised, got %s" (Vproc.failure_message f));
            let before = (Vproc.stats ()).Vproc.spawned in
            check_ok pool "after-raise";
            Alcotest.(check int) "same worker answered" before (Vproc.stats ()).Vproc.spawned));
    Alcotest.test_case "shutdown turns calls into Unavailable" `Quick (fun () ->
        Vproc.reset_stats ();
        let pool = Vproc.create ~jobs:1 ~handler () in
        check_ok pool "live";
        Vproc.shutdown pool;
        match Vproc.call pool (Echo "dead") with
        | Error (Vproc.Unavailable _) -> ()
        | Ok _ -> Alcotest.fail "a closed pool answered"
        | Error f -> Alcotest.failf "expected Unavailable, got %s" (Vproc.failure_message f));
    Alcotest.test_case "VERIOPT_NO_FORK forces graceful unavailability" `Quick (fun () ->
        Unix.putenv "VERIOPT_NO_FORK" "1";
        Fun.protect
          ~finally:(fun () -> Unix.putenv "VERIOPT_NO_FORK" "")
          (fun () ->
            Alcotest.(check bool) "available() says no" false (Vproc.available ());
            let pool = Vproc.create ~jobs:1 ~handler () in
            Alcotest.(check int) "no slots" 0 (Vproc.slots_available pool);
            (match Vproc.call pool (Echo "x") with
            | Error (Vproc.Unavailable _) -> ()
            | Ok _ -> Alcotest.fail "forked despite VERIOPT_NO_FORK"
            | Error f ->
              Alcotest.failf "expected Unavailable, got %s" (Vproc.failure_message f));
            Vproc.shutdown pool);
        Alcotest.(check bool) "empty string reads as unset" true (Vproc.available ()));
  ]

(* ------------------------------------------------------------------ *)

let quiesce_tests =
  [
    Alcotest.test_case "shutdown under an active call quiesces first, leaves no orphans"
      `Quick (fun () ->
        (* Shutdown must not tear the pool down under a call in flight: it
           blocks until the call releases its slot, then reaps
           deterministically, so the orphans audit cannot race the
           supervisor's own reaping. *)
        Vproc.reset_stats ();
        let pool = Vproc.create ~jobs:1 ~handler () in
        let stamp = Filename.temp_file "vproc-quiesce" ".stamp" in
        Sys.remove stamp;
        let nap = 0.3 in
        let result = ref None in
        let caller =
          Thread.create
            (fun () ->
              result :=
                Some
                  (Vproc.call ~kill_at:(Unix.gettimeofday () +. 30.) pool (Stamp_sleep (stamp, nap))))
            ()
        in
        (* wait until the worker is inside the call, then shut down
           underneath it *)
        let give_up = Unix.gettimeofday () +. 10. in
        while (not (Sys.file_exists stamp)) && Unix.gettimeofday () < give_up do
          Thread.delay 0.005
        done;
        let started = float_of_string (In_channel.with_open_text stamp In_channel.input_all) in
        Sys.remove stamp;
        Vproc.shutdown pool;
        let returned = Unix.gettimeofday () in
        Thread.join caller;
        (match !result with
        | Some (Ok r) -> Alcotest.(check string) "the call completed normally" "DONE" r
        | Some (Error f) ->
          Alcotest.failf "call failed under teardown: %s" (Vproc.failure_message f)
        | None -> Alcotest.fail "call never completed");
        Alcotest.(check bool)
          (Fmt.str "shutdown returned %.3fs after the call started (nap %.1fs)"
             (returned -. started) nap)
          true
          (returned -. started >= nap);
        Alcotest.(check int) "no orphans after teardown under load" 0 (Vproc.orphans pool));
  ]

(* ------------------------------------------------------------------ *)

let engine_tests =
  [
    Alcotest.test_case "proc backend verdicts match the in-process backend" `Quick (fun () ->
        let e = Engine.create ~tier1_samples:0 ~isolate:Engine.Proc () in
        Alcotest.(check bool) "proc backend is live" true (Engine.isolate e = Engine.Proc);
        let m_easy, src_e, tgt_e = easy_pair () in
        let fresh = A.verify_funcs m_easy ~src:src_e ~tgt:tgt_e in
        let proc = Engine.verify_funcs e m_easy ~src:src_e ~tgt:tgt_e in
        Alcotest.check category "equivalent pair" fresh.A.category proc.A.category;
        (* a refuted pair and a syntax error, through the same worker *)
        let m =
          Parser.parse_module
            "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 1\n  ret i8 %r\n}"
        in
        let src = List.hd m.Ast.funcs in
        let bad =
          Engine.verify_text e m ~src
            ~tgt_text:"define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 2\n  ret i8 %r\n}"
        in
        Alcotest.check category "refuted pair" A.Semantic_error bad.A.category);
    Alcotest.test_case "incremental deepening through the worker matches in-process" `Quick
      (fun () ->
        (* the worker runs the same deepening schedule as the in-process
           path; it must agree with the in-process single-shot reference
           ([Alive.verify_funcs_single_shot]) on every loop verdict *)
        let e = Engine.create ~tier1_samples:0 ~isolate:Engine.Proc () in
        if Engine.isolate e <> Engine.Proc then
          (* fork refused: the fallback IS the in-process backend, nothing
             to compare across the boundary *)
          ()
        else
          List.iter
            (fun (name, (m, src, tgt)) ->
              let fresh = A.verify_funcs_single_shot m ~src ~tgt in
              let proc = Engine.verify_funcs e m ~src ~tgt in
              Alcotest.check category name fresh.A.category proc.A.category)
            [
              ("terminating loop", loop_pair ());
              ("wrong constant", loop_pair ~ret:4 ());
              ("bound exceeds unroll", loop_pair ~bound:100 ~ret:100 ());
            ]);
    Alcotest.test_case "worker_hang chaos: uncached Inconclusive, killed and respawned"
      `Quick (fun () ->
        let e = Engine.create ~tier1_samples:0 ~isolate:Engine.Proc () in
        let m, src, tgt = hostile_pair () in
        Vproc.reset_stats ();
        with_faults "seed=1,worker_hang=1" (fun () ->
            let t0 = Unix.gettimeofday () in
            let v = Engine.verify_funcs ~deadline:(t0 +. 0.05) e m ~src ~tgt in
            let dt = Unix.gettimeofday () -. t0 in
            Alcotest.check category "degraded, not hung" A.Inconclusive v.A.category;
            Alcotest.(check bool) (Fmt.str "bounded (%.3fs)" dt) true (dt < 2.0);
            (* a cached verdict would return instantly without a second
               kill; a second kill proves it was never cached *)
            let v2 =
              Engine.verify_funcs ~deadline:(Unix.gettimeofday () +. 0.05) e m ~src ~tgt
            in
            Alcotest.check category "still degraded" A.Inconclusive v2.A.category);
        Alcotest.(check int) "each attempt was killed" 2 (Vproc.stats ()).Vproc.killed;
        (* injection off again: the same engine recovers to real verdicts —
           and talking to the slot again is what reads the pid notice of the
           replacement worker, so the respawn shows up in the counters *)
        let m_easy, src_e, tgt_e = easy_pair () in
        let v = Engine.verify_funcs e m_easy ~src:src_e ~tgt:tgt_e in
        Alcotest.check category "pool healthy after the sweep" A.Equivalent v.A.category;
        let v2 = Engine.verify_funcs ~max_conflicts:70_000 e m_easy ~src:tgt_e ~tgt:src_e in
        Alcotest.check category "both slots healthy" A.Equivalent v2.A.category;
        Alcotest.(check bool) "respawns recorded" true
          ((Vproc.stats ()).Vproc.respawned >= 1));
    Alcotest.test_case "worker_oom chaos: the bomb dies in the worker" `Quick (fun () ->
        Unix.putenv "VERIOPT_PROC_MEM_MB" "64";
        Fun.protect
          ~finally:(fun () -> Unix.putenv "VERIOPT_PROC_MEM_MB" "")
          (fun () ->
            let e = Engine.create ~tier1_samples:0 ~isolate:Engine.Proc () in
            let m_easy, src_e, tgt_e = easy_pair () in
            Vproc.reset_stats ();
            with_faults "seed=1,worker_oom=1" (fun () ->
                let v =
                  Engine.verify_funcs
                    ~deadline:(Unix.gettimeofday () +. 5.0)
                    e m_easy ~src:src_e ~tgt:tgt_e
                in
                Alcotest.check category "degraded to Inconclusive" A.Inconclusive v.A.category);
            Alcotest.(check bool) "the worker died" true
              ((Vproc.stats ()).Vproc.crashed >= 1);
            let v = Engine.verify_funcs e m_easy ~src:src_e ~tgt:tgt_e in
            Alcotest.check category "recovered" A.Equivalent v.A.category));
  ]

(* ------------------------------------------------------------------ *)

(* LAST: [Trainer] spins up the Par pool's domains, which permanently
   disables fork in this process — nothing fork-based may run after this. *)
let trainer_tests =
  [
    Alcotest.test_case "100% worker_hang: the stage completes, every death counted"
      `Slow (fun () ->
        let train = (S.build ~verify:false ~seed0:60301 ~n:4 ()).S.samples in
        let base = Veriopt_llm.Capability.base_3b () in
        (* the unverified build above, the pool size and the stats report only
           ask how parallel a run would be; none of them may create the Par
           pool, or the proc backend below silently falls back to domains *)
        Alcotest.(check bool) "a positive job count" true
          (Veriopt_par.Par.shared_jobs () >= 1);
        (let e = Engine.create ~tier1_samples:0 ~isolate:Engine.Domains () in
         let ppf = Format.formatter_of_buffer (Buffer.create 256) in
         Veriopt.Report.engine_stats ppf e;
         Format.pp_print_flush ppf ();
         Engine.shutdown e);
        let engine = Engine.create ~isolate:Engine.Proc () in
        (* a worker respawned after the last kill can be left spinning on a
           stale request; only shutting the pool down reaps it *)
        Fun.protect
          ~finally:(fun () -> Engine.shutdown engine)
          (fun () ->
            Alcotest.(check bool) "proc backend live pre-domains" true
              (Engine.isolate engine = Engine.Proc);
            Vproc.reset_stats ();
            (* one direct hostile call pins the kill path before training *)
            let m, src, tgt = hostile_pair () in
            with_faults "seed=1,worker_hang=1" (fun () ->
                let v =
                  Engine.verify_funcs ~deadline:(Unix.gettimeofday () +. 0.05) engine m ~src
                    ~tgt
                in
                Alcotest.check category "hostile degraded" A.Inconclusive v.A.category);
            Alcotest.(check bool) "worker killed" true ((Vproc.stats ()).Vproc.killed >= 1);
            (* now the sweep: every tier-2 verdict in the reward path degrades,
               the stage itself must neither crash nor hang *)
            let opts =
              {
                Trainer.default_options with
                Trainer.grpo_steps = 4;
                group_size = 4;
                verify_timeout = Some 0.05;
              }
            in
            let r =
              with_faults "seed=1,worker_hang=1" (fun () ->
                  Trainer.train_model_zero ~opts ~engine base train)
            in
            Alcotest.(check int) "every GRPO step logged" 4
              (List.length r.Trainer.zero_log.Trainer.raw_rewards));
        Alcotest.(check int) "no orphans after shutdown" 0 (Engine.orphans engine));
  ]

let suite = ("vproc", eintr_tests @ pool_tests @ quiesce_tests @ engine_tests @ trainer_tests)
