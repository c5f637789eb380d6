(* The overload-safe serving layer: queue priorities and shedding,
   EWMA admission control, in-queue coalescing of alpha-equivalent
   queries, graceful drain, and chaos behavior under seeded faults plus
   real worker kills.

   ORDER MATTERS: the chaos test forks a Proc engine pool, so this suite
   must run before any suite that spawns a domain (OCaml 5 forbids fork
   afterwards).  The serve layer's own workers are systhreads, which are
   safe in a domain-free process. *)

open Veriopt_ir
module A = Veriopt_alive.Alive
module Engine = Veriopt_alive.Engine
module Serve = Veriopt_serve.Serve
module Workload = Veriopt_serve.Workload
module Fault = Veriopt_fault.Fault
module Vproc = Veriopt_vproc.Vproc

let parse_pair src_text tgt_text =
  let m = Parser.parse_module src_text in
  (m, List.hd m.Ast.funcs, List.hd (Parser.parse_module tgt_text).Ast.funcs)

(* SMT-hostile blocker: holds a dispatcher busy until its deadline. *)
let hostile_pair () = Workload.assoc_pair 11

let easy_text k =
  Fmt.str "define i32 @f(i32 %%x) {\nentry:\n  %%r = add i32 %%x, %d\n  ret i32 %%r\n}" k

let easy_pair k = parse_pair (easy_text k) (easy_text k)

let with_serve ?config ?(engine = fun () -> Engine.create ()) f =
  let sv = Serve.create ?config ~engine:(engine ()) () in
  Fun.protect ~finally:(fun () -> ignore (Serve.drain ~timeout:10. sv)) (fun () -> f sv)

(* Submit a hostile query and give the (single) dispatcher a moment to pick
   it up, so subsequent submissions demonstrably sit in the queue. *)
let occupy_worker sv ~for_s =
  let m, src, tgt = hostile_pair () in
  let tk =
    Serve.submit ~priority:Serve.Bulk
      ~deadline:(Unix.gettimeofday () +. for_s)
      ~max_conflicts:100_000_000 sv m ~src ~tgt
  in
  Unix.sleepf 0.1;
  tk

let reason = function
  | Serve.Rejected { reason; _ } -> Serve.reason_name reason
  | Serve.Verdict _ -> "verdict"

let quiet_config =
  (* single worker, no admission: queue behavior is deterministic *)
  {
    Serve.default_config with
    Serve.workers = 1;
    admission = false;
    interactive_deadline_s = 30.;
    bulk_deadline_s = 30.;
  }

let serve_tests =
  [
    Alcotest.test_case "verify round-trips a verdict through the service" `Quick (fun () ->
        with_serve (fun sv ->
            let m, src, tgt = easy_pair 7 in
            match Serve.verify sv m ~src ~tgt with
            | Serve.Verdict v ->
              Alcotest.(check bool) "equivalent" true (v.A.category = A.Equivalent)
            | Serve.Rejected { detail; _ } -> Alcotest.failf "rejected: %s" detail));
    Alcotest.test_case
      "coalescing: N identical + M alpha-renamed waiters, one engine call" `Quick (fun () ->
        with_serve ~config:quiet_config (fun sv ->
            let blocker = occupy_worker sv ~for_s:0.5 in
            let m, src, tgt = easy_pair 3 in
            let q =
              { Workload.w_label = "easy"; w_m = m; w_src = src; w_tgt = tgt;
                w_unroll = None; w_max_conflicts = None }
            in
            let alpha = Workload.alpha_variant q in
            (* the alpha variant really is renamed, not a copy *)
            Alcotest.(check bool) "renamed text differs" true
              (Printer.func_to_string tgt <> Printer.func_to_string alpha.Workload.w_tgt);
            let n_identical = 4 and n_alpha = 3 in
            let tks =
              List.init n_identical (fun _ -> Serve.submit sv m ~src ~tgt)
              @ List.init n_alpha (fun _ ->
                    Serve.submit sv alpha.Workload.w_m ~src:alpha.Workload.w_src
                      ~tgt:alpha.Workload.w_tgt)
            in
            let outcomes = List.map Serve.await tks in
            List.iter
              (function
                | Serve.Verdict v ->
                  Alcotest.(check bool) "equivalent" true (v.A.category = A.Equivalent)
                | o -> Alcotest.failf "waiter rejected: %s" (reason o))
              outcomes;
            ignore (Serve.await blocker);
            let s = Serve.stats sv in
            Alcotest.(check int) "coalesced waiters" (n_identical + n_alpha - 1)
              s.Serve.coalesced;
            Alcotest.(check int) "engine calls: blocker + one for the group" 2
              s.Serve.engine_calls));
    Alcotest.test_case "interactive pops before earlier-queued bulk" `Quick (fun () ->
        with_serve ~config:{ quiet_config with Serve.coalesce = false } (fun sv ->
            let blocker = occupy_worker sv ~for_s:0.4 in
            let mb, sb, tb = easy_pair 1 in
            let mi, si, ti = easy_pair 2 in
            let bulk = Serve.submit ~priority:Serve.Bulk sv mb ~src:sb ~tgt:tb in
            let inter = Serve.submit ~priority:Serve.Interactive sv mi ~src:si ~tgt:ti in
            ignore (Serve.await bulk);
            ignore (Serve.await inter);
            ignore (Serve.await blocker);
            Alcotest.(check bool)
              (Fmt.str "interactive latency (%.0fms) below bulk (%.0fms)"
                 (Serve.latency inter *. 1e3) (Serve.latency bulk *. 1e3))
              true
              (Serve.latency inter < Serve.latency bulk)));
    Alcotest.test_case "full queue sheds by the documented policy" `Quick (fun () ->
        let config = { quiet_config with Serve.queue_capacity = 2; coalesce = false } in
        with_serve ~config (fun sv ->
            let blocker = occupy_worker sv ~for_s:0.6 in
            let now = Unix.gettimeofday () in
            let sub ?priority dl k =
              let m, src, tgt = easy_pair k in
              Serve.submit ?priority ~deadline:(now +. dl) sv m ~src ~tgt
            in
            let b1 = sub 10. 10 in
            let b2 = sub 20. 11 in
            (* most-expired bulk (b1) is displaced by a later-deadline bulk *)
            let b3 = sub 30. 12 in
            Alcotest.(check string) "b1 displaced" "displaced" (reason (Serve.await b1));
            (* a bulk newcomer that outranks nothing is itself rejected *)
            let b4 = sub 1. 13 in
            Alcotest.(check string) "b4 queue_full" "queue_full" (reason (Serve.await b4));
            (* interactive always displaces bulk *)
            let i1 = sub ~priority:Serve.Interactive 10. 14 in
            Alcotest.(check string) "b2 displaced" "displaced" (reason (Serve.await b2));
            List.iter
              (fun (name, tk) ->
                match Serve.await tk with
                | Serve.Verdict _ -> ()
                | o -> Alcotest.failf "%s should have been served, got %s" name (reason o))
              [ ("b3", b3); ("i1", i1) ];
            ignore (Serve.await blocker);
            let s = Serve.stats sv in
            Alcotest.(check int) "two displaced" 2 s.Serve.shed_displaced;
            Alcotest.(check int) "one queue-full rejection" 1 s.Serve.shed_queue_full));
    Alcotest.test_case "a queued request expires at its deadline, not silently" `Quick
      (fun () ->
        with_serve ~config:quiet_config (fun sv ->
            let blocker = occupy_worker sv ~for_s:0.4 in
            let m, src, tgt = easy_pair 21 in
            let tk = Serve.submit ~deadline:(Unix.gettimeofday () +. 0.05) sv m ~src ~tgt in
            Alcotest.(check string) "expired" "expired" (reason (Serve.await tk));
            ignore (Serve.await blocker);
            Alcotest.(check int) "counted" 1 (Serve.stats sv).Serve.shed_expired));
    Alcotest.test_case "admission control refuses a doomed deadline in microseconds" `Quick
      (fun () ->
        let config = { Serve.default_config with Serve.workers = 1 } in
        with_serve ~config (fun sv ->
            (* warm the per-tier EWMAs with one hostile query *)
            let m, src, tgt = hostile_pair () in
            (match
               Serve.verify
                 ~deadline:(Unix.gettimeofday () +. 0.2)
                 ~max_conflicts:100_000_000 sv m ~src ~tgt
             with
            | Serve.Verdict _ | Serve.Rejected _ -> ());
            Alcotest.(check bool) "tier-2 ewma warmed" true
              ((Engine.stats (Serve.engine sv)).Veriopt_alive.Vcache.tier2_ewma_s > 0.);
            let me, se, te = easy_pair 31 in
            let t0 = Unix.gettimeofday () in
            let tk = Serve.submit ~deadline:(t0 +. 0.001) sv me ~src:se ~tgt:te in
            let dt = Unix.gettimeofday () -. t0 in
            (match Serve.poll tk with
            | Some (Serve.Rejected { reason = Serve.Deadline_unmeetable; _ }) -> ()
            | Some o -> Alcotest.failf "expected deadline_unmeetable, got %s" (reason o)
            | None -> Alcotest.fail "refusal was not immediate");
            Alcotest.(check bool) (Fmt.str "refused fast (%.1fms)" (dt *. 1e3)) true (dt < 0.05);
            Alcotest.(check int) "counted" 1 (Serve.stats sv).Serve.admission_refused));
    Alcotest.test_case "drain stops admission, resolves everything, reaps everything" `Quick
      (fun () ->
        let sv = Serve.create ~config:quiet_config ~engine:(Engine.create ()) () in
        let m, src, tgt = easy_pair 41 in
        let tk = Serve.submit sv m ~src ~tgt in
        let r1 = Serve.drain ~timeout:5. sv in
        Alcotest.(check int) "no orphans" 0 r1.Serve.drain_orphans;
        (match Serve.await tk with
        | Serve.Verdict _ -> ()
        | o -> Alcotest.failf "pre-drain work lost: %s" (reason o));
        (match Serve.verify sv m ~src ~tgt with
        | Serve.Rejected { reason = Serve.Draining; _ } -> ()
        | o -> Alcotest.failf "post-drain submit not refused: %s" (reason o));
        let r2 = Serve.drain sv in
        Alcotest.(check bool) "drain is idempotent" true (r1 = r2));
  ]

(* Chaos: seeded serve-layer faults + real worker kills (worker_hang forces
   the vproc hard-SIGKILL path) under a submission hammer.  The contract:
   every ticket resolves to a Verdict or an explicit Rejected — no
   exception, no hang — and teardown leaves zero orphaned processes. *)
let chaos_tests =
  [
    Alcotest.test_case "chaos: fault sweep + worker kills yield only honest outcomes"
      `Quick (fun () ->
        (match
           Fault.configure_string
             "seed=3,worker_hang=0.1,queue_full=0.05,client_disconnect=0.05,slow_drain=0.05:0.002"
         with
        | Ok () -> ()
        | Error e -> Alcotest.failf "bad fault spec: %s" e);
        Fault.reset_stats ();
        Fun.protect ~finally:Fault.disable @@ fun () ->
        let engine = Engine.create ~tier1_samples:0 ~isolate:Engine.Proc () in
        let config =
          {
            Serve.default_config with
            Serve.queue_capacity = 16;
            workers = 4;
            interactive_deadline_s = 0.08;
            bulk_deadline_s = 0.3;
          }
        in
        let sv = Serve.create ~config ~engine () in
        let n = 120 in
        let tickets =
          List.init n (fun i ->
              let q = Workload.make ~seed:7 ~index:i in
              let priority = if i mod 4 = 0 then Serve.Interactive else Serve.Bulk in
              Serve.submit ~priority ?unroll:q.Workload.w_unroll
                ?max_conflicts:q.Workload.w_max_conflicts sv q.Workload.w_m
                ~src:q.Workload.w_src ~tgt:q.Workload.w_tgt)
        in
        let verdicts = ref 0 and rejections = ref 0 in
        List.iter
          (fun tk ->
            match Serve.await tk with
            | Serve.Verdict _ -> incr verdicts
            | Serve.Rejected _ -> incr rejections)
          tickets;
        Alcotest.(check int) "every request answered" n (!verdicts + !rejections);
        let report = Serve.drain ~timeout:10. sv in
        Alcotest.(check int) "zero orphans after drain" 0 report.Serve.drain_orphans;
        let s = Serve.stats sv in
        Alcotest.(check bool) "some work actually reached the engine" true
          (s.Serve.engine_calls > 0);
        (* the serve fault kinds really fired under this seed *)
        List.iter
          (fun k ->
            let c = List.find (fun c -> c.Fault.kind = k) (Fault.stats ()) in
            Alcotest.(check bool) (Fault.kind_name k ^ " checked") true (c.Fault.checks > 0))
          [ Fault.Queue_full; Fault.Slow_drain; Fault.Client_disconnect ]);
    Alcotest.test_case "chaos: dispatchers + proc workers share one verdict store soundly"
      `Quick (fun () ->
        let module Store = Veriopt_store.Store in
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Fmt.str "veriopt-test-serve-store-%d" (Unix.getpid ()))
        in
        if Sys.file_exists dir then
          Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
        else Unix.mkdir dir 0o755;
        (match
           Fault.configure_string
             "seed=9,worker_hang=0.05,store_corrupt=0.1,store_stale=0.05"
         with
        | Ok () -> ()
        | Error e -> Alcotest.failf "bad fault spec: %s" e);
        Fault.reset_stats ();
        Fun.protect ~finally:Fault.disable @@ fun () ->
        let engine = Engine.create ~tier1_samples:0 ~isolate:Engine.Proc ~store:dir () in
        let config =
          {
            Serve.default_config with
            Serve.queue_capacity = 32;
            workers = 4;
            interactive_deadline_s = 0.5;
            bulk_deadline_s = 1.0;
          }
        in
        let sv = Serve.create ~config ~engine () in
        let n = 80 in
        let tickets =
          List.init n (fun i ->
              (* half the stream replays earlier queries (verbatim or
                 alpha-renamed) so the store actually gets warm traffic *)
              let q = Workload.make ~seed:13 ~index:(i mod (n / 2)) in
              let q = if i >= n / 2 && i mod 2 = 0 then Workload.alpha_variant q else q in
              Serve.submit
                ~priority:(if i mod 4 = 0 then Serve.Interactive else Serve.Bulk)
                ?unroll:q.Workload.w_unroll ?max_conflicts:q.Workload.w_max_conflicts sv
                q.Workload.w_m ~src:q.Workload.w_src ~tgt:q.Workload.w_tgt)
        in
        let resolved =
          List.fold_left
            (fun acc tk ->
              match Serve.await tk with Serve.Verdict _ | Serve.Rejected _ -> acc + 1)
            0 tickets
        in
        Alcotest.(check int) "every ticket resolves" n resolved;
        let ss = Option.get (Engine.store_stats engine) in
        let report = Serve.drain ~timeout:10. sv in
        Alcotest.(check int) "zero orphans after drain" 0 report.Serve.drain_orphans;
        Alcotest.(check bool) "the store saw traffic" true (ss.Store.hits + ss.Store.misses > 0);
        Alcotest.(check bool) "fresh verdicts were appended" true (ss.Store.writes > 0);
        let s = Serve.stats sv in
        Alcotest.(check bool) "store counters surface in serve stats" true
          (s.Serve.store_hits = ss.Store.hits && s.Serve.store_misses >= ss.Store.misses);
        (* a clean post-drain scan proves concurrent writers tore nothing:
           every appended record is whole and CRC-clean on disk *)
        let r =
          Store.open_ ~read_only:true ~dir
            ~semantics:(Veriopt_alive.Engine.semantics_digest ()) ()
        in
        let rs = Store.stats r in
        Store.close r;
        Alcotest.(check int) "no torn records on disk after drain" 0 rs.Store.corrupt_entries;
        Alcotest.(check int) "no stale records on disk after drain" 0
          rs.Store.stale_version_skips;
        Alcotest.(check bool) "the drained store is durable" true
          (rs.Store.entries > 0));
  ]

(* A process that is gone, or a zombie waiting for whoever adopted it to
   reap it: either way it runs nothing. *)
let running pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | stat -> (
    match String.rindex_opt stat ')' with
    | Some i when i + 2 < String.length stat -> not (List.mem stat.[i + 2] [ 'Z'; 'X' ])
    | _ -> false)
  | exception Sys_error _ -> (
    match Unix.kill pid 0 with () -> true | exception Unix.Unix_error _ -> false)

let orphan_tests =
  [
    Alcotest.test_case "a pool creator that dies takes its wedged worker and supervisor"
      `Quick (fun () ->
        let r, w = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
          (* the throwaway creator: a one-slot pool whose worker reports its
             own and its supervisor's pid, then spins where it never reads
             its pipe again; the creator exits without shutting down *)
          Unix.close r;
          let cr, cw = Unix.pipe () in
          let handler () =
            let line = Printf.sprintf "%d %d\n" (Unix.getpid ()) (Unix.getppid ()) in
            ignore (Unix.write_substring cw line 0 (String.length line));
            while true do
              ignore (Sys.opaque_identity 0)
            done
          in
          let pool = Vproc.create ~jobs:1 ~handler () in
          (* only the pool's processes hold [cw] now: a pool that never
             came up reads as EOF below, not as a hang *)
          Unix.close cw;
          let kill_at = Unix.gettimeofday () +. 60. in
          ignore (Thread.create (fun () -> Vproc.call ~kill_at pool ()) ());
          let buf = Bytes.create 64 in
          let n = Unix.read cr buf 0 64 in
          ignore (Unix.write w buf 0 n);
          Unix._exit 0
        | creator ->
          Unix.close w;
          let ic = Unix.in_channel_of_descr r in
          let line = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic) in
          ignore (Unix.waitpid [] creator);
          let pids = List.map int_of_string (String.split_on_char ' ' line) in
          Alcotest.(check int) "worker and supervisor reported" 2 (List.length pids);
          let t0 = Unix.gettimeofday () in
          while List.exists running pids && Unix.gettimeofday () -. t0 < 5. do
            Unix.sleepf 0.02
          done;
          let survivors = List.filter running pids in
          List.iter
            (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
            survivors;
          Alcotest.(check (list int)) "nothing outlives the pool's creator" [] survivors);
  ]

let suite = ("serve", serve_tests @ chaos_tests @ orphan_tests)
