(* The shared disk-backed verdict store: Blob framing, differential
   warm-vs-cold agreement, crash/corruption injection, key-soundness
   fuzzing against a brute-force oracle, version-bump invalidation, and a
   multi-thread hammer.

   ORDER MATTERS: the crash-injection test forks a child writer, so this
   suite must run before any suite that spawns a domain (OCaml 5 forbids
   fork afterwards).  It sits between Test_serve (which also forks) and
   Test_vproc (whose last case is the first domain spawner). *)

open Veriopt_ir
module A = Veriopt_alive.Alive
module Engine = Veriopt_alive.Engine
module Store = Veriopt_store.Store
module Blob = Veriopt_store.Blob
module Vcache = Veriopt_alive.Vcache
module Workload = Veriopt_serve.Workload
module Fault = Veriopt_fault.Fault
module I = Veriopt_eval.Interp
module Solver = Veriopt_smt.Solver

let dir_counter = ref 0

let temp_dir () =
  incr dir_counter;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "veriopt-test-store-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  (* a leftover from a killed earlier run must not leak entries in *)
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Unix.mkdir d 0o755;
  d

let digest = Store.version_digest [ ("test", 1) ]
let vkey i = Fmt.str "k%06d" i
let vval i = Fmt.str "value-of:%s" (vkey i)

(* The single segment file a freshly written-and-closed store left behind. *)
let only_segment dir =
  match
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".vst")
  with
  | [ f ] -> Filename.concat dir f
  | l -> Alcotest.failf "expected exactly one segment, found %d" (List.length l)

let write_store dir n =
  let t = Store.open_ ~flush_bytes:1 ~dir ~semantics:digest () in
  for i = 0 to n - 1 do
    Store.add t ~key:(vkey i) (vval i)
  done;
  Store.close t

(* Reopen [dir] read-only and check every readable value is the one its key
   demands — damage may lose records, never falsify them.  Returns the set
   of found indices and the scan stats. *)
let audit dir n =
  let t = Store.open_ ~read_only:true ~dir ~semantics:digest () in
  let found = ref [] in
  for i = 0 to n - 1 do
    match Store.find t ~key:(vkey i) with
    | Some v ->
      Alcotest.(check string) (Fmt.str "value of %s" (vkey i)) (vval i) v;
      found := i :: !found
    | None -> ()
  done;
  let s = Store.stats t in
  Store.close t;
  (List.rev !found, s)

(* ------------------------------------------------------------------ *)
(* Blob: the extracted Checkpoint-v2 atomic-write idioms *)

let blob_tests =
  let magic = "TEST-BLOB" and version = 3 in
  let read path = Blob.read_framed ~magic ~version ~path in
  [
    Alcotest.test_case "write_framed round-trips and rotates .prev" `Quick (fun () ->
        let dir = temp_dir () in
        let path = Filename.concat dir "blob" in
        Blob.write_framed ~magic ~version ~path "first";
        Blob.write_framed ~magic ~version ~path "second";
        (match read path with
        | Ok p -> Alcotest.(check string) "payload" "second" p
        | Error _ -> Alcotest.fail "fresh blob unreadable");
        match read (Blob.prev_path path) with
        | Ok p -> Alcotest.(check string) ".prev holds the prior payload" "first" p
        | Error _ -> Alcotest.fail ".prev unreadable");
    Alcotest.test_case "every corruption mode maps to its typed error" `Quick (fun () ->
        let dir = temp_dir () in
        let path = Filename.concat dir "blob" in
        let reset payload = Blob.write_framed ~magic ~version ~path payload in
        let patch off b =
          let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          ignore (Unix.write fd (Bytes.make 1 b) 0 1);
          Unix.close fd
        in
        let expect name want =
          match read path with
          | Error e when e = want -> ()
          | Error _ -> Alcotest.failf "%s: wrong error" name
          | Ok _ -> Alcotest.failf "%s: read succeeded" name
        in
        Alcotest.(check bool) "missing" true (read (Filename.concat dir "no") = Error Blob.Missing);
        reset "payload";
        Unix.truncate path 3;
        expect "truncated header" Blob.Truncated_header;
        reset "payload";
        Unix.truncate path (String.length magic + 8 + 3);
        expect "truncated payload" Blob.Truncated_payload;
        reset "payload";
        patch 0 'X';
        expect "bad magic" Blob.Bad_magic;
        reset "payload";
        patch (String.length magic + 10) 'X';
        (* a flipped payload byte must fail the CRC, not decode wrong *)
        expect "crc mismatch" Blob.Crc_mismatch);
  ]

(* ------------------------------------------------------------------ *)
(* Store basics: persistence, cross-writer visibility, version bump *)

let store_tests =
  [
    Alcotest.test_case "entries persist across close and reopen" `Quick (fun () ->
        let dir = temp_dir () in
        write_store dir 20;
        let found, s = audit dir 20 in
        Alcotest.(check int) "all entries back" 20 (List.length found);
        Alcotest.(check int) "none corrupt" 0 s.Store.corrupt_entries;
        Alcotest.(check int) "none stale" 0 s.Store.stale_version_skips);
    Alcotest.test_case "a second writer's flushed appends are visible on refresh" `Quick
      (fun () ->
        let dir = temp_dir () in
        let a = Store.open_ ~dir ~semantics:digest () in
        let b = Store.open_ ~dir ~semantics:digest () in
        Store.add a ~key:"shared" "from-a";
        Store.flush a;
        Store.refresh b;
        (match Store.find b ~key:"shared" with
        | Some v -> Alcotest.(check string) "b reads a's append" "from-a" v
        | None -> Alcotest.fail "b missed a's flushed entry");
        Store.close a;
        Store.close b);
    Alcotest.test_case "version bump invalidates all prior entries, reopen restores them"
      `Quick (fun () ->
        let dir = temp_dir () in
        write_store dir 5;
        let other = Store.version_digest [ ("test", 2) ] in
        let t = Store.open_ ~read_only:true ~dir ~semantics:other () in
        for i = 0 to 4 do
          Alcotest.(check bool) (Fmt.str "%s stale under bumped digest" (vkey i)) true
            (Store.find t ~key:(vkey i) = None)
        done;
        let s = Store.stats t in
        Store.close t;
        Alcotest.(check bool) "stale skips counted" true (s.Store.stale_version_skips >= 5);
        Alcotest.(check int) "nothing indexed" 0 s.Store.entries;
        let found, _ = audit dir 5 in
        Alcotest.(check int) "original digest reads everything again" 5 (List.length found));
    Alcotest.test_case "closed store: counted miss, dropped add, no exception" `Quick
      (fun () ->
        let dir = temp_dir () in
        let t = Store.open_ ~dir ~semantics:digest () in
        Store.add t ~key:"k" "v";
        Store.close t;
        Store.close t;
        Alcotest.(check bool) "find after close misses" true (Store.find t ~key:"k" = None);
        Store.add t ~key:"k2" "v2";
        Alcotest.(check bool) "miss counted" true ((Store.stats t).Store.misses >= 1));
  ]

(* ------------------------------------------------------------------ *)
(* Crash and corruption injection (satellite: every damage mode degrades
   to a counted miss — never a wrong value, never an exception) *)

let crash_tests =
  [
    Alcotest.test_case "SIGKILL mid-write: survivors intact, tail torn at worst" `Quick
      (fun () ->
        let dir = temp_dir () in
        let n = 100_000 in
        (match Unix.fork () with
        | 0 ->
          (* child: append as fast as possible until killed; flush_bytes=1
             pushes every record through the channel immediately so the
             kill lands mid-stream *)
          (try
             let t = Store.open_ ~flush_bytes:1 ~dir ~semantics:digest () in
             for i = 0 to n - 1 do
               Store.add t ~key:(vkey i) (vval i)
             done;
             Store.close t
           with _ -> ());
          Unix._exit 0
        | pid ->
          Unix.sleepf 0.15;
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid));
        let found, _ = audit dir n in
        Alcotest.(check bool)
          (Fmt.str "some records survived the kill (%d)" (List.length found))
          true
          (List.length found > 0);
        (* appends are sequential: everything before the torn tail survives,
           so the found set must be a prefix 0..k-1 *)
        List.iteri
          (fun i j -> Alcotest.(check int) "survivors form a prefix" i j)
          found);
    Alcotest.test_case "truncated segment: a torn tail is a miss, not a lie" `Quick
      (fun () ->
        let dir = temp_dir () in
        write_store dir 50;
        let seg = only_segment dir in
        Unix.truncate seg ((Unix.stat seg).Unix.st_size - 3);
        let found, _ = audit dir 50 in
        Alcotest.(check int) "only the last record lost" 49 (List.length found);
        Alcotest.(check bool) "the lost one is the tail" true (not (List.mem 49 found)));
    Alcotest.test_case "bit-flipped record: CRC catches it, scan resyncs past it" `Quick
      (fun () ->
        let dir = temp_dir () in
        write_store dir 50;
        let seg = only_segment dir in
        (* record 0 spans [0, 33+7+16): flip a payload byte inside its value *)
        let fd = Unix.openfile seg [ Unix.O_RDWR ] 0 in
        ignore (Unix.lseek fd 45 Unix.SEEK_SET);
        let b = Bytes.create 1 in
        ignore (Unix.read fd b 0 1);
        ignore (Unix.lseek fd 45 Unix.SEEK_SET);
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
        ignore (Unix.write fd b 0 1);
        Unix.close fd;
        let found, s = audit dir 50 in
        Alcotest.(check int) "49 records survive" 49 (List.length found);
        Alcotest.(check bool) "record 0 dropped" true (not (List.mem 0 found));
        Alcotest.(check bool) "damage counted" true
          (s.Store.corrupt_entries + s.Store.stale_version_skips >= 1));
    Alcotest.test_case "garbage segment file: scan skips it whole, store still serves"
      `Quick (fun () ->
        let dir = temp_dir () in
        write_store dir 10;
        let oc = open_out (Filename.concat dir "seg-99999-0.vst") in
        output_string oc "this is not a segment at all, just noise bytes";
        close_out oc;
        let found, _ = audit dir 10 in
        Alcotest.(check int) "real records unaffected" 10 (List.length found));
    Alcotest.test_case "store_corrupt / store_stale faults force counted misses" `Quick
      (fun () ->
        let dir = temp_dir () in
        write_store dir 1;
        Fun.protect ~finally:Fault.disable @@ fun () ->
        let check_kind spec get =
          (match Fault.configure_string spec with
          | Ok () -> ()
          | Error e -> Alcotest.failf "bad fault spec: %s" e);
          let t = Store.open_ ~read_only:true ~dir ~semantics:digest () in
          Alcotest.(check bool) (spec ^ " forces a miss") true
            (Store.find t ~key:(vkey 0) = None);
          let s = Store.stats t in
          Store.close t;
          Alcotest.(check bool) (spec ^ " counted") true (get s >= 1);
          Alcotest.(check bool) (spec ^ " is a miss") true (s.Store.misses >= 1)
        in
        check_kind "seed=1,store_corrupt=1.0" (fun s -> s.Store.corrupt_entries);
        check_kind "seed=1,store_stale=1.0" (fun s -> s.Store.stale_version_skips);
        Fault.disable ();
        let found, _ = audit dir 1 in
        Alcotest.(check int) "entry intact once the fault clears" 1 (List.length found));
  ]

(* ------------------------------------------------------------------ *)
(* Differential: a warm store answers verdict-for-verdict like the cold
   run that filled it, with zero tier-2 solver calls *)

let run_workload e qs =
  List.map
    (fun q ->
      (Engine.verify_funcs ?unroll:q.Workload.w_unroll
         ?max_conflicts:q.Workload.w_max_conflicts e q.Workload.w_m ~src:q.Workload.w_src
         ~tgt:q.Workload.w_tgt)
        .A.category)
    qs

let differential_tests =
  [
    Alcotest.test_case "warm rerun agrees verdict-for-verdict with zero solver calls"
      `Quick (fun () ->
        let dir = temp_dir () in
        let qs = List.init 18 (fun i -> Workload.make ~seed:5 ~index:i) in
        let cold_engine = Engine.create ~tier1_samples:0 ~store:dir () in
        let cold = run_workload cold_engine qs in
        let writes =
          match Engine.store_stats cold_engine with
          | Some s -> s.Store.writes
          | None -> Alcotest.fail "cold engine mounted no store"
        in
        Engine.shutdown cold_engine;
        Alcotest.(check bool) "cold run wrote entries" true (writes > 0);
        let warm_engine = Engine.create ~tier1_samples:0 ~store:dir () in
        let warm = run_workload warm_engine qs in
        let vs = Engine.stats warm_engine in
        let ss = Option.get (Engine.store_stats warm_engine) in
        Engine.shutdown warm_engine;
        List.iteri
          (fun i (c, w) ->
            Alcotest.(check bool)
              (Fmt.str "query %d (%s) agrees" i (List.nth qs i).Workload.w_label)
              true (c = w))
          (List.combine cold warm);
        Alcotest.(check int) "zero tier-2 solver calls when warm" 0
          vs.Vcache.tier2_runs;
        Alcotest.(check int) "zero tier-1 runs when warm" 0
          (vs.Vcache.tier1_hits + vs.Vcache.tier1_misses);
        Alcotest.(check int) "nothing rewritten when warm" 0 ss.Store.writes;
        Alcotest.(check int) "nothing corrupt" 0 ss.Store.corrupt_entries;
        Alcotest.(check bool) "store hits served the rerun" true (ss.Store.hits > 0));
    Alcotest.test_case "alpha-renamed resubmission hits the cold run's entry" `Quick
      (fun () ->
        let dir = temp_dir () in
        let q = Workload.make ~seed:5 ~index:1 in
        let cold_engine = Engine.create ~tier1_samples:0 ~store:dir () in
        let cold = run_workload cold_engine [ q ] in
        Engine.shutdown cold_engine;
        let warm_engine = Engine.create ~tier1_samples:0 ~store:dir () in
        let warm = run_workload warm_engine [ Workload.alpha_variant q ] in
        let vs = Engine.stats warm_engine in
        let ss = Option.get (Engine.store_stats warm_engine) in
        Engine.shutdown warm_engine;
        Alcotest.(check bool) "same verdict for the renamed twin" true (cold = warm);
        Alcotest.(check int) "no solver call" 0 vs.Vcache.tier2_runs;
        Alcotest.(check bool) "served from the store" true (ss.Store.hits > 0));
    Alcotest.test_case "chaos store_corrupt on a warm store recomputes, never lies" `Quick
      (fun () ->
        let dir = temp_dir () in
        let q = Workload.make ~seed:5 ~index:2 in
        let cold_engine = Engine.create ~tier1_samples:0 ~store:dir () in
        let cold = run_workload cold_engine [ q ] in
        Engine.shutdown cold_engine;
        (match Fault.configure_string "seed=1,store_corrupt=1.0" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "bad fault spec: %s" e);
        Fun.protect ~finally:Fault.disable @@ fun () ->
        let warm_engine = Engine.create ~tier1_samples:0 ~store:dir () in
        let warm = run_workload warm_engine [ q ] in
        let ss = Option.get (Engine.store_stats warm_engine) in
        Engine.shutdown warm_engine;
        Alcotest.(check bool) "recomputed verdict agrees" true (cold = warm);
        Alcotest.(check bool) "the injected corruption was counted" true
          (ss.Store.corrupt_entries >= 1));
    Alcotest.test_case "store payload encode/decode round-trips, garbage decodes to None"
      `Quick (fun () ->
        let delta = Solver.diff (Solver.stats ()) (Solver.stats ()) in
        let m = Parser.parse_module
            "define i32 @f(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}" in
        let f = List.hd m.Ast.funcs in
        let v = A.verify_funcs m ~src:f ~tgt:f in
        (match Engine.store_decode (Engine.store_encode ~tier:2 ~delta v) with
        | Some (v', tier, _) ->
          Alcotest.(check bool) "verdict back" true (v'.A.category = v.A.category);
          Alcotest.(check int) "tier back" 2 tier
        | None -> Alcotest.fail "round-trip failed");
        Alcotest.(check bool) "garbage is None, not an exception" true
          (Engine.store_decode "not a payload" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Key soundness: alpha-renamed pairs collide onto one entry; mutated,
   oracle-distinguished pairs never do *)

let ops = [| "add"; "sub"; "mul"; "and"; "or"; "xor" |]

(* A random straight-line i5 function: [n] binops over %x, %y, previous
   temps and constants, the last one feeding ret through a constant
   operand (the mutation site). *)
let gen_prog st =
  let n = 2 + Random.State.int st 3 in
  let body = ref [] in
  for i = 0 to n - 2 do
    let pick_val () =
      match Random.State.int st (i + 2) with
      | 0 -> "%x"
      | 1 -> "%y"
      | j -> Fmt.str "%%t%d" (j - 2)
    in
    let b =
      if Random.State.bool st then pick_val ()
      else string_of_int (Random.State.int st 32)
    in
    body :=
      Fmt.str "  %%t%d = %s i5 %s, %s" i ops.(Random.State.int st 6) (pick_val ()) b
      :: !body
  done;
  let last_op = ops.(Random.State.int st 6) in
  let last_in = Fmt.str "%%t%d" (n - 2) in
  let c = Random.State.int st 32 in
  let render c =
    Fmt.str "define i5 @f(i5 %%x, i5 %%y) {\nentry:\n%s\n  %%t%d = %s i5 %s, %d\n  ret i5 %%t%d\n}"
      (String.concat "\n" (List.rev !body))
      (n - 1) last_op last_in c (n - 1)
  in
  (render c, render ((c + 1) mod 32))

let parse1 text =
  let m = Parser.parse_module text in
  (m, List.hd m.Ast.funcs)

(* Brute-force oracle: equal return values on all 1024 i5 input pairs. *)
let oracle_equal m f g =
  let out fn x y =
    match (I.run m fn [ I.vint 5 (Int64.of_int x); I.vint 5 (Int64.of_int y) ]).I.ret with
    | Some (I.VInt { v; _ }) -> v
    | _ -> Alcotest.fail "oracle: non-integer result from a straight-line func"
  in
  let ok = ref true in
  for x = 0 to 31 do
    for y = 0 to 31 do
      if out f x y <> out g x y then ok := false
    done
  done;
  !ok

let fuzz_tests =
  [
    Alcotest.test_case
      "fuzz: alpha twins collide, oracle-distinguished mutants never do" `Quick (fun () ->
        let distinguished = ref 0 in
        for seed = 0 to 149 do
          let st = Random.State.make [| seed; 0xbeef |] in
          let text, mutant_text = gen_prog st in
          let m, f = parse1 text in
          let _, fm = parse1 mutant_text in
          let key = Engine.store_key m ~src:f ~tgt:f in
          (* alpha soundness: renaming both sides lands on the same entry *)
          let key_alpha =
            Engine.store_key m ~src:(Builder.renumber f) ~tgt:(Builder.renumber f)
          in
          Alcotest.(check string) (Fmt.str "seed %d: alpha twins collide" seed) key key_alpha;
          (* knob soundness: any verdict-relevant flag splits the key *)
          Alcotest.(check bool) (Fmt.str "seed %d: unroll splits" seed) true
            (Engine.store_key ~unroll:5 m ~src:f ~tgt:f <> key);
          Alcotest.(check bool) (Fmt.str "seed %d: budget splits" seed) true
            (Engine.store_key ~max_conflicts:1 m ~src:f ~tgt:f <> key);
          (* non-collision: if the oracle can tell the mutant apart, the
             keys must differ; if the keys collide, the oracle must not *)
          let key_mut = Engine.store_key m ~src:f ~tgt:fm in
          if oracle_equal m f fm then ()
          else begin
            incr distinguished;
            Alcotest.(check bool)
              (Fmt.str "seed %d: distinguished mutant gets its own key" seed)
              true (key <> key_mut)
          end;
          if key = key_mut then
            Alcotest.(check bool)
              (Fmt.str "seed %d: colliding keys imply oracle equivalence" seed)
              true (oracle_equal m f fm)
        done;
        (* the fuzz must actually exercise the interesting branch *)
        Alcotest.(check bool)
          (Fmt.str "oracle distinguished %d mutants" !distinguished)
          true
          (!distinguished > 50));
    Alcotest.test_case "semantics digest is stable and component-sensitive" `Quick
      (fun () ->
        Alcotest.(check string) "digest is deterministic" (Engine.semantics_digest ())
          (Engine.semantics_digest ());
        Alcotest.(check int) "fixed width" 16 (String.length (Engine.semantics_digest ()));
        let d1 = Store.version_digest [ ("encode", 1); ("sat", 1); ("expr", 1) ] in
        let d2 = Store.version_digest [ ("encode", 2); ("sat", 1); ("expr", 1) ] in
        let d3 = Store.version_digest [ ("sat", 1); ("encode", 1); ("expr", 1) ] in
        let d4 = Store.version_digest [ ("encode", 1); ("sat", 1); ("expr", 2) ] in
        Alcotest.(check bool) "version bump changes it" true (d1 <> d2);
        Alcotest.(check bool) "normal-form bump changes it" true (d1 <> d4);
        Alcotest.(check bool) "component order matters" true (d1 <> d3));
  ]

(* ------------------------------------------------------------------ *)
(* Concurrency: one handle hammered by many threads — no torn reads, no
   lost writes *)

let hammer_tests =
  [
    Alcotest.test_case "threaded hammer: every write readable, byte-exact" `Quick
      (fun () ->
        let dir = temp_dir () in
        let t = Store.open_ ~flush_bytes:512 ~dir ~semantics:digest () in
        let n_threads = 6 and per = 400 in
        let key i j = Fmt.str "t%d-%04d" i j in
        let value i j = Fmt.str "payload:%d:%d:%s" i j (String.make (j mod 32) 'x') in
        let worker i =
          Thread.create
            (fun () ->
              for j = 0 to per - 1 do
                Store.add t ~key:(key i j) (value i j);
                (* interleave reads of a neighbour's keys: either absent or
                   byte-exact, never torn *)
                if j land 7 = 0 then
                  match Store.find t ~key:(key ((i + 1) mod n_threads) (j / 2)) with
                  | Some v ->
                    Alcotest.(check string) "concurrent read exact"
                      (value ((i + 1) mod n_threads) (j / 2))
                      v
                  | None -> ()
              done)
            ()
        in
        let ths = List.init n_threads worker in
        List.iter Thread.join ths;
        for i = 0 to n_threads - 1 do
          for j = 0 to per - 1 do
            match Store.find t ~key:(key i j) with
            | Some v -> Alcotest.(check string) "no lost or torn write" (value i j) v
            | None -> Alcotest.failf "lost write %s" (key i j)
          done
        done;
        let s = Store.stats t in
        Alcotest.(check int) "every distinct key indexed" (n_threads * per)
          s.Store.entries;
        Store.close t;
        (* and the whole load survives a reopen from disk *)
        let r = Store.open_ ~read_only:true ~dir ~semantics:digest () in
        Alcotest.(check int) "all entries durable" (n_threads * per)
          (Store.stats r).Store.entries;
        Alcotest.(check int) "no corruption from concurrency" 0
          (Store.stats r).Store.corrupt_entries;
        Store.close r);
  ]

let suite =
  ( "store",
    blob_tests @ store_tests @ crash_tests @ differential_tests @ fuzz_tests @ hammer_tests
  )
