(* The top layer: evaluation harness and the verified-fallback backend. *)

open Veriopt_ir
module E = Veriopt.Evaluate
module B = Veriopt.Backend
module S = Veriopt_data.Suite
module Cap = Veriopt_llm.Capability
module A = Veriopt_alive.Alive
module I = Veriopt_eval.Interp

let backend_tests =
  [
    Alcotest.test_case "backend output is always safe" `Quick (fun () ->
        (* whatever the model emits, the deployed output must be equivalent
           to the input: either the verified model output or the input *)
        let ds = S.build ~verify:false ~seed0:2024 ~n:6 () in
        let model = Cap.base_3b () in
        List.iter
          (fun (s : S.sample) ->
            let o = B.optimize ~max_conflicts:40_000 model s.S.modul s.S.src in
            let v = A.verify_funcs ~max_conflicts:40_000 s.S.modul ~src:s.S.src ~tgt:o.B.output in
            Alcotest.(check bool) "deployed output equivalent or inconclusive" true
              (match v.A.category with
              | A.Equivalent | A.Inconclusive -> true
              | A.Semantic_error | A.Syntax_error -> false))
          ds.S.samples);
    Alcotest.test_case "fallback keeps the input on failure" `Quick (fun () ->
        (* a model hard-wired to corrupt everything must always fall back *)
        let model = Veriopt_llm.Model.create ~noise_scale:0.0 "corruptor" in
        Veriopt_llm.Model.set model "act:corrupt" 10.0;
        Veriopt_llm.Model.set model "format:ok" 10.0;
        let ds = S.build ~verify:false ~seed0:2025 ~n:4 () in
        List.iter
          (fun (s : S.sample) ->
            let o = B.optimize model s.S.modul s.S.src in
            Alcotest.(check bool) "fell back" true (not o.B.used_model);
            Alcotest.(check string) "output = input"
              (Printer.func_to_string s.S.src)
              (Printer.func_to_string o.B.output))
          ds.S.samples);
  ]

let evaluate_tests =
  [
    Alcotest.test_case "category counts partition the set" `Quick (fun () ->
        let ds = S.build ~verify:true ~seed0:2027 ~n:10 () in
        let res = E.run ~max_conflicts:40_000 (Cap.base_3b ()) ds.S.samples in
        let c = res.E.counts in
        Alcotest.(check int) "partition" c.E.total
          (c.E.correct + c.E.semantic + c.E.syntax + c.E.inconclusive));
    Alcotest.test_case "fallback rows carry -O0 metrics" `Quick (fun () ->
        let ds = S.build ~verify:true ~seed0:2028 ~n:8 () in
        let res = E.run ~max_conflicts:40_000 (Cap.base_3b ()) ds.S.samples in
        List.iter
          (fun (r : E.row) ->
            match r.E.category with
            | E.Syntax_error | E.Semantic_error | E.Inconclusive ->
              Alcotest.(check int) "fallback latency" r.E.m_src.E.latency r.E.m_out.E.latency
            | E.Correct_copy ->
              Alcotest.(check int) "copy latency" r.E.m_src.E.latency r.E.m_out.E.latency
            | E.Correct_different -> ())
          res.E.rows);
    Alcotest.test_case "comparisons count every row once" `Quick (fun () ->
        let ds = S.build ~verify:true ~seed0:2029 ~n:8 () in
        let res = E.run ~max_conflicts:40_000 (Cap.base_3b ()) ds.S.samples in
        let c =
          E.compare_metric res.E.rows
            ~metric:(fun m -> m.E.latency)
            ~out:E.out_metrics ~base:E.src_metrics
        in
        Alcotest.(check int) "partition" res.E.counts.E.total (c.E.better + c.E.worse + c.E.tie));
    Alcotest.test_case "geomean of identical rows is 1" `Quick (fun () ->
        let ds = S.build ~verify:true ~seed0:2030 ~n:5 () in
        let res = E.run ~max_conflicts:40_000 (Cap.base_3b ()) ds.S.samples in
        Alcotest.(check (float 1e-9)) "identity" 1.0
          (E.geomean_speedup res.E.rows
             ~metric:(fun m -> m.E.latency)
             ~out:E.src_metrics ~base:E.src_metrics));
  ]

(* ------------------------------------------------------------------ *)
(* The SAT core's containers: the removal operations the clause-DB reducer
   leans on (watch-list detach, learnt-index compaction). *)

module Vec = Veriopt_smt.Vec

let container_tests =
  [
    Alcotest.test_case "Vec push/pop/swap_remove" `Quick (fun () ->
        let v = Vec.create () in
        List.iter (Vec.push v) [ 10; 20; 30; 40 ];
        Alcotest.(check int) "length" 4 (Vec.length v);
        Vec.swap_remove v 1;
        (* 40 swapped into slot 1 *)
        Alcotest.(check int) "length after swap_remove" 3 (Vec.length v);
        Alcotest.(check int) "last element moved in" 40 (Vec.get v 1);
        Alcotest.(check int) "pop" 30 (Vec.pop v);
        Alcotest.(check int) "length after pop" 2 (Vec.length v));
    Alcotest.test_case "Vec remove finds and removes one occurrence" `Quick (fun () ->
        let v = Vec.create () in
        List.iter (Vec.push v) [ 7; 8; 9; 8 ];
        Alcotest.(check bool) "removes present value" true (Vec.remove v 8);
        Alcotest.(check int) "one occurrence removed" 3 (Vec.length v);
        Alcotest.(check bool) "second occurrence still there" true (Vec.remove v 8);
        Alcotest.(check bool) "absent value" false (Vec.remove v 8);
        Alcotest.(check bool) "never-present value" false (Vec.remove v 42);
        Alcotest.(check int) "others untouched" 2 (Vec.length v));
    Alcotest.test_case "Vec filter_in_place keeps order" `Quick (fun () ->
        let v = Vec.create () in
        List.iter (Vec.push v) [ 1; 2; 3; 4; 5; 6 ];
        Vec.filter_in_place (fun x -> x mod 2 = 0) v;
        Alcotest.(check (list int)) "evens in order" [ 2; 4; 6 ] (Vec.to_list v);
        Vec.filter_in_place (fun _ -> false) v;
        Alcotest.(check int) "empty after filtering all" 0 (Vec.length v));
  ]

let suite = ("core", backend_tests @ evaluate_tests @ container_tests)
