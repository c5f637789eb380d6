(* The surrogate policy: prompts and format parsing, action application,
   generation determinism, capability profiles, and the diagnosis head. *)

open Veriopt_ir
module M = Veriopt_llm.Model
module Cap = Veriopt_llm.Capability
module Prompt = Veriopt_llm.Prompt
module Actions = Veriopt_llm.Actions
module Diag = Veriopt_llm.Diag

let m0 = Ast.empty_module
let parse = Parser.parse_func

let sample_src =
  "define i32 @f(i32 %x) {\nentry:\n  %a = mul i32 %x, 1\n  %r = add i32 %a, 0\n  ret i32 %r\n}"

let prompt_tests =
  [
    Alcotest.test_case "answer extraction" `Quick (fun () ->
        let out =
          Prompt.render { Prompt.think = None; answer = "define ..."; well_formed = true }
        in
        Alcotest.(check (option string)) "answer" (Some "define ...") (Prompt.answer_of out);
        Alcotest.(check bool) "format ok" true (Prompt.format_ok out));
    Alcotest.test_case "malformed output fails format check" `Quick (fun () ->
        let out =
          Prompt.render { Prompt.think = None; answer = "define ..."; well_formed = false }
        in
        Alcotest.(check bool) "format bad" false (Prompt.format_ok out));
    Alcotest.test_case "think block round-trips" `Quick (fun () ->
        let out =
          Prompt.render
            { Prompt.think = Some ("attempt", Some "ERROR: bad"); answer = "final"; well_formed = true }
        in
        match Prompt.think_of out with
        | Some t -> Alcotest.(check bool) "contains diagnosis" true
            (let sub = "ERROR: bad" in
             let n = String.length t and m = String.length sub in
             let rec go i = i + m <= n && (String.sub t i m = sub || go (i + 1)) in
             go 0)
        | None -> Alcotest.fail "missing think");
    Alcotest.test_case "templates embed the IR" `Quick (fun () ->
        let p = Prompt.generic_template "MARKER_IR" in
        Alcotest.(check bool) "embedded" true
          (let sub = "MARKER_IR" in
           let n = String.length p and m = String.length sub in
           let rec go i = i + m <= n && (String.sub p i m = sub || go (i + 1)) in
           go 0));
  ]

let action_tests =
  [
    Alcotest.test_case "rule sites enumerate applicable rewrites" `Quick (fun () ->
        let f = parse sample_src in
        let sites = Actions.enumerate_rule_sites m0 f in
        Alcotest.(check bool) "mul-one available" true
          (List.exists (fun (r, _) -> r = "mul-one") sites);
        Alcotest.(check bool) "add-zero available" true
          (List.exists (fun (r, _) -> r = "add-zero") sites));
    Alcotest.test_case "apply_rule performs the rewrite" `Quick (fun () ->
        let f = parse sample_src in
        let f' = Actions.apply_rule m0 f "mul-one" "a" in
        Alcotest.(check bool) "mul gone" true
          (List.for_all
             (fun b ->
               List.for_all
                 (fun ni -> match ni.Ast.instr with Ast.Binop { op = Ast.Mul; _ } -> false | _ -> true)
                 b.Ast.instrs)
             f'.Ast.blocks));
    Alcotest.test_case "unsound edits keep the IR valid" `Quick (fun () ->
        let f = parse sample_src in
        List.iter
          (fun k ->
            if Actions.unsound_sites f k > 0 then
              let f' = Actions.apply_unsound f k 0 in
              match Validator.validate_func f' with
              | Ok () -> ()
              | Error es ->
                Alcotest.failf "unsound %s produced invalid IR: %s" (Actions.unsound_name k)
                  (String.concat "; " es))
          [ Actions.Wrong_constant; Actions.Predicate_flip; Actions.Bogus_flag ]);
    Alcotest.test_case "corruptions break parse or validation" `Quick (fun () ->
        let f = parse sample_src in
        let rng = Random.State.make [| 1 |] in
        List.iter
          (fun c ->
            let text = Actions.corrupt_text rng c (Printer.func_to_string f) in
            match Parser.parse_func_result text with
            | Error _ -> ()
            | Ok g -> (
              match Validator.validate_func g with
              | Error _ -> ()
              | Ok () ->
                (* some corruptions (e.g. garbage on a comment-free line) can
                   miss; they must at least change the text *)
                Alcotest.(check bool)
                  (Actions.corruption_name c ^ " changed text")
                  true
                  (text <> Printer.func_to_string f)))
          Actions.all_corruptions);
    Alcotest.test_case "pass gating by applicability" `Quick (fun () ->
        let f = parse "define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}" in
        Alcotest.(check bool) "no mem2reg without allocas" false
          (Actions.pass_applicable m0 f Actions.Mem2reg));
  ]

let generation_tests =
  [
    Alcotest.test_case "greedy decoding is deterministic" `Quick (fun () ->
        let model = Cap.base_3b () in
        let f = parse sample_src in
        let g1 = M.generate model ~mode:Prompt.Generic ~rng:None ~sample_id:5 m0 f in
        let g2 = M.generate model ~mode:Prompt.Generic ~rng:None ~sample_id:5 m0 f in
        Alcotest.(check string) "same completion" g1.M.completion g2.M.completion);
    Alcotest.test_case "different inputs produce different behavior" `Quick (fun () ->
        (* the pseudo-noise makes greedy decoding input-sensitive *)
        let model = Cap.base_3b () in
        let f = parse sample_src in
        let outputs =
          List.init 40 (fun i ->
              (M.generate model ~mode:Prompt.Generic ~rng:None ~sample_id:i m0 f).M.copied)
        in
        Alcotest.(check bool) "not constant" true
          (List.exists (fun c -> c) outputs && List.exists (fun c -> not c) outputs));
    Alcotest.test_case "sampled rollouts respect the rng seed" `Quick (fun () ->
        let model = Cap.base_3b () in
        let f = parse sample_src in
        let gen seed =
          let rng = Random.State.make [| seed |] in
          (M.generate model ~mode:Prompt.Generic ~rng:(Some rng) ~sample_id:1 m0 f).M.completion
        in
        Alcotest.(check string) "same seed same rollout" (gen 9) (gen 9));
    Alcotest.test_case "augmented mode emits think and diagnosis" `Quick (fun () ->
        let model = Cap.base_3b () in
        let f = parse sample_src in
        let g = M.generate model ~mode:Prompt.Augmented ~rng:None ~sample_id:3 m0 f in
        Alcotest.(check bool) "claimed set" true (g.M.claimed <> None);
        Alcotest.(check bool) "think present" true (Prompt.think_of g.M.completion <> None));
    Alcotest.test_case "every generation records gradient steps" `Quick (fun () ->
        let model = Cap.base_3b () in
        let f = parse sample_src in
        let g = M.generate model ~mode:Prompt.Generic ~rng:None ~sample_id:7 m0 f in
        Alcotest.(check bool) "steps nonempty" true (List.length g.M.steps >= 2));
    Alcotest.test_case "clone isolates parameters" `Quick (fun () ->
        let a = Cap.base_3b () in
        let b = M.clone ~name:"b" a in
        M.set b "act:copy" 99.0;
        Alcotest.(check bool) "independent" true (M.get a "act:copy" <> 99.0));
    Alcotest.test_case "frozen parameters resist updates" `Quick (fun () ->
        let a = Cap.base_3b () in
        M.set a "test:frozen" 1.0;
        M.freeze a "test:frozen";
        Alcotest.(check bool) "is frozen" true (M.is_frozen a "test:frozen"));
  ]

let capability_tests =
  [
    Alcotest.test_case "larger models know more rules" `Quick (fun () ->
        let known kappa =
          List.length
            (List.filter (Cap.known_rule kappa) Veriopt_passes.Instcombine.rule_names)
        in
        Alcotest.(check bool) "monotone" true (known 0.35 <= known 0.62 && known 0.62 <= known 0.8));
    Alcotest.test_case "larger models hallucinate less" `Quick (fun () ->
        let small = Cap.init ~name:"s" 0.35 in
        let large = Cap.init ~name:"l" 0.8 in
        Alcotest.(check bool) "rate ordering" true
          (small.M.halluc_rate >= large.M.halluc_rate));
    Alcotest.test_case "zoo is in parameter-size order" `Quick (fun () ->
        Alcotest.(check (list string))
          "order"
          [ "Qwen-0.5B"; "Qwen-3B"; "LLM-Compiler-7B"; "Qwen-7B"; "Llama-8B"; "Qwen-32B" ]
          (List.map fst Cap.zoo));
    Alcotest.test_case "LLM-Compiler favours format compliance" `Quick (fun () ->
        let lc = Cap.llm_compiler_7b () in
        let base = Cap.base_3b () in
        Alcotest.(check bool) "format prior" true
          (M.get lc "format:ok" > M.get base "format:ok"));
  ]

let diag_tests =
  [
    Alcotest.test_case "oracle classes match verdict classes" `Quick (fun () ->
        Alcotest.(check bool) "corruption -> syntax" true
          (Diag.oracle_class (Diag.Saw_corruption Actions.Garbage_token) = Diag.C_syntax);
        Alcotest.(check bool) "bogus flag -> poison" true
          (Diag.oracle_class (Diag.Saw_unsound Actions.Bogus_flag) = Diag.C_more_poisonous);
        Alcotest.(check bool) "sound -> ok" true (Diag.oracle_class Diag.Saw_only_sound = Diag.C_ok));
    Alcotest.test_case "verdict messages classify back" `Quick (fun () ->
        Alcotest.(check bool) "poison msg" true
          (Diag.class_of_verdict_message `Semantic "ERROR: Target is more poisonous than source"
          = Diag.C_more_poisonous);
        Alcotest.(check bool) "value msg" true
          (Diag.class_of_verdict_message `Semantic "ERROR: Value mismatch\nExample:..."
          = Diag.C_value_mismatch);
        Alcotest.(check bool) "syntax" true
          (Diag.class_of_verdict_message `Syntax "ERROR: invalid IR" = Diag.C_syntax));
    Alcotest.test_case "class messages resemble verifier diagnostics (BLEU)" `Quick (fun () ->
        let model_msg = Diag.message_of_class Diag.C_more_poisonous in
        let alive_msg = "ERROR: Target is more poisonous than source\nExample:\n  arg0 = 64" in
        Alcotest.(check bool) "high bleu on right class" true
          (Veriopt_nlp.Bleu.score model_msg alive_msg
          > Veriopt_nlp.Bleu.score (Diag.message_of_class Diag.C_trace) alive_msg));
  ]

(* The keys an action had before rule keys were interned: a linear
   [find_rule] scan, with family "fold" for a name outside the catalog. *)
let find_rule_keys (a : Actions.action) : string list =
  match a with
  | Actions.Apply_rule (r, _) ->
    let family =
      match Veriopt_passes.Instcombine.find_rule r with
      | Some rule -> rule.Veriopt_passes.Rewrite.family
      | None -> "fold"
    in
    [ "rule:" ^ r; "family:" ^ family; "act:rule" ]
  | Actions.Apply_pass p -> [ "pass:" ^ Actions.pass_name p; "act:pass" ]
  | Actions.Unsound (k, _) -> [ "unsound:" ^ Actions.unsound_name k; "act:unsound" ]
  | Actions.Corrupt c -> [ "corrupt:" ^ Actions.corruption_name c; "act:corrupt" ]
  | Actions.Copy_input -> [ "act:copy" ]
  | Actions.Stop -> [ "act:stop" ]

let avail_tests =
  [
    Alcotest.test_case "offered choices carry their signature and find_rule keys" `Quick
      (fun () ->
        let check_avail ~what avail =
          List.iter
            (fun (a : M.avail) ->
              let s = Actions.action_to_string a.M.action in
              Alcotest.(check string) (what ^ " signature") s a.M.signature;
              Alcotest.(check (list string)) (what ^ " keys of " ^ s) (find_rule_keys a.M.action)
                a.M.keys)
            avail
        in
        for seed = 0 to 29 do
          let m, f = Veriopt_data.Lower.lower (Veriopt_data.Cgen.generate ~seed ~name:"t" ()) in
          List.iter
            (fun first -> check_avail ~what:(Printf.sprintf "seed %d" seed) (M.available ~first m f))
            [ true; false ]
        done;
        (* a constant-fold site is outside the rule catalog: family "fold" *)
        let f =
          parse
            "define i32 @f(i32 %x) {\nentry:\n  %a = add i32 2, 3\n  %r = add i32 %x, %a\n  ret i32 %r\n}"
        in
        let avail = M.available ~first:true m0 f in
        Alcotest.(check bool) "constant-fold offered" true
          (List.exists
             (fun (a : M.avail) -> a.M.action = Actions.Apply_rule ("constant-fold", "a"))
             avail);
        check_avail ~what:"constant-fold" avail;
        Alcotest.(check (list string)) "constant-fold keys"
          [ "rule:constant-fold"; "family:fold"; "act:rule" ]
          (M.keys_of_action (Actions.Apply_rule ("constant-fold", "a")));
        let unknown = Actions.Apply_rule ("no-such-rule", "a") in
        Alcotest.(check (list string)) "unknown rule keys" (find_rule_keys unknown)
          (M.keys_of_action unknown);
        (* catalog keys are shared, not rebuilt per offer *)
        let known = Actions.Apply_rule ("add-zero", "a") in
        Alcotest.(check bool) "add-zero keys interned" true
          (M.keys_of_action known == M.keys_of_action (Actions.Apply_rule ("add-zero", "b"))));
    Alcotest.test_case "a mask removes exactly the diagnosed signatures" `Quick (fun () ->
        let f = parse sample_src in
        let signatures mask =
          List.map (fun (a : M.avail) -> a.M.signature) (M.available ~mask ~first:true m0 f)
        in
        let all = signatures [] in
        List.iter
          (fun (ev, removed) ->
            List.iter
              (fun s -> Alcotest.(check bool) (s ^ " offered unmasked") true (List.mem s all))
              removed;
            Alcotest.(check (list string)) (Diag.evidence_name ev)
              (List.filter (fun s -> not (List.mem s removed)) all)
              (signatures (M.mask_of_evidence ev)))
          [
            (Diag.Saw_only_sound, []);
            (Diag.Saw_corruption Actions.Type_mismatch, [ "corrupt:type-mismatch" ]);
            ( Diag.Saw_unsound Actions.Wrong_constant,
              [ "unsound:wrong-constant@0"; "unsound:wrong-constant@1" ] );
          ]);
  ]

let suite =
  ("llm", prompt_tests @ action_tests @ generation_tests @ capability_tests @ diag_tests @ avail_tests)
