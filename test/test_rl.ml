(* Rewards (the paper's Eqs. 1, 2, 4), GRPO mechanics, and SFT. *)

open Veriopt_ir
module R = Veriopt_rl.Reward
module G = Veriopt_rl.Grpo
module Sft = Veriopt_rl.Sft
module M = Veriopt_llm.Model
module Cap = Veriopt_llm.Capability
module S = Veriopt_data.Suite
module Prompt = Veriopt_llm.Prompt
module Diag = Veriopt_llm.Diag
module T = Veriopt_rl.Trainer

let m0 = Ast.empty_module
let parse = Parser.parse_func

let feq = Alcotest.(check (float 1e-9))

let reward_tests =
  [
    Alcotest.test_case "Eq.1 hierarchy" `Quick (fun () ->
        (* exact correct answer: t(1 + a(1 + m)) + b = 1*(1+1*2) + 1 = 4 *)
        feq "exact" 4.0
          (R.correctness ~format_ok:true ~equivalent:true ~exact_match:true ~bleu:1.0);
        (* correct but different: 1*(1+1) + b *)
        feq "different" 2.5
          (R.correctness ~format_ok:true ~equivalent:true ~exact_match:false ~bleu:0.5);
        (* wrong but well-formed: 1 + b *)
        feq "wrong" 1.3
          (R.correctness ~format_ok:true ~equivalent:false ~exact_match:false ~bleu:0.3);
        (* format failure: only BLEU *)
        feq "bad format" 0.2
          (R.correctness ~format_ok:false ~equivalent:false ~exact_match:false ~bleu:0.2));
    Alcotest.test_case "Eq.1 ordering is strict" `Quick (fun () ->
        let r ~e ~m ~b = R.correctness ~format_ok:true ~equivalent:e ~exact_match:m ~bleu:b in
        Alcotest.(check bool) "exact > correct > wrong" true
          (r ~e:true ~m:true ~b:1.0 > r ~e:true ~m:false ~b:0.9
          && r ~e:true ~m:false ~b:0.2 > r ~e:false ~m:false ~b:0.9));
    Alcotest.test_case "Eq.1 evaluated end to end" `Quick (fun () ->
        let src = parse "define i32 @f(i32 %x) {\nentry:\n  %r = add i32 %x, 0\n  ret i32 %r\n}" in
        let label = parse "define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}" in
        let completion = "<answer>\ndefine i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}\n</answer>" in
        let r, vc = R.correctness_of_completion m0 ~src ~label completion in
        Alcotest.(check bool) "equivalent" true
          (vc.R.verdict.Veriopt_alive.Alive.category = Veriopt_alive.Alive.Equivalent);
        feq "exact reward" 4.0 r);
    Alcotest.test_case "Eq.2 agreement cases" `Quick (fun () ->
        let src = parse "define i32 @f(i32 %x) {\nentry:\n  %r = add i32 %x, 0\n  ret i32 %r\n}" in
        (* correct attempt claimed OK: full reward *)
        feq "both ok" 1.0
          (R.cot_agreement m0 ~src ~claimed:Diag.C_ok
             ~think_attempt:"define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}"
             ~model_message:"");
        (* wrong attempt claimed OK: zero *)
        feq "missed error" 0.0
          (R.cot_agreement m0 ~src ~claimed:Diag.C_ok
             ~think_attempt:"define i32 @f(i32 %x) {\nentry:\n  ret i32 0\n}"
             ~model_message:"");
        (* wrong attempt claimed ERR: at least 0.5 *)
        Alcotest.(check bool) "caught error >= 0.5" true
          (R.cot_agreement m0 ~src ~claimed:Diag.C_value_mismatch
             ~think_attempt:"define i32 @f(i32 %x) {\nentry:\n  ret i32 0\n}"
             ~model_message:(Diag.message_of_class Diag.C_value_mismatch)
          >= 0.5));
    Alcotest.test_case "Eq.4 latency reward shape" `Quick (fun () ->
        (* no speedup, or unverified: zero *)
        feq "u<=1" 0.0 (R.latency ~u_max:3.0 ~equivalent:true ~baseline:10 ~candidate:10 ());
        feq "not equivalent" 0.0 (R.latency ~u_max:3.0 ~equivalent:false ~baseline:30 ~candidate:10 ());
        (* saturates at u_max *)
        feq "saturated" 1.0 (R.latency ~u_max:3.0 ~equivalent:true ~baseline:100 ~candidate:10 ());
        (* convex in between: halfway speedup gives (0.5)^2 *)
        feq "convex" 0.25 (R.latency ~u_max:3.0 ~equivalent:true ~baseline:20 ~candidate:10 ()));
    Alcotest.test_case "U_max is the 80th percentile of label speedups" `Quick (fun () ->
        let ds = S.build ~verify:false ~seed0:99 ~n:12 () in
        let u = R.u_max_of_samples ds.S.samples in
        Alcotest.(check bool) "sane range" true (u > 1.0 && u < 50.0));
  ]

let grpo_tests =
  [
    Alcotest.test_case "advantages are standardized" `Quick (fun () ->
        let a = G.advantages [| 1.0; 2.0; 3.0 |] in
        feq "mean zero" 0.0 (Array.fold_left ( +. ) 0. a /. 3.);
        Alcotest.(check bool) "ordering preserved" true (a.(0) < a.(1) && a.(1) < a.(2)));
    Alcotest.test_case "uniform rewards give zero advantage" `Quick (fun () ->
        let a = G.advantages [| 2.0; 2.0; 2.0; 2.0 |] in
        Array.iter (fun x -> feq "zero" 0.0 x) a);
    Alcotest.test_case "update moves probability toward rewarded actions" `Quick (fun () ->
        let model = M.create "test" in
        M.set model "good" 0.0;
        M.set model "bad" 0.0;
        let step chosen =
          { M.keys = [| [ "good" ]; [ "bad" ] |]; probs = [| 0.5; 0.5 |]; chosen }
        in
        let rollouts =
          [ ({ G.steps = [ step 0 ]; reward = 1.0 }, 1.0); ({ G.steps = [ step 1 ]; reward = 0.0 }, -1.0) ]
        in
        G.update G.default_config model rollouts;
        Alcotest.(check bool) "good above bad" true (M.get model "good" > M.get model "bad"));
    Alcotest.test_case "frozen keys do not move" `Quick (fun () ->
        let model = M.create "test" in
        M.set model "stuck" 0.0;
        M.freeze model "stuck";
        let step = { M.keys = [| [ "stuck" ]; [ "free" ] |]; probs = [| 0.5; 0.5 |]; chosen = 0 } in
        G.update G.default_config model [ ({ G.steps = [ step ]; reward = 1.0 }, 1.0) ];
        feq "frozen unchanged" 0.0 (M.get model "stuck"));
    Alcotest.test_case "EMA smoothing" `Quick (fun () ->
        let e = G.ema ~alpha:0.5 [ 0.0; 1.0; 1.0 ] in
        Alcotest.(check (list (float 1e-9))) "series" [ 0.0; 0.5; 0.75 ] e);
    Alcotest.test_case "gradient norm clipping bounds the step" `Quick (fun () ->
        let model = M.create "test" in
        let huge =
          { M.keys = [| [ "k" ]; [ "other" ] |]; probs = [| 0.0; 1.0 |]; chosen = 0 }
        in
        let cfg = { G.default_config with G.learning_rate = 1.0; clip_norm = 0.1 } in
        G.update cfg model [ ({ G.steps = [ huge ]; reward = 1.0 }, 100.0) ];
        Alcotest.(check bool) "bounded" true (abs_float (M.get model "k") <= 0.11));
  ]

let sft_tests =
  [
    Alcotest.test_case "teacher edits reproduce the instcombine label" `Quick (fun () ->
        let ds = S.build ~verify:false ~seed0:31337 ~n:3 () in
        List.iter
          (fun (s : S.sample) ->
            let actions = Sft.teacher_edits s.S.modul s.S.src in
            (* replay them *)
            let out =
              List.fold_left
                (fun f a ->
                  match a with
                  | Veriopt_llm.Actions.Apply_rule (r, site) ->
                    Veriopt_llm.Actions.apply_rule s.S.modul f r site
                  | Veriopt_llm.Actions.Apply_pass p -> Veriopt_llm.Actions.apply_pass s.S.modul f p
                  | _ -> f)
                s.S.src actions
            in
            (* the teacher's replayed output must be alpha-equal to the
               instcombine label *)
            Alcotest.(check bool) "matches label" true (Builder.alpha_equal out s.S.label))
          ds.S.samples);
    Alcotest.test_case "SFT raises teacher-sequence likelihood" `Quick (fun () ->
        let ds = S.build ~verify:false ~seed0:123 ~n:6 () in
        let model = Cap.base_3b () in
        let before = M.get model "act:rule" in
        let data = List.map (Sft.first_time_datum ~augmented:false) ds.S.samples in
        Sft.train { Sft.default_config with Sft.epochs = 3 } model data;
        Alcotest.(check bool) "rule logit rose" true (M.get model "act:rule" > before));
    Alcotest.test_case "SFT improves greedy accuracy on the training set" `Quick (fun () ->
        let ds = S.build ~verify:true ~seed0:321 ~n:8 () in
        let base = Cap.base_3b () in
        let sft = M.clone ~name:"sft" base in
        Sft.train { Sft.default_config with Sft.epochs = 5 }
          sft
          (List.map (Sft.first_time_datum ~augmented:false) ds.S.samples);
        let accuracy model =
          List.length
            (List.filter
               (fun (s : S.sample) ->
                 let g =
                   M.generate model ~mode:Prompt.Generic ~rng:None ~sample_id:s.S.id s.S.modul
                     s.S.src
                 in
                 let vc = R.verify_completion s.S.modul ~src:s.S.src g.M.completion in
                 vc.R.verdict.Veriopt_alive.Alive.category = Veriopt_alive.Alive.Equivalent
                 && not g.M.copied)
               ds.S.samples)
        in
        Alcotest.(check bool) "sft at least as accurate" true (accuracy sft >= accuracy base));
  ]

(* ------------------------------------------------------------------ *)
(* The reference SFT: every epoch replays every datum against the policy
   and grades each teacher choice afresh, as [Sft.train] did before it
   graded a decision tape built once.  Kept verbatim as the oracle of the
   differential test below. *)
module Reference_sft = struct
  module Actions = Veriopt_llm.Actions

  let bump grad k v =
    Hashtbl.replace grad k (v +. Option.value ~default:0. (Hashtbl.find_opt grad k))

  let score (model : M.t) ~sample_id (a : M.avail) =
    List.fold_left (fun acc k -> acc +. M.get model k) 0. a.M.keys
    +. M.noise model ~sample_id (Actions.action_to_string a.M.action)

  let grade_choice (model : M.t) grad ~sample_id (avail : M.avail list) (target_index : int) =
    let arr = Array.of_list avail in
    let scores = Array.map (score model ~sample_id) arr in
    let probs = M.softmax model.M.temperature scores in
    Array.iteri
      (fun j (a : M.avail) ->
        let indicator = if j = target_index then 1.0 else 0.0 in
        List.iter (fun k -> bump grad k (indicator -. probs.(j))) a.M.keys)
      arr

  let find_action (avail : M.avail list) (a : Actions.action) : int option =
    let s = Actions.action_to_string a in
    let rec go i = function
      | [] -> None
      | (x : M.avail) :: rest ->
        if Actions.action_to_string x.M.action = s then Some i else go (i + 1) rest
    in
    go 0 avail

  let replay_attempt (model : M.t) grad ~sample_id ?(mask = []) (modul : Ast.modul)
      (src : Ast.func) (actions : Actions.action list) : unit =
    let cur = ref src in
    List.iteri
      (fun i a ->
        let avail = M.available ~mask ~first:(i = 0) modul !cur in
        (match find_action avail a with
        | Some idx -> grade_choice model grad ~sample_id avail idx
        | None -> ());
        match a with
        | Actions.Apply_rule (r, site) -> cur := Actions.apply_rule modul !cur r site
        | Actions.Apply_pass p -> cur := Actions.apply_pass modul !cur p
        | Actions.Unsound (k, idx) -> cur := Actions.apply_unsound !cur k idx
        | Actions.Corrupt _ | Actions.Copy_input | Actions.Stop -> ())
      actions

  let mask_of_evidence = function
    | Diag.Saw_corruption c -> [ Actions.action_to_string (Actions.Corrupt c) ]
    | Diag.Saw_unsound k ->
      List.init 3 (fun i -> Actions.action_to_string (Actions.Unsound (k, i)))
    | Diag.Saw_only_sound -> []

  let grade_datum (model : M.t) grad (d : Sft.datum) : unit =
    let sample_id = Hashtbl.hash (Printer.func_to_string d.Sft.src) in
    grade_choice model grad ~sample_id M.format_avail 0;
    replay_attempt model grad ~sample_id d.Sft.modul d.Sft.src d.Sft.attempt1;
    match d.Sft.diagnosis with
    | None -> ()
    | Some (evidence, cls) -> (
      let idx =
        let rec find i = function
          | [] -> 0
          | c :: rest -> if c = cls then i else find (i + 1) rest
        in
        find 0 Diag.all_classes
      in
      grade_choice model grad ~sample_id (M.diag_avail evidence) idx;
      match d.Sft.attempt2 with
      | None -> ()
      | Some actions ->
        replay_attempt model grad ~sample_id ~mask:(mask_of_evidence evidence) d.Sft.modul
          d.Sft.src actions)

  let train (cfg : Sft.config) (model : M.t) (data : Sft.datum list) : unit =
    for _epoch = 1 to cfg.Sft.epochs do
      let grad = Hashtbl.create 512 in
      List.iter (grade_datum model grad) data;
      let n = float_of_int (max 1 (List.length data)) in
      let norm = sqrt (Hashtbl.fold (fun _ g acc -> acc +. (g *. g)) grad 0.) /. n in
      let scale = if norm > cfg.Sft.clip_norm then cfg.Sft.clip_norm /. norm else 1.0 in
      Hashtbl.iter
        (fun k g ->
          if not (M.is_frozen model k) then begin
            let p = M.param model k in
            p := !p +. (cfg.Sft.learning_rate *. scale *. g /. n)
          end)
        grad
    done
end

(* theta in table order, each value as its bit pattern *)
let theta_bits (model : M.t) =
  Hashtbl.fold (fun k r acc -> (k, Int64.bits_of_float !r) :: acc) model.M.theta []

let tape_tests =
  [
    Alcotest.test_case "SFT on a decision tape leaves theta bit-identical to the replay" `Quick
      (fun () ->
        (* correction data from real Model-Zero failures, with both the
           corruption and the unsound masks among them *)
        let ds = S.build ~verify:false ~seed0:123 ~n:6 () in
        let base = Cap.base_3b () in
        let opts = { T.default_options with T.grpo_steps = 3 } in
        let failures = (T.train_model_zero ~opts base ds.S.samples).T.failures in
        let has p = List.exists (fun (f : Sft.failure_record) -> p f.Sft.f_evidence) failures in
        Alcotest.(check bool) "a corruption mask" true
          (has (function Diag.Saw_corruption _ -> true | _ -> false));
        Alcotest.(check bool) "an unsound mask" true
          (has (function Diag.Saw_unsound _ -> true | _ -> false));
        let data =
          List.map (Sft.first_time_datum ~augmented:true) ds.S.samples
          @ List.map Sft.correction_datum failures
        in
        let fresh () = M.clone ~name:"Warm-up" ~noise_scale:(0.72 *. base.M.noise_scale) base in
        let taped = fresh () and replayed = fresh () in
        Sft.train Sft.default_config taped data;
        Reference_sft.train Sft.default_config replayed data;
        let sorted m = List.sort compare (theta_bits m) in
        Alcotest.(check (list string)) "same key set"
          (List.map fst (sorted replayed)) (List.map fst (sorted taped));
        List.iter2
          (fun (k, want) (_, got) -> Alcotest.(check int64) k want got)
          (sorted replayed) (sorted taped);
        Alcotest.(check (list string)) "same insertion order"
          (List.map fst (theta_bits replayed)) (List.map fst (theta_bits taped));
        (* the tape keys its noise on the printed source *)
        List.iter
          (fun (d : Sft.datum) ->
            let tape = Sft.tape_of_datum taped d in
            Alcotest.(check int) "sample id" (Hashtbl.hash (Printer.func_to_string d.Sft.src))
              tape.Sft.sample_id;
            List.iter
              (fun (dec : Sft.decision) ->
                Alcotest.(check int) "one noise per choice" (Array.length dec.Sft.keys)
                  (Array.length dec.Sft.noise);
                Alcotest.(check bool) "target offered" true
                  (dec.Sft.target >= 0 && dec.Sft.target < Array.length dec.Sft.keys))
              tape.Sft.decisions)
          data);
    Alcotest.test_case "full pipeline reward log is pinned" `Quick (fun () ->
        (* six samples, three GRPO steps per stage; the digest was recorded
           before SFT graded a decision tape, and must not move with it *)
        let ds = S.build ~verify:false ~seed0:4242 ~n:6 () in
        let opts = { T.default_options with T.grpo_steps = 3 } in
        let r = T.full_pipeline ~opts (Cap.base_3b ()) ds.S.samples in
        let rewards =
          r.T.stage1.T.zero_log.T.raw_rewards @ r.T.stage2.T.correctness_log.T.raw_rewards
          @ r.T.stage3.T.latency_log.T.raw_rewards
        in
        let log = String.concat "," (List.map (Printf.sprintf "%h") rewards) in
        Alcotest.(check string) "reward-log digest" "de7c27adaa2700eb02f4c6badd7e3361"
          (Digest.to_hex (Digest.string log)));
  ]

let suite = ("rl", reward_tests @ grpo_tests @ sft_tests @ tape_tests)
