(** The surrogate policy standing in for the fine-tuned LLM.

    A completion is sampled as a sequence of structured choices — edit
    actions over the input function, a format-compliance choice, and (in
    augmented mode) a self-diagnosis — each drawn from a softmax over
    learnable logits.  [log pi] of a completion is therefore exact and
    differentiable in the parameters, which is all that SFT and GRPO need.

    Input sensitivity is modelled by a deterministic pseudo-noise term per
    (input, action) pair: like a real LLM, the policy behaves differently on
    different prompts even under greedy decoding, and training must shift
    logits enough to dominate that noise.  The [capability] initialization
    (see {!Capability}) controls the competence prior, standing in for
    parameter count. *)

open Veriopt_ir
module Ast = Veriopt_ir.Ast

type t = {
  name : string;
  theta : (string, float ref) Hashtbl.t;
  frozen : (string, unit) Hashtbl.t;
      (* parameters outside the model's representational capacity: rules a
         small model simply cannot learn (the paper attributes its fig. 11/12
         misses to "too few model parameters to fully represent
         InstCombine") *)
  noise_scale : float;
  temperature : float;
  halluc_rate : float;
      (* irreducible per-step hallucination floor: even the trained paper
         model keeps ~9% semantic+syntax errors (Table II); no amount of
         fine-tuning drives an LLM's failure rate to zero *)
  pass_size_limit : int;
      (* whole-function transformations (mem2reg/simplifycfg) only succeed on
         functions the model can "hold in its head"; emergent wins in the
         paper are on small functions (its Figs. 8-10) *)
}

let create ?(noise_scale = 2.0) ?(temperature = 1.0) ?(halluc_rate = 0.0)
    ?(pass_size_limit = max_int) name =
  {
    name;
    theta = Hashtbl.create 256;
    frozen = Hashtbl.create 16;
    noise_scale;
    temperature;
    halluc_rate;
    pass_size_limit;
  }

let freeze (t : t) key = Hashtbl.replace t.frozen key ()
let is_frozen (t : t) key = Hashtbl.mem t.frozen key

let param (t : t) key =
  match Hashtbl.find_opt t.theta key with
  | Some r -> r
  | None ->
    let r = ref 0.0 in
    Hashtbl.replace t.theta key r;
    r

let get (t : t) key = !(param t key)
let set (t : t) key v = param t key := v

let clone ?name ?noise_scale ?halluc_rate (t : t) : t =
  let copy = Hashtbl.create (Hashtbl.length t.theta) in
  Hashtbl.iter (fun k r -> Hashtbl.replace copy k (ref !r)) t.theta;
  let frozen = Hashtbl.copy t.frozen in
  {
    t with
    theta = copy;
    frozen;
    name = Option.value ~default:t.name name;
    noise_scale = Option.value ~default:t.noise_scale noise_scale;
    halluc_rate = Option.value ~default:t.halluc_rate halluc_rate;
  }

(* ------------------------------------------------------------------ *)
(* Scoring *)

(* The keys of every rule the policy can be offered, built once when the
   module initialises: the first rule of each name gives its family, as
   [Instcombine.find_rule] does, and a name outside the catalog (such as
   the ["constant-fold"] site) has family ["fold"].  Read-only afterwards,
   so any domain may share the lists. *)
let rule_keys name family = [ "rule:" ^ name; "family:" ^ family; "act:rule" ]

let rule_key_table : (string, string list) Hashtbl.t =
  let tbl = Hashtbl.create 256 in
  let add name family =
    if not (Hashtbl.mem tbl name) then Hashtbl.replace tbl name (rule_keys name family)
  in
  List.iter
    (fun (r : Veriopt_passes.Rewrite.rule) -> add r.rule_name r.family)
    Veriopt_passes.Instcombine.all_rules;
  add "constant-fold" "fold";
  tbl

(** Parameter keys contributing to an action's logit. *)
let keys_of_action (a : Actions.action) : string list =
  match a with
  | Actions.Apply_rule (r, _) -> (
    match Hashtbl.find_opt rule_key_table r with Some keys -> keys | None -> rule_keys r "fold")
  | Actions.Apply_pass p -> [ "pass:" ^ Actions.pass_name p; "act:pass" ]
  | Actions.Unsound (k, _) -> [ "unsound:" ^ Actions.unsound_name k; "act:unsound" ]
  | Actions.Corrupt c -> [ "corrupt:" ^ Actions.corruption_name c; "act:corrupt" ]
  | Actions.Copy_input -> [ "act:copy" ]
  | Actions.Stop -> [ "act:stop" ]

(* Deterministic input-dependent pseudo-noise in [-1, 1]. *)
let noise (t : t) ~(sample_id : int) (signature : string) : float =
  let h = Hashtbl.hash (sample_id, signature, "veriopt-noise") in
  (float_of_int (h land 0xffff) /. 32768.) -. 1.0 |> fun x -> x *. t.noise_scale

type avail = { action : Actions.action; signature : string; keys : string list }

let avail_of (a : Actions.action) : avail =
  { action = a; signature = Actions.action_to_string a; keys = keys_of_action a }

let score (t : t) ~sample_id (a : avail) : float =
  List.fold_left (fun acc k -> acc +. get t k) 0. a.keys +. noise t ~sample_id a.signature

(** One recorded decision: the probabilities over the available choices and
    which was taken.  Sufficient statistics for d log pi / d theta. *)
type step = { keys : string list array; probs : float array; chosen : int }

let softmax temperature scores =
  let m = Array.fold_left max neg_infinity scores in
  let exps = Array.map (fun s -> exp ((s -. m) /. max 1e-6 temperature)) scores in
  let z = Array.fold_left ( +. ) 0. exps in
  Array.map (fun e -> e /. z) exps

(** Choose among available actions: greedy when [rng] is [None]. *)
let choose (t : t) ~(rng : Random.State.t option) ~sample_id (avail : avail list) : int * step =
  let arr = Array.of_list avail in
  let scores = Array.map (score t ~sample_id) arr in
  let probs = softmax t.temperature scores in
  let chosen =
    match rng with
    | None ->
      (* greedy: argmax *)
      let best = ref 0 in
      Array.iteri (fun i s -> if s > scores.(!best) then best := i) scores;
      !best
    | Some rng ->
      let x = Random.State.float rng 1.0 in
      let rec pick i acc =
        if i >= Array.length probs - 1 then i
        else if acc +. probs.(i) >= x then i
        else pick (i + 1) (acc +. probs.(i))
      in
      pick 0 0.
  in
  (chosen, { keys = Array.map (fun (a : avail) -> a.keys) arr; probs; chosen })

(* ------------------------------------------------------------------ *)
(* Rollouts *)

let max_edit_steps = 24

(* The choices that do not depend on the input, built once. *)
let pass_avails =
  List.map
    (fun (p, global) -> (p, global, avail_of (Actions.Apply_pass p)))
    [
      (Actions.Mem2reg, true);
      (Actions.Simplifycfg, true);
      (Actions.Forward_loads, false);
      (Actions.Dead_stores, false);
    ]

let unsound_avails =
  List.map
    (fun k -> (k, List.init 3 (fun i -> avail_of (Actions.Unsound (k, i)))))
    [
      Actions.Wrong_constant;
      Actions.Flip_operands;
      Actions.Predicate_flip;
      Actions.Drop_store;
      Actions.Bogus_flag;
      Actions.Width_confusion;
      Actions.Stale_forward;
    ]

let corrupt_avails = List.map (fun c -> avail_of (Actions.Corrupt c)) Actions.all_corruptions
let stop_avail = avail_of Actions.Stop
let copy_avail = avail_of Actions.Copy_input

(** Available actions at one point of an attempt.  [mask] removes action
    signatures (used when correcting a diagnosed mistake). *)
let available ?(mask = []) ?(size_limit = max_int) ~(first : bool) (modul : Ast.modul)
    (f : Ast.func) : avail list =
  let rules =
    List.map
      (fun (r, site) -> avail_of (Actions.Apply_rule (r, site)))
      (Actions.enumerate_rule_sites modul f)
  in
  let passes =
    (* local memory cleanups are always in scope; whole-function passes only
       fit on small functions (capacity limit) *)
    List.filter_map
      (fun (p, global, a) ->
        if (not (global && Veriopt_cost.Icount.of_func f > size_limit)) && Actions.pass_applicable modul f p
        then Some a
        else None)
      pass_avails
  in
  let unsound =
    List.concat_map
      (fun (k, avails) ->
        let n = Actions.unsound_sites f k in
        List.filteri (fun i _ -> i < n) avails)
      unsound_avails
  in
  let base =
    rules @ passes @ unsound @ corrupt_avails @ [ stop_avail ] @ if first then [ copy_avail ] else []
  in
  List.filter (fun a -> not (List.mem a.signature mask)) base

(** Signatures a retry masks out once the first attempt is diagnosed from
    [evidence]. *)
let mask_of_evidence = function
  | Diag.Saw_corruption c -> [ Actions.action_to_string (Actions.Corrupt c) ]
  | Diag.Saw_unsound k -> List.init 3 (fun i -> Actions.action_to_string (Actions.Unsound (k, i)))
  | Diag.Saw_only_sound -> []

type attempt = {
  out_func : Ast.func;
  corruption : Actions.corruption option;
  copied : bool;
  evidence : Diag.self_evidence;
  attempt_steps : step list;
  actions_taken : Actions.action list;
}

let rollout_attempt (t : t) ~(rng : Random.State.t option) ~sample_id ?(mask = [])
    (modul : Ast.modul) (f : Ast.func) : attempt =
  let steps = ref [] in
  let actions = ref [] in
  let evidence = ref Diag.Saw_only_sound in
  let corruption = ref None in
  let copied = ref false in
  let cur = ref f in
  let continue_ = ref true in
  let n = ref 0 in
  while !continue_ && !n < max_edit_steps do
    incr n;
    let avail = available ~mask ~size_limit:t.pass_size_limit ~first:(!n = 1) modul !cur in
    (* irreducible hallucination floor: a deterministic per-(input, step)
       coin occasionally overrides the policy with a corrupt/unsound move *)
    let forced =
      let h =
        float_of_int (Hashtbl.hash (sample_id, !n, t.name, "halluc") land 0xffff) /. 65536.
      in
      if h < t.halluc_rate then begin
        let bad =
          List.mapi (fun i a -> (i, a)) avail
          |> List.filter (fun (_, (a : avail)) ->
                 match a.action with
                 | Actions.Corrupt _ | Actions.Unsound _ -> true
                 | _ -> false)
        in
        match bad with
        | [] -> None
        | _ ->
          let pick = Hashtbl.hash (sample_id, !n, "halluc-pick") mod List.length bad in
          Some (fst (List.nth bad pick))
      end
      else None
    in
    let idx, step =
      match forced with
      | Some i ->
        let arr = Array.of_list avail in
        let scores = Array.map (score t ~sample_id) arr in
        let probs = softmax t.temperature scores in
        (i, { keys = Array.map (fun (a : avail) -> a.keys) arr; probs; chosen = i })
      | None -> choose t ~rng ~sample_id avail
    in
    steps := step :: !steps;
    let a = (List.nth avail idx).action in
    actions := a :: !actions;
    match a with
    | Actions.Stop -> continue_ := false
    | Actions.Copy_input ->
      copied := true;
      continue_ := false
    | Actions.Corrupt c ->
      corruption := Some c;
      evidence := Diag.Saw_corruption c;
      continue_ := false
    | Actions.Unsound (k, i) ->
      cur := Actions.apply_unsound !cur k i;
      evidence := (match !evidence with Diag.Saw_corruption _ -> !evidence | _ -> Diag.Saw_unsound k)
    | Actions.Apply_rule (r, site) -> cur := Actions.apply_rule modul !cur r site
    | Actions.Apply_pass p -> cur := Actions.apply_pass modul !cur p
  done;
  {
    out_func = (if !copied then f else !cur);
    corruption = !corruption;
    copied = !copied;
    evidence = !evidence;
    attempt_steps = List.rev !steps;
    actions_taken = List.rev !actions;
  }

(* ------------------------------------------------------------------ *)
(* Full generation *)

type generation = {
  completion : string; (* rendered model output *)
  answer_text : string option; (* parsed back out of the completion *)
  steps : step list; (* every decision, for the policy gradient *)
  claimed : Diag.error_class option; (* augmented mode self-verdict *)
  evidence : Diag.self_evidence;
  copied : bool;
  first_attempt : attempt;
  final_attempt : attempt;
}

let attempt_text (_t : t) ~sample_id (a : attempt) : string =
  let text = Printer.func_to_string a.out_func in
  match a.corruption with
  | None -> text
  | Some c ->
    let rng = Random.State.make [| sample_id; Hashtbl.hash (Actions.corruption_name c) |] in
    Actions.corrupt_text rng c text

(* The format and diagnosis choices reuse [stop_avail]'s action and
   signature as a placeholder; their keys drive everything. *)
let diag_avail (ev : Diag.self_evidence) : avail list =
  List.map
    (fun c ->
      { stop_avail with keys = [ Fmt.str "diag:%s:%s" (Diag.evidence_name ev) (Diag.class_name c) ] })
    Diag.all_classes

let format_avail : avail list =
  [ { stop_avail with keys = [ "format:ok" ] }; { stop_avail with keys = [ "format:bad" ] } ]

let generate (t : t) ~(mode : Prompt.mode) ~(rng : Random.State.t option) ~(sample_id : int)
    (modul : Ast.modul) (f : Ast.func) : generation =
  let steps = ref [] in
  let push s = steps := !steps @ [ s ] in
  (* format compliance decision *)
  let fmt_idx, fmt_step = choose t ~rng ~sample_id format_avail in
  push fmt_step;
  let well_formed = fmt_idx = 0 in
  let a1 = rollout_attempt t ~rng ~sample_id modul f in
  List.iter push a1.attempt_steps;
  match mode with
  | Prompt.Generic ->
    let answer = attempt_text t ~sample_id a1 in
    let completion = Prompt.render { Prompt.think = None; answer; well_formed } in
    {
      completion;
      answer_text = Prompt.answer_of completion;
      steps = !steps;
      claimed = None;
      evidence = a1.evidence;
      copied = a1.copied;
      first_attempt = a1;
      final_attempt = a1;
    }
  | Prompt.Augmented ->
    (* self-diagnosis of the first attempt *)
    let d_idx, d_step = choose t ~rng ~sample_id (diag_avail a1.evidence) in
    push d_step;
    let claimed = List.nth Diag.all_classes d_idx in
    let attempt1_text = attempt_text t ~sample_id a1 in
    if claimed = Diag.C_ok then begin
      let completion =
        Prompt.render { Prompt.think = Some (attempt1_text, None); answer = attempt1_text; well_formed }
      in
      {
        completion;
        answer_text = Prompt.answer_of completion;
        steps = !steps;
        claimed = Some claimed;
        evidence = a1.evidence;
        copied = a1.copied;
        first_attempt = a1;
        final_attempt = a1;
      }
    end
    else begin
      (* the model believes its attempt failed: diagnose, then retry with
         the diagnosed action masked out *)
      let a2 = rollout_attempt t ~rng ~sample_id ~mask:(mask_of_evidence a1.evidence) modul f in
      List.iter push a2.attempt_steps;
      let answer = attempt_text t ~sample_id a2 in
      let diag_msg = Diag.message_of_class claimed in
      let completion =
        Prompt.render
          { Prompt.think = Some (attempt1_text, Some diag_msg); answer; well_formed }
      in
      {
        completion;
        answer_text = Prompt.answer_of completion;
        steps = !steps;
        claimed = Some claimed;
        evidence = a1.evidence;
        copied = a2.copied;
        first_attempt = a1;
        final_attempt = a2;
      }
    end
