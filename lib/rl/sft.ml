(** Supervised fine-tuning: maximize the policy's log-likelihood of teacher
    decision sequences.

    Two kinds of training data, as in the paper's warm-up stage (§III-C2):

    - {e first-time} samples: the instcombine rule trace replayed as the
      teacher's edit sequence, self-diagnosed "OK";
    - {e correction} samples: a failure recorded during Model-Zero training
      — the bad attempt verbatim, the true Alive verdict class as the
      diagnosis, then the correct edit sequence. *)

open Veriopt_ir
module Model = Veriopt_llm.Model
module Actions = Veriopt_llm.Actions
module Diag = Veriopt_llm.Diag
module Instcombine = Veriopt_passes.Instcombine
module Rewrite = Veriopt_passes.Rewrite
module Suite = Veriopt_data.Suite

type datum = {
  modul : Ast.modul;
  src : Ast.func;
  attempt1 : Actions.action list; (* includes its terminal Stop/Corrupt/Copy *)
  diagnosis : (Diag.self_evidence * Diag.error_class) option; (* None in generic mode *)
  attempt2 : Actions.action list option;
}

(** A failure observed while training Model-Zero: the raw material for
    correction-augmented samples (the paper's "diagnostic-augmented sample
    generator" role of Model-Zero). *)
type failure_record = {
  f_sample : Suite.sample;
  bad_actions : Actions.action list;
  f_evidence : Diag.self_evidence;
  true_class : Diag.error_class;
  alive_message : string;
}

(* The teacher's edit sequence: mirror the instcombine driver, emitting the
   (rule, site) it would pick at each state. *)
let teacher_edits (modul : Ast.modul) (src : Ast.func) : Actions.action list =
  let rec go cur acc n =
    if n > 32 then List.rev (Actions.Stop :: acc)
    else
      match Instcombine.find_applicable modul cur with
      | Some (r, ni, _) ->
        let site = Option.get ni.Ast.name in
        let a = Actions.Apply_rule (r.Rewrite.rule_name, site) in
        go (Actions.apply_rule modul cur r.Rewrite.rule_name site) (a :: acc) (n + 1)
      | None ->
        if Actions.pass_applicable modul cur Actions.Forward_loads then
          let a = Actions.Apply_pass Actions.Forward_loads in
          go (Actions.apply_pass modul cur Actions.Forward_loads) (a :: acc) (n + 1)
        else if Actions.pass_applicable modul cur Actions.Dead_stores then
          let a = Actions.Apply_pass Actions.Dead_stores in
          go (Actions.apply_pass modul cur Actions.Dead_stores) (a :: acc) (n + 1)
        else List.rev (Actions.Stop :: acc)
  in
  go src [] 0

let first_time_datum ~(augmented : bool) (s : Suite.sample) : datum =
  {
    modul = s.Suite.modul;
    src = s.Suite.src;
    attempt1 = teacher_edits s.Suite.modul s.Suite.src;
    diagnosis = (if augmented then Some (Diag.Saw_only_sound, Diag.C_ok) else None);
    attempt2 = None;
  }

let correction_datum (r : failure_record) : datum =
  {
    modul = r.f_sample.Suite.modul;
    src = r.f_sample.Suite.src;
    attempt1 = r.bad_actions;
    diagnosis = Some (r.f_evidence, r.true_class);
    attempt2 = Some (teacher_edits r.f_sample.Suite.modul r.f_sample.Suite.src);
  }

(* ------------------------------------------------------------------ *)
(* The decision tape.

   Neither the states a teacher sequence walks through nor the choices
   offered at each of them depend on the parameters, and the noise term
   depends only on the model's [noise_scale], which SFT never changes.  So
   [train] replays each datum once into a tape of decisions, and every epoch
   only scores the tape against the current parameters. *)

type decision = {
  keys : string list array; (* one entry per offered choice *)
  noise : float array;
  target : int; (* the teacher's choice *)
}

(* [sample_id] seeds the noise.  It is the hash of the printed source, as
   SFT has always keyed it, not the Suite id generation uses: a Suite id is
   a position that every dataset numbers from 0, and rekeying would redraw
   every SFT noise term and so move every trained model. *)
type tape = { sample_id : int; decisions : decision list }

let find_action (avail : Model.avail list) (a : Actions.action) : int option =
  let s = Actions.action_to_string a in
  let rec go i = function
    | [] -> None
    | (x : Model.avail) :: rest -> if x.Model.signature = s then Some i else go (i + 1) rest
  in
  go 0 avail

let decision (model : Model.t) ~sample_id (avail : Model.avail list) (target : int) : decision =
  let arr = Array.of_list avail in
  {
    keys = Array.map (fun (a : Model.avail) -> a.Model.keys) arr;
    noise = Array.map (fun (a : Model.avail) -> Model.noise model ~sample_id a.Model.signature) arr;
    target;
  }

(* Replay an attempt's actions into decisions; a teacher action that is not
   offered at its state leaves no decision. *)
let replay_attempt (model : Model.t) ~sample_id ?(mask = []) (modul : Ast.modul) (src : Ast.func)
    (actions : Actions.action list) : decision list =
  let decisions = ref [] in
  let cur = ref src in
  List.iteri
    (fun i a ->
      let avail = Model.available ~mask ~first:(i = 0) modul !cur in
      Option.iter
        (fun idx -> decisions := decision model ~sample_id avail idx :: !decisions)
        (find_action avail a);
      match a with
      | Actions.Apply_rule (r, site) -> cur := Actions.apply_rule modul !cur r site
      | Actions.Apply_pass p -> cur := Actions.apply_pass modul !cur p
      | Actions.Unsound (k, idx) -> cur := Actions.apply_unsound !cur k idx
      | Actions.Corrupt _ | Actions.Copy_input | Actions.Stop -> ())
    actions;
  List.rev !decisions

let tape_of_datum (model : Model.t) (d : datum) : tape =
  let sample_id = Hashtbl.hash (Printer.func_to_string d.src) in
  (* the teacher always emits the correct format *)
  let format = decision model ~sample_id Model.format_avail 0 in
  let attempt1 = replay_attempt model ~sample_id d.modul d.src d.attempt1 in
  let correction =
    match d.diagnosis with
    | None -> []
    | Some (evidence, cls) ->
      let idx =
        let rec find i = function
          | [] -> 0
          | c :: rest -> if c = cls then i else find (i + 1) rest
        in
        find 0 Diag.all_classes
      in
      decision model ~sample_id (Model.diag_avail evidence) idx
      ::
      (match d.attempt2 with
      | None -> []
      | Some actions ->
        replay_attempt model ~sample_id ~mask:(Model.mask_of_evidence evidence) d.modul d.src
          actions)
  in
  { sample_id; decisions = (format :: attempt1) @ correction }

(* ------------------------------------------------------------------ *)
(* Likelihood gradient of a tape *)

let bump grad k v = Hashtbl.replace grad k (v +. Option.value ~default:0. (Hashtbl.find_opt grad k))

(* Cross-entropy gradient for choosing [d.target] under the current
   parameters; the scores add up exactly as [Model.score] does. *)
let grade (model : Model.t) grad (d : decision) : unit =
  let scores =
    Array.mapi
      (fun j keys -> List.fold_left (fun acc k -> acc +. Model.get model k) 0. keys +. d.noise.(j))
      d.keys
  in
  let probs = Model.softmax model.Model.temperature scores in
  Array.iteri
    (fun j keys ->
      let indicator = if j = d.target then 1.0 else 0.0 in
      List.iter (fun k -> bump grad k (indicator -. probs.(j))) keys)
    d.keys

type config = { epochs : int; learning_rate : float; clip_norm : float }

let default_config = { epochs = 4; learning_rate = 0.5; clip_norm = 8.0 }

(** Train by maximum likelihood over the data.  Single-threaded, full-batch
    per epoch with gradient clipping; each datum is replayed once, into its
    tape, before the first epoch. *)
let train (cfg : config) (model : Model.t) (data : datum list) : unit =
  let tapes = List.map (tape_of_datum model) data in
  for _epoch = 1 to cfg.epochs do
    let grad = Hashtbl.create 512 in
    List.iter (fun t -> List.iter (grade model grad) t.decisions) tapes;
    let n = float_of_int (max 1 (List.length data)) in
    let norm = sqrt (Hashtbl.fold (fun _ g acc -> acc +. (g *. g)) grad 0.) /. n in
    let scale = if norm > cfg.clip_norm then cfg.clip_norm /. norm else 1.0 in
    Hashtbl.iter
      (fun k g ->
        if not (Model.is_frozen model k) then begin
          let p = Model.param model k in
          p := !p +. (cfg.learning_rate *. scale *. g /. n)
        end)
      grad
  done
