(** The deployment backend: the paper's key safety observation (via
    LLM-Vectorizer) is that because the model transforms IR to IR, every
    output can be formally checked and the original kept on failure — the
    LLM need never be trusted.

    [optimize] is that wrapper: greedy decode, verify, fall back. *)

open Veriopt_ir
module Model = Veriopt_llm.Model
module Prompt = Veriopt_llm.Prompt
module Alive = Veriopt_alive.Alive
module Reward = Veriopt_rl.Reward

type outcome = {
  output : Ast.func; (* always safe to use *)
  used_model : bool; (* false = fell back to the input *)
  verdict : Alive.verdict;
  completion : string; (* the raw model completion, for inspection *)
}

(** Optimize one function with verified fallback. *)
let optimize ?(mode = Prompt.Generic) ?(max_conflicts = 100_000) (model : Model.t)
    (modul : Ast.modul) (f : Ast.func) : outcome =
  let sample_id = Hashtbl.hash (Printer.func_to_string f) in
  let g = Model.generate model ~mode ~rng:None ~sample_id modul f in
  let vc =
    Reward.verify_completion
      ~cfg:{ Reward.default_config with Reward.max_conflicts }
      modul ~src:f g.Model.completion
  in
  match (vc.Reward.verdict.Alive.category, vc.Reward.parsed) with
  | Alive.Equivalent, Some out ->
    { output = out; used_model = true; verdict = vc.Reward.verdict; completion = g.Model.completion }
  | _ ->
    { output = f; used_model = false; verdict = vc.Reward.verdict; completion = g.Model.completion }
