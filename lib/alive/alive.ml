(** Public verdict API of the translation validator.

    Verdicts use the paper's four categories (Table I/II): syntactic error,
    semantic error, inconclusive, semantically equivalent.  A solver
    counterexample is re-executed in the concrete interpreter before we
    commit to "semantic error": if the concrete run does not confirm the
    mismatch (an artifact of the encoding's approximations), the verdict
    degrades to "inconclusive".  This keeps NotEquivalent verdicts — and the
    diagnostics fed back into training — trustworthy. *)

open Veriopt_ir
module Interp = Veriopt_eval.Interp
module Solver = Veriopt_smt.Solver

type category = Equivalent | Semantic_error | Syntax_error | Inconclusive

type verdict = {
  category : category;
  message : string;
  example : (string * int64) list; (* counterexample inputs, when any *)
  bounded : bool; (* true when loops were unrolled: bounded validation *)
  copy_of_input : bool; (* target is alpha-equal to source *)
}

let verdict ?(example = []) ?(bounded = false) ?(copy = false) category message =
  { category; message; example; bounded; copy_of_input = copy }

let signature_matches (a : Ast.func) (b : Ast.func) =
  Types.equal a.ret_ty b.ret_ty
  && List.length a.params = List.length b.params
  && List.for_all2 (fun (t1, _) (t2, _) -> Types.equal t1 t2) a.params b.params

(* ------------------------------------------------------------------ *)
(* Concrete validation of solver counterexamples *)

let interp_args_of_model (model : Solver.model) (f : Ast.func) : Interp.value list option =
  let ok = ref true in
  let args =
    List.mapi
      (fun i (ty, _) ->
        match ty with
        | Types.Int w ->
          let name = Fmt.str "arg%d" i in
          let poisoned = Option.value ~default:false (model.Solver.bool_value (name ^ "!p")) in
          if poisoned then Interp.VPoison
          else
            let v = match model.Solver.bv_value name with Some (_, v) -> v | None -> 0L in
            Interp.vint w v
        | _ ->
          ok := false;
          Interp.VPoison)
      f.params
  in
  if !ok then Some args else None

(* Rewrite global initializers to the model's initial-memory values so the
   interpreter executes the same world the solver chose. *)
let module_with_model_globals (model : Solver.model) (m : Ast.modul) : Ast.modul =
  let globals =
    List.map
      (fun (g : Ast.global) ->
        match g.gty with
        | Types.Int w ->
          (* initial global memory is encoded as one variable per byte *)
          let bytes = (w + 7) / 8 in
          let any = ref false in
          let v = ref 0L in
          for i = bytes - 1 downto 0 do
            let b =
              match model.Solver.bv_value (Fmt.str "glob!%s@%d" g.gname i) with
              | Some (_, b) ->
                any := true;
                b
              | None -> Int64.logand (Int64.shift_right_logical g.init (8 * i)) 0xffL
            in
            v := Int64.logor (Int64.shift_left !v 8) b
          done;
          if !any then { g with init = !v } else g
        | _ -> g)
      m.globals
  in
  { m with globals }

type concrete_outcome = Confirms | Rejects | Cannot_tell

(* Does the concrete run confirm that tgt fails to refine src on this input? *)
let concrete_check (model : Solver.model) (m : Ast.modul) (src : Ast.func) (tgt : Ast.func) :
    concrete_outcome =
  match interp_args_of_model model src with
  | None -> Cannot_tell
  | Some args -> (
    let m = module_with_model_globals model m in
    let run f =
      match Interp.run ~fuel:200_000 m f args with
      | outcome -> Ok outcome
      | exception Interp.Undefined_behavior msg -> Error (`Ub msg)
      | exception Interp.Out_of_fuel -> Error `Fuel
    in
    match (run src, run tgt) with
    | Error (`Ub _), _ -> Rejects (* source UB: any target behavior refines *)
    | Error `Fuel, _ | _, Error `Fuel -> Cannot_tell
    | Ok _, Error (`Ub _) -> Confirms
    | Ok s, Ok t ->
      let values_refine (sv : Interp.value option) (tv : Interp.value option) =
        match (sv, tv) with
        | None, None -> true
        | Some Interp.VPoison, Some _ -> true
        | Some sv, Some tv -> sv = tv
        | _ -> false
      in
      let globals_refine =
        List.for_all2
          (fun (_, sv) (_, tv) -> values_refine (Some sv) (Some tv))
          s.Interp.globals_final t.Interp.globals_final
      in
      if
        values_refine s.Interp.ret t.Interp.ret
        && s.Interp.call_trace = t.Interp.call_trace
        && globals_refine
      then Rejects
      else Confirms)

(* ------------------------------------------------------------------ *)

(* Doubling depth schedule, always ending exactly at [bound]:
   4 -> [1; 2; 4], 3 -> [1; 2; 3], 6 -> [1; 2; 4; 6], 1 -> [1]. *)
let unroll_schedule bound =
  let bound = max 1 bound in
  let rec go d acc = if d >= bound then List.rev (bound :: acc) else go (2 * d) (d :: acc) in
  go 1 []

let counterexample_verdict ~bounded ~copy (model : Solver.model) m src tgt s_sum t_sum :
    verdict =
  let message = Diagnostics.render_counterexample model s_sum t_sum in
  let example = Diagnostics.example_inputs model s_sum in
  match concrete_check model m src tgt with
  | Confirms | Cannot_tell -> verdict ~example ~bounded ~copy Semantic_error message
  | Rejects ->
    (* encoding artifact: be honest and refuse to conclude *)
    verdict ~bounded ~copy Inconclusive
      (Diagnostics.inconclusive_message "solver counterexample failed concrete validation")

let signature_verdict =
  verdict Syntax_error
    (Diagnostics.syntax_error_message "function signature does not match the source")

(* Both sides at one unroll bound, source first. *)
let encode_pair ~unroll m ~src ~tgt =
  let s_sum = Encode.encode ~unroll_bound:unroll ~side:"src" m src in
  let t_sum = Encode.encode ~unroll_bound:unroll ~side:"tgt" m tgt in
  (s_sum, t_sum)

(* Single-shot: encode both sides at the full bound, one fresh solve. *)
let solve_single_shot ~unroll ~max_conflicts ?deadline ~bounded ~copy m ~src ~tgt =
  match encode_pair ~unroll m ~src ~tgt with
  | exception Encode.Unsupported reason ->
    verdict ~bounded ~copy Inconclusive (Diagnostics.inconclusive_message reason)
  | s_sum, t_sum -> (
    match Refine.check ~max_conflicts ?deadline s_sum t_sum with
    | exception Encode.Unsupported reason ->
      verdict ~bounded ~copy Inconclusive (Diagnostics.inconclusive_message reason)
    | Refine.Refines -> verdict ~bounded ~copy Equivalent (Diagnostics.equivalent_message ~bounded)
    | Refine.Unknown ->
      verdict ~bounded ~copy Inconclusive
        (Diagnostics.inconclusive_message "solver resource limit reached")
    | Refine.Counterexample model ->
      counterexample_verdict ~bounded ~copy model m src tgt s_sum t_sum)

(* Iterative deepening over one incremental session.  Verdict policy,
   chosen so the schedule can never flip a single-shot verdict:
   - a counterexample at any depth is a terminating execution that also
     exists at every deeper bound, so it is final (and still concretely
     re-validated before "semantic error");
   - Unsat at a non-final depth proves nothing about deeper bounds: retract
     the depth's guard and deepen — only the final bound's Unsat is
     "equivalent";
   - Unknown (budget or deadline) anywhere ends the schedule as
     inconclusive, exactly like the single-shot path;
   - Unsupported at a non-final depth is skipped (a pair can be
     positionally matchable at the full bound but not at a shallow one);
     the final depth's answer is authoritative.
   The conflict budget is shared by the whole schedule: each check gets
   what the earlier depths left over. *)
let solve_deepening ~unroll ~max_conflicts ?deadline ~bounded ~copy m ~src ~tgt =
  let sess = Refine.session_create () in
  Fun.protect ~finally:(fun () -> Refine.session_release sess) @@ fun () ->
  let rec deepen = function
    | [] -> assert false
    | depth :: rest -> (
      let final = rest = [] in
      let skip_or_fail reason =
        if final then verdict ~bounded ~copy Inconclusive (Diagnostics.inconclusive_message reason)
        else deepen rest
      in
      match encode_pair ~unroll:depth m ~src ~tgt with
      | exception Encode.Unsupported reason -> skip_or_fail reason
      | s_sum, t_sum -> (
        let remaining = max_conflicts - Refine.session_conflicts sess in
        if remaining <= 0 then
          verdict ~bounded ~copy Inconclusive
            (Diagnostics.inconclusive_message "solver resource limit reached")
        else
          match
            Refine.check_incremental ~max_conflicts:remaining ?deadline sess ~depth s_sum t_sum
          with
          | exception Encode.Unsupported reason -> skip_or_fail reason
          | Refine.Refines ->
            if final then
              verdict ~bounded ~copy Equivalent (Diagnostics.equivalent_message ~bounded)
            else begin
              Refine.retract sess ~depth;
              deepen rest
            end
          | Refine.Unknown ->
            verdict ~bounded ~copy Inconclusive
              (Diagnostics.inconclusive_message "solver resource limit reached")
          | Refine.Counterexample model ->
            counterexample_verdict ~bounded ~copy model m src tgt s_sum t_sum))
  in
  deepen (unroll_schedule unroll)

let verify_pair ~deepen ~unroll ~max_conflicts ?deadline (m : Ast.modul) ~(src : Ast.func)
    ~(tgt : Ast.func) : verdict =
  if not (signature_matches src tgt) then signature_verdict
  else
    let copy = Builder.alpha_equal src tgt in
    let bounded = Cfg.has_loop (Cfg.of_func src) || Cfg.has_loop (Cfg.of_func tgt) in
    (* acyclic pairs always solve once: unrolling is the identity on them,
       so a depth schedule would re-solve the same query *)
    if deepen && bounded && unroll > 1 then
      solve_deepening ~unroll ~max_conflicts ?deadline ~bounded ~copy m ~src ~tgt
    else solve_single_shot ~unroll ~max_conflicts ?deadline ~bounded ~copy m ~src ~tgt

(** Verify that [tgt] refines [src] within [m].  Both functions must already
    be well-formed (callers should route model-produced text through
    {!verify_text}). *)
let verify_funcs ?(unroll = 4) ?(max_conflicts = 200_000) ?deadline m ~src ~tgt =
  verify_pair ~deepen:true ~unroll ~max_conflicts ?deadline m ~src ~tgt

let verify_funcs_single_shot ?(unroll = 4) ?(max_conflicts = 200_000) ?deadline m ~src
    ~tgt =
  verify_pair ~deepen:false ~unroll ~max_conflicts ?deadline m ~src ~tgt

(* Tier 0 for model-produced IR text: parse errors and malformed IR map to
   [Syntax_error], as in the paper's Tables I/II. *)
let parse_target (m : Ast.modul) (text : string) : (Ast.func, verdict) result =
  let syntax_error msg = Error (verdict Syntax_error (Diagnostics.syntax_error_message msg)) in
  match Parser.parse_func_result text with
  | Error msg -> syntax_error msg
  | Ok tgt -> (
    match Validator.validate_func ~module_:m tgt with
    | Error errors -> syntax_error (String.concat "\n" errors)
    | Ok () -> Ok tgt)

let verify_text ?unroll ?max_conflicts ?deadline (m : Ast.modul) ~(src : Ast.func)
    ~(tgt_text : string) : verdict =
  match parse_target m tgt_text with
  | Error v -> v
  | Ok tgt -> verify_funcs ?unroll ?max_conflicts ?deadline m ~src ~tgt

(* Bump when the verdict taxonomy or the tier-1 concrete re-validation
   changes meaning: the disk-backed verdict store keys entry freshness on
   this. *)
let semantics_version = 1
