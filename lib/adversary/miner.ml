(** Pain-guided adversarial miner.

    Seeds come from the synthetic pipeline (Cgen at both profiles, lowered
    and instcombined) and the serve workload generators; mutants come from
    {!Mutate}; each candidate is probed through {!Engine.verify_pain}
    under a tight deadline and scored for {e pain} — inconclusive
    verdicts, deadline fraction, solver conflicts and worker kills.
    High-pain candidates are greedily minimized under a concrete oracle
    guard (a reduction that changes the oracle's verdict class or flips a
    conclusive engine verdict is rejected), then committed to the
    crash-safe {!Corpus}. *)

module Engine = Veriopt_alive.Engine
module Alive = Veriopt_alive.Alive
module Workload = Veriopt_serve.Workload
module Serve = Veriopt_serve.Serve
module Traffic = Veriopt_serve.Traffic
module Cgen = Veriopt_data.Cgen
module Lower = Veriopt_data.Lower
module Pass_manager = Veriopt_passes.Pass_manager
module Exec_oracle = Veriopt_eval.Exec_oracle
module Fault = Veriopt_fault.Fault
open Veriopt_ir
open Ast

(* Set VERIOPT_ADV_TRACE=1 for per-iteration progress on stderr. *)
let trace =
  match Sys.getenv_opt "VERIOPT_ADV_TRACE" with Some ("" | "0") | None -> false | Some _ -> true

type config = {
  mc_seed : int;
  mc_budget_s : float;  (* wall budget for one mine run *)
  mc_max_cases : int;
  mc_probe_budget_s : float;  (* verify_pain deadline per probe *)
  mc_probe_unroll : int;
  mc_probe_conflicts : int;
  mc_pain_threshold : float;
  mc_oracle_samples : int;
  mc_minimize_probes : int;  (* probe cap per minimization *)
}

let default_config =
  {
    mc_seed = 1;
    mc_budget_s = 20.;
    mc_max_cases = 40;
    mc_probe_budget_s = 0.04;
    mc_probe_unroll = 6;
    mc_probe_conflicts = 2000;
    mc_pain_threshold = 0.5;
    mc_oracle_samples = 12;
    mc_minimize_probes = 12;
  }

type result = {
  r_probes : int;
  r_candidates : int;
  r_invalid : int;
  r_duplicates : int;
  r_mined : int;
  r_stalls : int;
  r_minimize_accepted : int;
  r_minimize_flip_rejects : int;
  r_committed_flips : int;  (* audited against the pre-minimization verdict; 0 by construction *)
  r_families : (string * int) list;
  r_wall_s : float;
}

let category_name = function
  | Alive.Equivalent -> "equivalent"
  | Alive.Semantic_error -> "semantic_error"
  | Alive.Syntax_error -> "syntax_error"
  | Alive.Inconclusive -> "inconclusive"

(* ------------------------------------------------------------------ *)
(* Pain scoring *)

let pain_score cfg (p : Engine.pain) =
  let inconclusive =
    match p.Engine.p_verdict.Alive.category with Alive.Inconclusive -> 1.0 | _ -> 0.
  in
  inconclusive
  +. (0.75 *. Float.min 1.0 p.Engine.p_deadline_frac)
  +. 0.5
     *. Float.min 1.0
          (float_of_int p.Engine.p_conflicts /. float_of_int (max 1 cfg.mc_probe_conflicts))
  +. float_of_int (p.Engine.p_worker_kills + p.Engine.p_worker_crashes)

let probe cfg engine (p : Mutate.pair) =
  Engine.verify_pain ~unroll:cfg.mc_probe_unroll ~max_conflicts:cfg.mc_probe_conflicts
    ~budget_s:cfg.mc_probe_budget_s engine p.Mutate.a_m ~src:p.Mutate.a_src ~tgt:p.Mutate.a_tgt

let key_of cfg (p : Mutate.pair) =
  Digest.to_hex
    (Digest.string
       (Engine.store_key ~unroll:cfg.mc_probe_unroll ~max_conflicts:cfg.mc_probe_conflicts
          p.Mutate.a_m ~src:p.Mutate.a_src ~tgt:p.Mutate.a_tgt))

(* ------------------------------------------------------------------ *)
(* Concrete-oracle guard *)

type oclass = Oc_eq | Oc_diff | Oc_unsupported

(* The guard's concrete runs are fuel-capped well below the default: loop
   mutants (loopbound, widen) routinely run millions of steps, and the
   guard compares the class of the original against the class of each
   reduction at the SAME fuel, so a tight budget stays self-consistent
   while keeping a minimization probe in the low milliseconds. *)
let oracle_fuel = 20_000

let oracle_class ~samples (p : Mutate.pair) =
  match
    Exec_oracle.equivalent ~samples ~fuel:oracle_fuel p.Mutate.a_m ~src:p.Mutate.a_src
      ~tgt:p.Mutate.a_tgt
  with
  | Exec_oracle.Io_equivalent _ -> Oc_eq
  | Exec_oracle.Io_different _ -> Oc_diff
  | Exec_oracle.Io_unsupported _ -> Oc_unsupported
  | exception _ -> Oc_unsupported

let conclusive (v : Alive.verdict) =
  match v.Alive.category with
  | Alive.Equivalent | Alive.Semantic_error -> true
  | Alive.Syntax_error | Alive.Inconclusive -> false

let verdict_flip (v0 : Alive.verdict) (v1 : Alive.verdict) =
  conclusive v0 && conclusive v1 && v0.Alive.category <> v1.Alive.category

(* ------------------------------------------------------------------ *)
(* Delta-debugging reductions: drop a dead definition, drop a store,
   collapse a conditional branch (fixing the dropped edge's phis). *)

let is_dead_def uses ni =
  match (ni.name, ni.instr) with
  | Some v, (Binop _ | Icmp _ | Select _ | Cast _ | Gep _ | Phi _ | Freeze _ | Load _ | Alloca _)
    -> Option.value ~default:0 (Hashtbl.find_opt uses v) = 0
  | _ -> false

let remove_dead (f : func) : func list =
  let uses = Builder.use_counts f in
  List.concat_map
    (fun b ->
      List.concat
        (List.mapi
           (fun i ni ->
             if is_dead_def uses ni then [ Builder.remove_instr_at f ~block:b.label ~index:i ]
             else [])
           b.instrs))
    f.blocks

(* Aggregate variants: all dead defs (or all stores) dropped in one shot.
   Tried first, they collapse what would otherwise be a long chain of
   one-instruction accepts — each a probe plus an oracle battery — into a
   single round; the per-site reductions then mop up the remainder. *)
let remove_dead_all (f : func) : func list =
  let uses = Builder.use_counts f in
  let dropped = ref 0 in
  let f' =
    Builder.map_blocks f (fun b ->
        {
          b with
          instrs =
            List.filter
              (fun ni ->
                if is_dead_def uses ni then begin
                  incr dropped;
                  false
                end
                else true)
              b.instrs;
        })
  in
  if !dropped > 1 then [ f' ] else []

let remove_stores_all (f : func) : func list =
  let dropped = ref 0 in
  let f' =
    Builder.map_blocks f (fun b ->
        {
          b with
          instrs =
            List.filter
              (fun ni ->
                match ni.instr with
                | Store _ ->
                  incr dropped;
                  false
                | _ -> true)
              b.instrs;
        })
  in
  if !dropped > 1 then [ f' ] else []

let remove_stores (f : func) : func list =
  List.concat_map
    (fun b ->
      List.concat
        (List.mapi
           (fun i ni ->
             match ni.instr with
             | Store _ -> [ Builder.remove_instr_at f ~block:b.label ~index:i ]
             | _ -> [])
           b.instrs))
    f.blocks

(* Collapse [CondBr] to one arm; incoming phi entries of the dropped arm
   are filtered out, and the reduction is skipped when a phi would end up
   with no incomings. *)
let collapse_branches (f : func) : func list =
  let drop_pred (f : func) ~(from_ : label) ~(in_ : label) : func option =
    let ok = ref true in
    let f' =
      Builder.map_blocks f (fun b ->
          if b.label = in_ then
            {
              b with
              instrs =
                List.map
                  (fun ni ->
                    match ni.instr with
                    | Phi ph ->
                      let incoming = List.filter (fun (_, l) -> l <> from_) ph.incoming in
                      if incoming = [] then ok := false;
                      { ni with instr = Phi { ph with incoming } }
                    | _ -> ni)
                  b.instrs;
            }
          else b)
    in
    if !ok then Some f' else None
  in
  List.concat_map
    (fun b ->
      match b.term with
      | CondBr { if_true; if_false; _ } when if_true = if_false ->
        [ Builder.map_blocks f (fun c -> if c.label = b.label then { c with term = Br if_true } else c) ]
      | CondBr { if_true; if_false; _ } ->
        List.filter_map
          (fun (keep, drop) ->
            let f =
              Builder.map_blocks f (fun c ->
                  if c.label = b.label then { c with term = Br keep } else c)
            in
            drop_pred f ~from_:b.label ~in_:drop)
          [ (if_true, if_false); (if_false, if_true) ]
      | _ -> [])
    f.blocks

(* Fixpoint strip: all dead defs and all stores removed repeatedly on one
   function.  Store removal makes address chains dead, which makes their
   loads' sources dead in turn — iterating to a fixpoint yields the
   dead-code-free skeleton as a single candidate, so the whole chain costs
   one probe and one oracle battery instead of one per instruction.  The
   guard still decides: a strip that changes the oracle class or flips a
   conclusive verdict is rejected like any other reduction. *)
let strip_func (f : func) : func =
  let pass f =
    let uses = Builder.use_counts f in
    let changed = ref false in
    let f' =
      Builder.map_blocks f (fun b ->
          {
            b with
            instrs =
              List.filter
                (fun ni ->
                  let drop =
                    is_dead_def uses ni
                    || match ni.instr with Store _ -> true | _ -> false
                  in
                  if drop then changed := true;
                  not drop)
                b.instrs;
          })
    in
    (f', !changed)
  in
  let rec fix f =
    let f', changed = pass f in
    if changed then fix f' else f
  in
  fix f

let reduce_candidates (p : Mutate.pair) : Mutate.pair list =
  let on_tgt f' = { p with Mutate.a_tgt = f' } in
  let on_src f' =
    (* the module carries the src function; keep the two in sync *)
    { p with Mutate.a_src = f'; a_m = Mutate.set_func p.Mutate.a_m f' }
  in
  (* the composed both-sides strip goes first: accepting it early keeps
     every later probe's encode small *)
  (let src' = strip_func p.Mutate.a_src and tgt' = strip_func p.Mutate.a_tgt in
   if src' <> p.Mutate.a_src || tgt' <> p.Mutate.a_tgt then
     [ { Mutate.a_m = Mutate.set_func p.Mutate.a_m src'; a_src = src'; a_tgt = tgt' } ]
   else [])
  @ List.map on_tgt
    (remove_dead_all p.Mutate.a_tgt @ remove_stores_all p.Mutate.a_tgt
    @ remove_dead p.Mutate.a_tgt @ remove_stores p.Mutate.a_tgt
    @ collapse_branches p.Mutate.a_tgt)
  @ List.map on_src
      (remove_dead_all p.Mutate.a_src @ remove_stores_all p.Mutate.a_src
      @ remove_dead p.Mutate.a_src @ remove_stores p.Mutate.a_src
      @ collapse_branches p.Mutate.a_src)

type min_state = { mutable accepted : int; mutable flip_rejects : int }

(* Greedy first-accept minimization: a reduction survives only if it still
   validates, keeps the concrete oracle's verdict class, does not flip a
   conclusive engine verdict, and retains at least half the original pain. *)
let minimize ~cfg ~engine ~deadline (st : min_state) (p0 : Mutate.pair) (pain0 : float)
    (v0 : Alive.verdict) =
  let oc0 = oracle_class ~samples:cfg.mc_oracle_samples p0 in
  let probes = ref 0 in
  let exhausted () = !probes >= cfg.mc_minimize_probes || Unix.gettimeofday () > deadline in
  let rec go p pain v =
    if exhausted () then (p, pain, v)
    else begin
      let rec try_cands = function
        | [] -> None
        | c :: rest ->
          if exhausted () then None
          else if not (Mutate.valid c) then try_cands rest
          else begin
            incr probes;
            let pr = probe cfg engine c in
            let score = pain_score cfg pr in
            if verdict_flip v0 pr.Engine.p_verdict then begin
              st.flip_rejects <- st.flip_rejects + 1;
              try_cands rest
            end
            else if score >= 0.5 *. pain0 && not pr.Engine.p_cached then
              (* oracle battery only for would-be accepts: it is the
                 expensive half of the guard *)
              if oracle_class ~samples:cfg.mc_oracle_samples c <> oc0 then begin
                st.flip_rejects <- st.flip_rejects + 1;
                try_cands rest
              end
              else begin
                st.accepted <- st.accepted + 1;
                Some (c, score, pr.Engine.p_verdict)
              end
            else try_cands rest
          end
      in
      match try_cands (reduce_candidates p) with
      | Some (c, s, v') -> go c s v'
      | None -> (p, pain, v)
    end
  in
  go p0 pain0 v0

(* ------------------------------------------------------------------ *)
(* Seed pool *)

let seed_pair cfg i : (string * Mutate.pair) option =
  match i mod 4 with
  | 0 | 1 -> (
    let profile = if i mod 4 = 0 then Cgen.adversarial_profile else Cgen.default_profile in
    let cseed = Hashtbl.hash (cfg.mc_seed, i, "veriopt-adv-cgen") land 0x3FFFFFFF in
    try
      let prog = Cgen.generate ~profile ~seed:cseed ~name:"f" () in
      let m, src = Lower.lower prog in
      let tgt, _trace = Pass_manager.instcombine m src in
      Some ((if i mod 4 = 0 then "cgen-adv" else "cgen"), { Mutate.a_m = m; a_src = src; a_tgt = tgt })
    with _ -> None)
  | 2 ->
    let q = Workload.make ~seed:cfg.mc_seed ~index:i in
    Some
      ( "workload:" ^ q.Workload.w_label,
        { Mutate.a_m = q.Workload.w_m; a_src = q.Workload.w_src; a_tgt = q.Workload.w_tgt } )
  | _ ->
    (* the solver-bound shape: Expr's normal form decides the workload's
       commuted-mul pairs without search, so they no longer seed pain *)
    let w = 6 + (Hashtbl.hash (cfg.mc_seed, i, "veriopt-adv-assoc") mod 4) in
    let m, src, tgt = Workload.assoc_pair w in
    Some ("assoc", { Mutate.a_m = m; a_src = src; a_tgt = tgt })

(* ------------------------------------------------------------------ *)
(* The mine loop *)

let mine ?engine ?(cfg = default_config) (corpus : Corpus.t) : result =
  let engine =
    match engine with
    | Some e -> e
    | None ->
      Engine.create ~capacity:512 ~tier1_samples:cfg.mc_oracle_samples ~tier1_fuel:oracle_fuel ()
  in
  let rng = Random.State.make [| cfg.mc_seed; 0xADF5 |] in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. cfg.mc_budget_s in
  let probes = ref 0
  and candidates = ref 0
  and invalid = ref 0
  and duplicates = ref 0
  and mined = ref 0
  and stalls = ref 0
  and committed_flips = ref 0 in
  let mstate = { accepted = 0; flip_rejects = 0 } in
  let families : (string, int) Hashtbl.t = Hashtbl.create 8 in
  (* pain-guided population: high scorers become mutation parents *)
  let population = ref [] in
  let push_pop score label p =
    population :=
      List.filteri
        (fun i _ -> i < 12)
        (List.sort (fun (a, _, _) (b, _, _) -> compare b a) ((score, label, p) :: !population))
  in
  let i = ref 0 in
  while Unix.gettimeofday () < deadline && !mined < cfg.mc_max_cases do
    (* fault site: a stalled miner loop must degrade to a counted, bounded
       pause, never a hang or a torn commit *)
    if Fault.fire Fault.Miner_stall then begin
      incr stalls;
      let d = Fault.param Fault.Miner_stall in
      if d > 0. then Unix.sleepf (Float.min 0.05 d)
    end;
    let parent =
      if !population <> [] && Random.State.float rng 1.0 < 0.6 then
        let _, label, p = List.nth !population (Random.State.int rng (List.length !population)) in
        Some (label, p)
      else seed_pair cfg !i
    in
    incr i;
    match parent with
    | None -> ()
    | Some (label, parent) -> (
      incr candidates;
      match Mutate.apply rng parent with
      | None -> incr invalid
      | Some (family, cand) ->
        if trace then
          Printf.eprintf "[adv] it=%d %s/%s probe...\n%!" !i label family;
        if Corpus.mem_key corpus (key_of cfg cand) then incr duplicates
        else begin
          incr probes;
          let pr = probe cfg engine cand in
          let score = pain_score cfg pr in
          if score > 0.15 && not pr.Engine.p_cached then push_pop score label cand;
          if score >= cfg.mc_pain_threshold && not pr.Engine.p_cached then begin
            if trace then
              Printf.eprintf "[adv] it=%d pain %.2f (%s) minimize...\n%!" !i score
                (category_name pr.Engine.p_verdict.Alive.category);
            let mp, mscore, mverdict =
              minimize ~cfg ~engine ~deadline mstate cand score pr.Engine.p_verdict
            in
            if verdict_flip pr.Engine.p_verdict mverdict then incr committed_flips;
            let mkey = key_of cfg mp in
            if Corpus.mem_key corpus mkey then incr duplicates
            else begin
              let case =
                {
                  Corpus.c_id = 0;
                  c_family = family;
                  c_label = label;
                  c_key = mkey;
                  c_verdict = category_name mverdict.Alive.category;
                  c_pain = mscore;
                  c_wall_us = int_of_float (pr.Engine.p_wall_s *. 1e6);
                  c_conflicts = pr.Engine.p_conflicts;
                  c_unroll = cfg.mc_probe_unroll;
                  c_max_conflicts = cfg.mc_probe_conflicts;
                  c_semantics = Engine.semantics_digest ();
                  c_m_text = Printer.module_to_string mp.Mutate.a_m;
                  c_src_text = Printer.func_to_string mp.Mutate.a_src;
                  c_tgt_text = Printer.func_to_string mp.Mutate.a_tgt;
                }
              in
              ignore (Corpus.add corpus case);
              incr mined;
              Hashtbl.replace families family
                (1 + Option.value ~default:0 (Hashtbl.find_opt families family))
            end
          end
        end)
  done;
  {
    r_probes = !probes;
    r_candidates = !candidates;
    r_invalid = !invalid;
    r_duplicates = !duplicates;
    r_mined = !mined;
    r_stalls = !stalls;
    r_minimize_accepted = mstate.accepted;
    r_minimize_flip_rejects = mstate.flip_rejects;
    r_committed_flips = !committed_flips;
    r_families =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) families [] |> List.sort compare;
    r_wall_s = Unix.gettimeofday () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Consumers *)

type replayed = { rp_id : int; rp_key : string; rp_family : string; rp_category : string }

let replay ?engine (corpus : Corpus.t) : replayed list =
  let engine = match engine with Some e -> e | None -> Engine.create () in
  List.filter_map
    (fun (c : Corpus.case) ->
      match Corpus.decode_pair c with
      | None -> None
      | Some p ->
        (* conflict budgets only, no wall deadline: the verdict is a pure
           function of the pair and the budget, so two replays agree *)
        let v =
          Engine.verify_funcs
            ?unroll:(if c.Corpus.c_unroll > 0 then Some c.Corpus.c_unroll else None)
            ?max_conflicts:(if c.Corpus.c_max_conflicts > 0 then Some c.Corpus.c_max_conflicts else None)
            engine p.Mutate.a_m ~src:p.Mutate.a_src ~tgt:p.Mutate.a_tgt
        in
        Some
          {
            rp_id = c.Corpus.c_id;
            rp_key = c.Corpus.c_key;
            rp_family = c.Corpus.c_family;
            rp_category = category_name v.Alive.category;
          })
    (Corpus.cases corpus)

let stress ?(seed = 11) ?(rate = 100.) ?(duration_s = 2.) ?(mix_pct = 100) ?config ~engine
    (corpus : Corpus.t) : Traffic.summary option =
  let queries = Corpus.queries corpus in
  if Array.length queries = 0 then None
  else begin
    let config =
      match config with
      | Some c -> c
      | None -> { Serve.default_config with Serve.workers = 2; queue_capacity = 64 }
    in
    let sv = Serve.create ~config ~engine () in
    let source =
      if mix_pct >= 100 then Workload.Mined queries
      else Workload.Mixed (queries, max 0 mix_pct)
    in
    let cfg = { Traffic.default_cfg with Traffic.rate; duration_s; seed; source } in
    let summary = Traffic.run sv cfg in
    ignore (Serve.drain ~timeout:5. sv);
    Some summary
  end

let pp_result ppf (r : result) =
  Fmt.pf ppf
    "mined %d cases in %.1fs: %d probes, %d candidates (%d invalid, %d duplicate), %d stalls@."
    r.r_mined r.r_wall_s r.r_probes r.r_candidates r.r_invalid r.r_duplicates r.r_stalls;
  Fmt.pf ppf "  minimize: %d reductions accepted, %d flip-rejects, %d committed flips@."
    r.r_minimize_accepted r.r_minimize_flip_rejects r.r_committed_flips;
  List.iter (fun (f, n) -> Fmt.pf ppf "  family %-10s %d@." f n) r.r_families
