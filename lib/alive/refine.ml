(** The refinement check: does the target function refine the source?

    Builds the mismatch formula

    {v ~src.ub /\ ~src.exhausted /\ ~tgt.exhausted /\
      (tgt.ub \/ return-mismatch \/ call-trace-mismatch \/ memory-mismatch) v}

    and asks the solver for a model.  [Unsat] proves refinement (within the
    unrolling bound); a model is a candidate counterexample.  Pure calls are
    related by Ackermann constraints; impure calls must match positionally
    (same callee sequence), otherwise the query is rejected as unsupported
    rather than risking an unsound "not equivalent". *)

module Expr = Veriopt_smt.Expr
module Solver = Veriopt_smt.Solver
open Encode

type outcome =
  | Refines
  | Counterexample of Solver.model
  | Unknown

let args_equal (a : sval list) (b : sval list) : Expr.t =
  if List.length a <> List.length b then raise (Unsupported "call arity mismatch")
  else
    List.fold_left2
      (fun acc x y ->
        match (x, y) with
        | SInt xi, SInt yi when Expr.width xi.term = Expr.width yi.term ->
          Expr.and_ acc (Expr.eq xi.term yi.term)
        | _ -> raise (Unsupported "non-integer or mismatched call arguments"))
      Expr.tt a b

(* Ackermann constraints: any two pure calls of the same callee with equal
   arguments return equal results — within a side and across sides. *)
let ackermann_constraints (all_calls : call_event list) : Expr.t list =
  let pure = List.filter (fun c -> c.pure) all_calls in
  let rec pairs = function
    | [] -> []
    | c :: rest -> List.map (fun c' -> (c, c')) rest @ pairs rest
  in
  List.filter_map
    (fun (c1, c2) ->
      if c1.callee <> c2.callee || List.length c1.args <> List.length c2.args then None
      else
        match (c1.result, c2.result) with
        | Some (SInt r1), Some (SInt r2) when Expr.width r1.term = Expr.width r2.term ->
          Some (Expr.implies (args_equal c1.args c2.args) (Expr.eq r1.term r2.term))
        | _ -> None)
    (pairs pure)

(* Impure calls are observable events: both sides must run the same callee
   sequence with the same arguments.  We relate sites positionally, which is
   exact when both sides have the same number of impure sites; a site-count
   mismatch is reported as unsupported (inconclusive), never as a
   counterexample. *)
let impure_trace (src : summary) (tgt : summary) : Expr.t (* mismatch *) * Expr.t list (* constraints *)
    =
  let impure s = List.filter (fun c -> not c.pure) s.calls in
  let sc = impure src and tc = impure tgt in
  if List.length sc <> List.length tc then
    raise (Unsupported "different number of observable call sites")
  else begin
    let mismatches, constraints =
      List.fold_left2
        (fun (mis, cons) (c1 : call_event) (c2 : call_event) ->
          if c1.callee <> c2.callee then raise (Unsupported "observable callee mismatch");
          let both = Expr.and_ c1.call_guard c2.call_guard in
          let eq_args = args_equal c1.args c2.args in
          let mis =
            Expr.or_ mis
              (Expr.or_
                 (Expr.xor_ c1.call_guard c2.call_guard)
                 (Expr.and_ both (Expr.not_ eq_args)))
          in
          let cons =
            match (c1.result, c2.result) with
            | Some (SInt r1), Some (SInt r2) when Expr.width r1.term = Expr.width r2.term ->
              Expr.implies (Expr.and_ both eq_args) (Expr.eq r1.term r2.term) :: cons
            | _ -> cons
          in
          (mis, cons))
        (Expr.ff, []) sc tc
    in
    (mismatches, constraints)
  end

(* Observable memory: every param/global byte finally written by either side
   must agree (modulo poison refinement).  A byte missing on one side holds
   its initial contents, which are shared by construction. *)
let memory_mismatch (src : summary) (tgt : summary) : Expr.t =
  let keys =
    List.sort_uniq compare (List.map fst src.final_mem @ List.map fst tgt.final_mem)
  in
  List.fold_left
    (fun acc key ->
      let initial (base, offset) : cell =
        match base with
        | PParam i -> { byte = Expr.bv_var (Fmt.str "mem%d@%d" i offset) 8; bpoison = Expr.ff }
        | PGlobal g -> { byte = Expr.bv_var (Fmt.str "glob!%s@%d" g offset) 8; bpoison = Expr.ff }
        | PAlloca _ | PNull -> raise (Unsupported "non-observable cell in final memory")
      in
      let value s = match List.assoc_opt key s.final_mem with Some c -> c | None -> initial key in
      let sv = value src and tv = value tgt in
      Expr.or_ acc
        (Expr.and_ (Expr.not_ sv.bpoison)
           (Expr.or_ tv.bpoison (Expr.not_ (Expr.eq sv.byte tv.byte)))))
    Expr.ff keys

let return_mismatch (src : summary) (tgt : summary) : Expr.t =
  let domain = Expr.xor_ src.returns tgt.returns in
  match (src.ret_value, tgt.ret_value) with
  | None, None -> domain
  | Some (sv, sp), Some (tv, tp) ->
    if Expr.width sv <> Expr.width tv then raise (Unsupported "return width mismatch")
    else
      Expr.or_ domain
        (Expr.conj
           [
             src.returns;
             tgt.returns;
             Expr.not_ sp;
             Expr.or_ tp (Expr.not_ (Expr.eq sv tv));
           ])
  | _ -> raise (Unsupported "return shape mismatch")

(* The full refinement query for one pair of summaries: the mismatch formula
   plus its side constraints (impure-trace result equalities and Ackermann
   constraints).  Raises [Unsupported] before anything touches a solver. *)
let query (src : summary) (tgt : summary) : Expr.t list =
  let trace_mis, trace_cons = impure_trace src tgt in
  let ack = ackermann_constraints (src.calls @ tgt.calls) in
  let mismatch =
    Expr.conj
      [
        Expr.not_ src.ub;
        Expr.not_ src.exhausted;
        Expr.not_ tgt.exhausted;
        Expr.disj [ tgt.ub; return_mismatch src tgt; trace_mis; memory_mismatch src tgt ];
      ]
  in
  mismatch :: (trace_cons @ ack)

let outcome_of = function
  | Solver.Unsat -> Refines
  | Solver.Sat model -> Counterexample model
  | Solver.Unknown -> Unknown

(** Check whether [tgt] refines [src].  [sat] diversifies the underlying
    SAT solver (portfolio members). *)
let check ?(max_conflicts = 200_000) ?deadline ?reduce ?sat (src : summary) (tgt : summary) :
    outcome =
  outcome_of (Solver.check ~max_conflicts ?deadline ?reduce ?config:sat (query src tgt))

(* ------------------------------------------------------------------ *)
(* Cube-and-conquer entry points.

   The parent probes the refinement query on a small budget; if that is
   inconclusive, its VSIDS order names the split variables and each cube is
   solved by [check_cube] in a separate process.  Raw SAT literals travel
   between planner and workers, which is sound because both sides blast the
   {e same} [query src tgt] assertion list in a fresh context, and variable
   numbering depends only on that list's structure: not on solver config,
   and not on what either process interned before — every commutative
   constructor orders its operands by the structural {!Expr.compare}, never
   by allocation id. *)

let probe ?(max_conflicts = 500) ?deadline ?reduce ?sat (src : summary) (tgt : summary) :
    Solver.probe * outcome =
  let p, o = Solver.probe_check ~max_conflicts ?deadline ?reduce ?config:sat (query src tgt) in
  (p, outcome_of o)

let probe_top_vars = Solver.probe_top_vars

let probe_join ?max_conflicts ?deadline p ~units =
  Solver.probe_add_units p units;
  outcome_of (Solver.probe_resolve ?max_conflicts ?deadline p)

let check_cube ?(max_conflicts = 200_000) ?deadline ?reduce ?sat ~cube (src : summary)
    (tgt : summary) : outcome * int list =
  let o, units =
    Solver.check_cube ~max_conflicts ?deadline ?reduce ?config:sat ~cube (query src tgt)
  in
  (outcome_of o, units)

(* ------------------------------------------------------------------ *)
(* Incremental sessions for iterative-deepening unroll.

   One [Solver.Session] is shared across the whole depth schedule.  The
   depth-d query is asserted as a single guarded implication

     g_d => (mismatch_d /\ trace_cons_d /\ ack_d)

   where [g_d] is a fresh boolean guard, and checked under the assumption
   [g_d].  [Unsat] then means "no mismatch within bound d"; deepening
   retracts the whole depth-d query by permanently asserting [~g_d] (every
   depth-d clause is satisfied once its guard is false) and asserts the
   depth-(d+1) implication.  Because the session's clause set only ever
   grows, learned clauses, variable activities and saved phases carry over
   — that, plus the bit-blaster reusing the circuits of every block shared
   between consecutive unrollings (see [Encode.fresh_bv]), is where the
   deepening loop wins over fresh solves. *)

type session = { s : Solver.Session.t; mutable asserted_depths : int list }

let session_create ?sat () = { s = Solver.Session.create ?config:sat (); asserted_depths = [] }
let session_release t = Solver.Session.release t.s
let session_conflicts t = Solver.Session.conflicts t.s

let guard_var depth = Expr.bool_var (Fmt.str "!unroll!guard!%d" depth)

(** One step of the deepening schedule: assert the depth-[depth] query
    (guarded) and check it under its guard assumption. *)
let check_incremental ?(max_conflicts = 200_000) ?deadline ?reduce (t : session)
    ~(depth : int) (src : summary) (tgt : summary) : outcome =
  let q = query src tgt in
  let g = guard_var depth in
  Solver.Session.assert_ t.s (Expr.implies g (Expr.conj q));
  t.asserted_depths <- depth :: t.asserted_depths;
  match Solver.Session.check ~max_conflicts ?deadline ?reduce ~assumptions:[ g ] t.s with
  | Solver.Unsat -> Refines
  | Solver.Sat model -> Counterexample model
  | Solver.Unknown -> Unknown

(** Retract the depth-[depth] query before deepening: [~g_d] permanently
    satisfies every clause of the depth-[depth] implication. *)
let retract (t : session) ~(depth : int) =
  Solver.Session.assert_ t.s (Expr.not_ (guard_var depth))

(* Bump when the refinement obligation itself changes meaning (what
   counts as refines/counterexample/inconclusive): the disk-backed verdict
   store keys entry freshness on this. *)
let semantics_version = 1
