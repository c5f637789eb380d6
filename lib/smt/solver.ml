(** Top-level SMT interface: assert a set of boolean terms, decide
    satisfiability, and extract models (the verifier's counterexamples). *)

type model = {
  bv_value : string -> (int * int64) option; (* width, canonical value *)
  bool_value : string -> bool option;
}

type outcome = Sat of model | Unsat | Unknown

(* ------------------------------------------------------------------ *)
(* Aggregate SAT statistics across [check] calls.  Counters are atomic so
   the Par pool's worker domains can solve concurrently; [reset_stats] lets
   the bench harness attribute solver work to a measurement window. *)

type stats = {
  checks : int;
  sat : int;
  unsat : int;
  unknown : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learned : int;
  deleted : int;
  reductions : int;
  db_peak : int;
  sessions : int;
  session_reuse : int;
  lbd_hist : int array;
}

let s_checks = Atomic.make 0
let s_sat = Atomic.make 0
let s_unsat = Atomic.make 0
let s_unknown = Atomic.make 0
let s_conflicts = Atomic.make 0
let s_decisions = Atomic.make 0
let s_propagations = Atomic.make 0
let s_restarts = Atomic.make 0
let s_learned = Atomic.make 0
let s_deleted = Atomic.make 0
let s_reductions = Atomic.make 0
let s_db_peak = Atomic.make 0
let s_sessions = Atomic.make 0
let s_session_reuse = Atomic.make 0
let s_lbd_hist = Array.init Sat.lbd_buckets (fun _ -> Atomic.make 0)

let stats () =
  {
    checks = Atomic.get s_checks;
    sat = Atomic.get s_sat;
    unsat = Atomic.get s_unsat;
    unknown = Atomic.get s_unknown;
    conflicts = Atomic.get s_conflicts;
    decisions = Atomic.get s_decisions;
    propagations = Atomic.get s_propagations;
    restarts = Atomic.get s_restarts;
    learned = Atomic.get s_learned;
    deleted = Atomic.get s_deleted;
    reductions = Atomic.get s_reductions;
    db_peak = Atomic.get s_db_peak;
    sessions = Atomic.get s_sessions;
    session_reuse = Atomic.get s_session_reuse;
    lbd_hist = Array.map Atomic.get s_lbd_hist;
  }

let reset_stats () =
  List.iter
    (fun c -> Atomic.set c 0)
    ([
       s_checks; s_sat; s_unsat; s_unknown; s_conflicts; s_decisions; s_propagations;
       s_restarts; s_learned; s_deleted; s_reductions; s_db_peak; s_sessions;
       s_session_reuse;
     ]
    @ Array.to_list s_lbd_hist)

let bump counter n = ignore (Atomic.fetch_and_add counter n)

let rec bump_max counter n =
  let cur = Atomic.get counter in
  if n > cur && not (Atomic.compare_and_set counter cur n) then bump_max counter n

(* Worker-side aggregation: a forked verification worker accumulates its SAT
   work in its own copy of these atomics, invisible to the parent.  The
   worker ships [diff after before] back in the response frame and the
   parent [absorb]s it, so Report and the bench JSON see the workers'
   counters, not just the parent's own solves. *)

let diff (a : stats) (b : stats) : stats =
  {
    checks = a.checks - b.checks;
    sat = a.sat - b.sat;
    unsat = a.unsat - b.unsat;
    unknown = a.unknown - b.unknown;
    conflicts = a.conflicts - b.conflicts;
    decisions = a.decisions - b.decisions;
    propagations = a.propagations - b.propagations;
    restarts = a.restarts - b.restarts;
    learned = a.learned - b.learned;
    deleted = a.deleted - b.deleted;
    reductions = a.reductions - b.reductions;
    db_peak = a.db_peak (* peak is a maximum, not a sum: keep the worker's *);
    sessions = a.sessions - b.sessions;
    session_reuse = a.session_reuse - b.session_reuse;
    lbd_hist = Array.init Sat.lbd_buckets (fun i -> a.lbd_hist.(i) - b.lbd_hist.(i));
  }

let absorb (d : stats) =
  bump s_checks d.checks;
  bump s_sat d.sat;
  bump s_unsat d.unsat;
  bump s_unknown d.unknown;
  bump s_conflicts d.conflicts;
  bump s_decisions d.decisions;
  bump s_propagations d.propagations;
  bump s_restarts d.restarts;
  bump s_learned d.learned;
  bump s_deleted d.deleted;
  bump s_reductions d.reductions;
  bump_max s_db_peak d.db_peak;
  bump s_sessions d.sessions;
  bump s_session_reuse d.session_reuse;
  Array.iteri (fun i n -> bump s_lbd_hist.(i) n) d.lbd_hist

module Fault = Veriopt_fault.Fault

(* One accounted solve over a live bit-blast context: runs {!Sat.solve},
   folds the per-call counter deltas into the process-wide atomics, and
   wraps a [Sat] result in model closures over the context.  [assumptions]
   are raw SAT literals (already blasted). *)
let solve_ctx ~max_conflicts ?deadline ?(assumptions = []) (ctx : Bitblast.ctx) : outcome =
  let sat = ctx.Bitblast.sat in
  let c0, d0, p0 = Sat.stats sat in
  let r0 = Sat.restarts sat in
  let db0 = Sat.db_stats sat in
  let result = Sat.solve ~max_conflicts ?deadline ~assumptions sat in
  let c1, d1, p1 = Sat.stats sat in
  let db1 = Sat.db_stats sat in
  bump s_checks 1;
  bump s_conflicts (c1 - c0);
  bump s_decisions (d1 - d0);
  bump s_propagations (p1 - p0);
  bump s_restarts (Sat.restarts sat - r0);
  bump s_learned (db1.Sat.learned - db0.Sat.learned);
  bump s_deleted (db1.Sat.deleted - db0.Sat.deleted);
  bump s_reductions (db1.Sat.reductions - db0.Sat.reductions);
  bump_max s_db_peak db1.Sat.peak;
  Array.iteri (fun i n -> bump s_lbd_hist.(i) (n - db0.Sat.lbd_hist.(i))) db1.Sat.lbd_hist;
  match result with
  | Sat.Sat ->
    bump s_sat 1;
    Sat
      {
        bv_value = (fun name -> Bitblast.bv_model_value ctx name);
        bool_value = (fun name -> Bitblast.bool_model_value ctx name);
      }
  | Sat.Unsat ->
    bump s_unsat 1;
    Unsat
  | Sat.Unknown ->
    bump s_unknown 1;
    Unknown

(** Decide [/\ assertions].  [max_conflicts] is the conflict-count budget;
    [deadline] is an absolute wall-clock instant checked in the SAT loop
    alongside it.  Exhausting either yields [Unknown]. *)
let check ?(max_conflicts = 200_000) ?deadline (assertions : Expr.t list) : outcome =
  let expired () =
    match deadline with None -> false | Some d -> Unix.gettimeofday () > d
  in
  (* fault site: a hostile query exhausting the whole solver budget *)
  if Fault.fire Fault.Solver_timeout || expired () then begin
    bump s_checks 1;
    bump s_unknown 1;
    Unknown
  end
  (* Fast path: constant-folded assertions. *)
  else if List.exists (fun (t : Expr.t) -> t.Expr.node = Expr.False) assertions then begin
    bump s_checks 1;
    bump s_unsat 1;
    Unsat
  end
  else begin
    let ctx = Bitblast.create () in
    List.iter (Bitblast.assert_term ctx) assertions;
    solve_ctx ~max_conflicts ?deadline ctx
  end

(* ------------------------------------------------------------------ *)
(* Persistent incremental sessions: one bit-blasting context and one SAT
   solver shared across a sequence of [assert_]/[check] calls.  Assertions
   are permanent (the instance only ever strengthens, so learned clauses,
   variable activities and saved phases stay sound and warm across checks);
   per-check conditions go through [~assumptions].  This is the engine room
   of iterative-deepening unroll: depth k+1 re-asserts only its tail and
   the solver resumes where depth k left off. *)

module Session = struct
  type t = {
    ctx : Bitblast.ctx;
    asserted : (int, unit) Hashtbl.t; (* Expr ids already asserted *)
    mutable checks : int;
    mutable conflicts_used : int; (* sum of per-check conflict deltas *)
    mutable released : bool;
  }

  let create () =
    bump s_sessions 1;
    {
      ctx = Bitblast.create ();
      asserted = Hashtbl.create 64;
      checks = 0;
      conflicts_used = 0;
      released = false;
    }

  let alive t = if t.released then invalid_arg "Solver.Session: released"

  let assert_ t (e : Expr.t) =
    alive t;
    if not (Hashtbl.mem t.asserted e.Expr.id) then begin
      Hashtbl.replace t.asserted e.Expr.id ();
      Bitblast.assert_term t.ctx e
    end

  let check ?(max_conflicts = 200_000) ?deadline ?(assumptions : Expr.t list = []) t : outcome =
    alive t;
    let expired () =
      match deadline with None -> false | Some d -> Unix.gettimeofday () > d
    in
    bump s_checks 1;
    if t.checks > 0 then bump s_session_reuse 1;
    t.checks <- t.checks + 1;
    (* fault site: shares the one-shot path's injected solver timeouts *)
    if Fault.fire Fault.Solver_timeout || expired () then begin
      bump s_unknown 1;
      Unknown
    end
    else begin
      let sat = t.ctx.Bitblast.sat in
      let c0, d0, p0 = Sat.stats sat in
      let r0 = Sat.restarts sat in
      let db0 = Sat.db_stats sat in
      (* Blasting the assumption terms may add definitional clauses — that
         is fine, Tseitin definitions are satisfiable extensions. *)
      let assumption_lits = List.map (Bitblast.blast_bool t.ctx) assumptions in
      let result = Sat.solve ~max_conflicts ?deadline ~assumptions:assumption_lits sat in
      let c1, d1, p1 = Sat.stats sat in
      let db1 = Sat.db_stats sat in
      t.conflicts_used <- t.conflicts_used + (c1 - c0);
      bump s_conflicts (c1 - c0);
      bump s_decisions (d1 - d0);
      bump s_propagations (p1 - p0);
      bump s_restarts (Sat.restarts sat - r0);
      bump s_learned (db1.Sat.learned - db0.Sat.learned);
      bump s_deleted (db1.Sat.deleted - db0.Sat.deleted);
      bump s_reductions (db1.Sat.reductions - db0.Sat.reductions);
      bump_max s_db_peak db1.Sat.peak;
      Array.iteri
        (fun i n -> bump s_lbd_hist.(i) (n - db0.Sat.lbd_hist.(i)))
        db1.Sat.lbd_hist;
      match result with
      | Sat.Sat ->
        bump s_sat 1;
        (* The closures read live solver state: valid until the next
           operation on this session. The deepening loop stops on Sat, so
           its counterexample models are never invalidated. *)
        Sat
          {
            bv_value = (fun name -> Bitblast.bv_model_value t.ctx name);
            bool_value = (fun name -> Bitblast.bool_model_value t.ctx name);
          }
      | Sat.Unsat ->
        bump s_unsat 1;
        Unsat
      | Sat.Unknown ->
        bump s_unknown 1;
        Unknown
    end

  let conflicts t = t.conflicts_used
  let checks t = t.checks
  let release t = t.released <- true
end

(** [valid t] checks that [t] is true under all assignments; on failure the
    model witnesses the violation. *)
let valid ?max_conflicts ?deadline (t : Expr.t) : outcome =
  match check ?max_conflicts ?deadline [ Expr.not_ t ] with
  | Sat m -> Sat m (* counterexample *)
  | Unsat -> Unsat (* valid *)
  | Unknown -> Unknown

(** Concrete evaluation of a closed term under an assignment, used for
    differential testing of the bit-blaster. *)
let rec eval_bool (env_bv : string -> int64) (env_bool : string -> bool) (t : Expr.t) : bool =
  match t.Expr.node with
  | Expr.True -> true
  | Expr.False -> false
  | Expr.BoolVar s -> env_bool s
  | Expr.Not a -> not (eval_bool env_bv env_bool a)
  | Expr.BAnd (a, b) -> eval_bool env_bv env_bool a && eval_bool env_bv env_bool b
  | Expr.BOr (a, b) -> eval_bool env_bv env_bool a || eval_bool env_bv env_bool b
  | Expr.BXor (a, b) -> eval_bool env_bv env_bool a <> eval_bool env_bv env_bool b
  | Expr.BIte (c, a, b) ->
    if eval_bool env_bv env_bool c then eval_bool env_bv env_bool a
    else eval_bool env_bv env_bool b
  | Expr.Eq (a, b) -> eval_bv env_bv env_bool a = eval_bv env_bv env_bool b
  | Expr.Ult (a, b) ->
    Veriopt_ir.Bits.ult (Expr.width a) (eval_bv env_bv env_bool a) (eval_bv env_bv env_bool b)
  | Expr.Slt (a, b) ->
    Veriopt_ir.Bits.slt (Expr.width a) (eval_bv env_bv env_bool a) (eval_bv env_bv env_bool b)
  | _ -> invalid_arg "Solver.eval_bool: bitvector-sorted term"

and eval_bv (env_bv : string -> int64) (env_bool : string -> bool) (t : Expr.t) : int64 =
  let open Veriopt_ir.Bits in
  let w = Expr.width t in
  match t.Expr.node with
  | Expr.BvConst { value; _ } -> value
  | Expr.BvVar { name; _ } -> mask w (env_bv name)
  | Expr.BvBin (op, a, b) -> (
    let x = eval_bv env_bv env_bool a and y = eval_bv env_bv env_bool b in
    match op with
    | Expr.Add -> add w x y
    | Expr.Sub -> sub w x y
    | Expr.Mul -> mul w x y
    | Expr.UDiv -> if y = 0L then all_ones w else udiv w x y
    | Expr.URem -> if y = 0L then x else urem w x y
    | Expr.SDiv ->
      if y = 0L then if slt w x 0L then 1L else all_ones w
      else if x = min_signed w && y = all_ones w then min_signed w
      else sdiv w x y
    | Expr.SRem ->
      if y = 0L then x else if x = min_signed w && y = all_ones w then 0L else srem w x y
    | Expr.Shl -> if shift_amount_poison w y then 0L else shl w x y
    | Expr.LShr -> if shift_amount_poison w y then 0L else lshr w x y
    | Expr.AShr ->
      if shift_amount_poison w y then if slt w x 0L then all_ones w else 0L else ashr w x y
    | Expr.And -> logand w x y
    | Expr.Or -> logor w x y
    | Expr.Xor -> logxor w x y)
  | Expr.BvNot a -> lognot w (eval_bv env_bv env_bool a)
  | Expr.BvNeg a -> neg w (eval_bv env_bv env_bool a)
  | Expr.BvIte (c, a, b) ->
    if eval_bool env_bv env_bool c then eval_bv env_bv env_bool a else eval_bv env_bv env_bool b
  | Expr.BvZext (_, a) -> zext (Expr.width a) w (eval_bv env_bv env_bool a)
  | Expr.BvSext (_, a) -> sext (Expr.width a) w (eval_bv env_bv env_bool a)
  | Expr.BvTrunc (_, a) -> trunc (Expr.width a) w (eval_bv env_bv env_bool a)
  | _ -> invalid_arg "Solver.eval_bv: boolean-sorted term"
