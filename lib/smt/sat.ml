(** A CDCL SAT solver: two-watched-literal propagation, first-UIP clause
    learning, VSIDS decision heuristic with phase saving and Luby restarts,
    and Glucose-style learned-clause management (LBD scoring, clause
    activities, periodic clause-DB reduction).  A conflict budget turns hard
    instances into [Unknown], which the verifier reports as "inconclusive"
    — mirroring Alive2's solver timeouts.

    Literal encoding: variable [v >= 0]; positive literal [2v], negative
    [2v+1]. *)

type result = Sat | Unsat | Unknown

let lit_of_var ?(sign = true) v = if sign then 2 * v else (2 * v) + 1
let var_of_lit l = l lsr 1
let lit_neg l = l lxor 1
let lit_sign l = l land 1 = 0 (* true = positive *)

type clause = {
  mutable lits : int array; (* [||] once deleted *)
  learned : bool;
  mutable lbd : int; (* literal-block distance; 0 for problem clauses *)
  mutable act : float; (* clause activity (bumped when used in analysis) *)
  mutable deleted : bool;
}

(* The LBD histogram exported by [db_stats]: bucket [i] counts learned
   clauses whose LBD at learning time was [i + 1]; the last bucket pools
   everything >= [lbd_buckets]. *)
let lbd_buckets = 8

type db_stats = {
  learned : int; (* learned clauses ever stored *)
  deleted : int; (* learned clauses deleted by reductions *)
  live : int; (* current learned-DB size *)
  peak : int; (* largest learned-DB size ever *)
  reductions : int; (* clause-DB reduction passes *)
  lbd_hist : int array; (* length [lbd_buckets]; see above *)
}

type t = {
  mutable nvars : int;
  mutable clauses : clause array; (* growable *)
  mutable nclauses : int;
  mutable watches : Vec.t array; (* literal -> indices of clauses watching it *)
  mutable assign : int array; (* var -> -1 unassigned / 0 false / 1 true *)
  mutable level : int array; (* var -> decision level *)
  mutable reason : int array; (* var -> clause index or -1 *)
  mutable phase : bool array; (* saved phases *)
  activity : float array ref;
  mutable var_inc : float;
  trail : Vec.t; (* assigned literals in order *)
  trail_lim : Vec.t; (* trail indices at decision points *)
  mutable qhead : int;
  order : Heap.t;
  mutable unsat : bool;
  mutable conflicts : int;
  mutable propagations : int;
  mutable decisions : int;
  mutable n_restarts : int;
  mutable seen : bool array; (* scratch for conflict analysis *)
  (* learned-clause management *)
  learnts : Vec.t; (* indices of live learned clauses *)
  mutable cla_inc : float; (* clause-activity increment *)
  mutable lbd_stamp : int array; (* level -> stamp, scratch for LBD *)
  mutable stamp : int;
  mutable n_learned : int;
  mutable n_deleted : int;
  mutable n_reductions : int;
  mutable max_db : int;
  lbd_hist : int array;
}

let create () =
  let activity = ref (Array.make 8 0.) in
  {
    nvars = 0;
    clauses =
      Array.make 64 { lits = [||]; learned = false; lbd = 0; act = 0.; deleted = false };
    nclauses = 0;
    watches = Array.init 16 (fun _ -> Vec.create ~capacity:4 ());
    assign = Array.make 8 (-1);
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    phase = Array.make 8 false;
    activity;
    var_inc = 1.0;
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    order = Heap.create ~capacity:8 ~score:(fun v -> !activity.(v));
    unsat = false;
    conflicts = 0;
    propagations = 0;
    decisions = 0;
    n_restarts = 0;
    seen = Array.make 8 false;
    learnts = Vec.create ();
    cla_inc = 1.0;
    lbd_stamp = Array.make 9 0;
    stamp = 0;
    n_learned = 0;
    n_deleted = 0;
    n_reductions = 0;
    max_db = 0;
    lbd_hist = Array.make lbd_buckets 0;
  }

let grow_arrays t n =
  let old = Array.length t.assign in
  if n > old then (
    let size = max n (2 * old) in
    let extend a fill =
      let b = Array.make size fill in
      Array.blit a 0 b 0 old;
      b
    in
    t.assign <- extend t.assign (-1);
    t.level <- extend t.level 0;
    t.reason <- extend t.reason (-1);
    t.phase <- extend t.phase false;
    t.seen <- extend t.seen false;
    (* decision levels range over 0..nvars inclusive *)
    (let b = Array.make (size + 1) 0 in
     Array.blit t.lbd_stamp 0 b 0 (Array.length t.lbd_stamp);
     t.lbd_stamp <- b);
    t.activity := extend !(t.activity) 0.)

let grow_watches t nlit =
  let old = Array.length t.watches in
  if nlit > old then (
    let size = max nlit (2 * old) in
    let w = Array.init size (fun i -> if i < old then t.watches.(i) else Vec.create ~capacity:4 ()) in
    t.watches <- w)

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  grow_arrays t (v + 1);
  grow_watches t (2 * (v + 1));
  Heap.insert t.order v;
  v

let value_lit t l =
  let a = t.assign.(var_of_lit l) in
  if a < 0 then -1 else if lit_sign l then a else 1 - a

let enqueue t l reason =
  let v = var_of_lit l in
  t.assign.(v) <- (if lit_sign l then 1 else 0);
  t.level.(v) <- Vec.length t.trail_lim;
  t.reason.(v) <- reason;
  t.phase.(v) <- lit_sign l;
  Vec.push t.trail l

let push_clause t c =
  if t.nclauses = Array.length t.clauses then (
    let bigger = Array.make (2 * t.nclauses) c in
    Array.blit t.clauses 0 bigger 0 t.nclauses;
    t.clauses <- bigger);
  t.clauses.(t.nclauses) <- c;
  t.nclauses <- t.nclauses + 1;
  t.nclauses - 1

let watch_clause t idx =
  let lits = t.clauses.(idx).lits in
  Vec.push t.watches.(lit_neg lits.(0)) idx;
  Vec.push t.watches.(lit_neg lits.(1)) idx

let backtrack t lvl =
  if Vec.length t.trail_lim > lvl then (
    let bound = Vec.get t.trail_lim lvl in
    for i = Vec.length t.trail - 1 downto bound do
      let v = var_of_lit (Vec.get t.trail i) in
      t.assign.(v) <- -1;
      t.reason.(v) <- -1;
      Heap.insert t.order v
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim lvl;
    t.qhead <- bound)

(** Add a clause.  Restores decision level 0 first, so clauses may be added
    between incremental [solve] calls: the satisfied/falsified-literal
    simplification below is only sound against level-0 assignments. *)
let add_clause t (lits : int list) =
  if not t.unsat then (
    backtrack t 0;
    let lits = List.sort_uniq compare lits in
    let tautology = List.exists (fun l -> List.mem (lit_neg l) lits) lits in
    if not tautology then
      if List.exists (fun l -> value_lit t l = 1) lits then ()
      else
        let lits = List.filter (fun l -> value_lit t l <> 0) lits in
        match lits with
        | [] -> t.unsat <- true
        | [ l ] -> enqueue t l (-1)
        | _ ->
          let arr = Array.of_list lits in
          let idx =
            push_clause t { lits = arr; learned = false; lbd = 0; act = 0.; deleted = false }
          in
          watch_clause t idx)

(* Propagate all enqueued assignments; returns a conflicting clause index or
   -1.  Standard MiniSat-style watched-literal loop. *)
let propagate t =
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < Vec.length t.trail do
    let l = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let ws = t.watches.(l) in
    let n = Vec.length ws in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let ci = Vec.get ws !i in
      incr i;
      let lits = t.clauses.(ci).lits in
      let falsified = lit_neg l in
      if lits.(0) = falsified then (
        lits.(0) <- lits.(1);
        lits.(1) <- falsified);
      if value_lit t lits.(0) = 1 then (
        Vec.set ws !j ci;
        incr j)
      else begin
        let len = Array.length lits in
        let k = ref 2 in
        let found = ref false in
        while (not !found) && !k < len do
          if value_lit t lits.(!k) <> 0 then (
            let tmp = lits.(1) in
            lits.(1) <- lits.(!k);
            lits.(!k) <- tmp;
            Vec.push t.watches.(lit_neg lits.(1)) ci;
            found := true)
          else incr k
        done;
        if not !found then
          if value_lit t lits.(0) = 0 then (
            (* conflict: keep this and all remaining watches, then stop *)
            Vec.set ws !j ci;
            incr j;
            while !i < n do
              Vec.set ws !j (Vec.get ws !i);
              incr i;
              incr j
            done;
            conflict := ci)
          else (
            Vec.set ws !j ci;
            incr j;
            enqueue t lits.(0) ci)
      end
    done;
    Vec.shrink ws !j
  done;
  !conflict

let var_bump t v =
  let a = !(t.activity) in
  a.(v) <- a.(v) +. t.var_inc;
  if a.(v) > 1e100 then (
    for i = 0 to t.nvars - 1 do
      a.(i) <- a.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100);
  Heap.notify_increase t.order v

let var_decay t = t.var_inc <- t.var_inc /. 0.95

(* ------------------------------------------------------------------ *)
(* Learned-clause management: LBD scoring and clause activities *)

(* Literal-block distance: the number of distinct decision levels among the
   clause's literals (Glucose's quality measure — a clause touching few
   levels "glues" blocks of the search together and keeps propagating after
   restarts).  Level-0 literals are permanently falsified and don't count. *)
let compute_lbd t (lits : int array) =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let n = ref 0 in
  Array.iter
    (fun l ->
      let lv = t.level.(var_of_lit l) in
      if lv > 0 && t.lbd_stamp.(lv) <> stamp then (
        t.lbd_stamp.(lv) <- stamp;
        incr n))
    lits;
  max 1 !n

let cla_bump t (c : clause) =
  c.act <- c.act +. t.cla_inc;
  if c.act > 1e20 then (
    Vec.iter
      (fun ci ->
        let c = t.clauses.(ci) in
        c.act <- c.act *. 1e-20)
      t.learnts;
    t.cla_inc <- t.cla_inc *. 1e-20)

let cla_decay t = t.cla_inc <- t.cla_inc /. 0.999

(* A clause is locked while it is the reason of an assigned variable; the
   watched-literal invariant keeps the implied literal at position 0 for as
   long as the assignment stands, so one lookup suffices. *)
let locked t ci =
  let c = t.clauses.(ci) in
  Array.length c.lits > 0
  && value_lit t c.lits.(0) = 1
  && t.reason.(var_of_lit c.lits.(0)) = ci

(* Reduce the learned-clause DB: delete the worse half, where "worse" is
   higher LBD then lower activity.  Kept unconditionally: glue clauses
   (LBD <= 2), binary clauses (cheap to keep, expensive to relearn), and
   locked clauses (deleting a reason would corrupt conflict analysis). *)
let reduce_db t =
  t.n_reductions <- t.n_reductions + 1;
  let n = Vec.length t.learnts in
  let idxs = Array.init n (Vec.get t.learnts) in
  (* worst first: highest LBD, ties broken toward lowest activity *)
  Array.sort
    (fun a b ->
      let ca = t.clauses.(a) and cb = t.clauses.(b) in
      if ca.lbd <> cb.lbd then compare cb.lbd ca.lbd else compare ca.act cb.act)
    idxs;
  let target = n / 2 in
  let deleted = ref 0 in
  Array.iter
    (fun ci ->
      let c = t.clauses.(ci) in
      if
        !deleted < target && c.lbd > 2
        && Array.length c.lits > 2
        && not (locked t ci)
      then (
        ignore (Vec.remove t.watches.(lit_neg c.lits.(0)) ci);
        ignore (Vec.remove t.watches.(lit_neg c.lits.(1)) ci);
        c.deleted <- true;
        c.lits <- [||];
        incr deleted))
    idxs;
  Vec.filter_in_place (fun ci -> not t.clauses.(ci).deleted) t.learnts;
  t.n_deleted <- t.n_deleted + !deleted;
  (* defensive: no assigned variable may be left with a deleted reason *)
  Vec.iter
    (fun l ->
      let r = t.reason.(var_of_lit l) in
      if r >= 0 && t.clauses.(r).deleted then
        failwith "Sat.reduce_db: deleted a locked clause")
    t.trail

(* ------------------------------------------------------------------ *)

(* First-UIP conflict analysis: walk the implication graph backwards from the
   conflict, resolving on current-level literals until a single one (the UIP)
   remains.  Returns the learned clause (asserting literal first) and the
   backtrack level.  Every learned clause met along the walk gets its
   activity bumped and its LBD refreshed (it can only shrink). *)
let analyze t conflict_idx =
  let seen = t.seen in
  let learned = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref conflict_idx in
  let trail_pos = ref (Vec.length t.trail - 1) in
  let current_level = Vec.length t.trail_lim in
  let uip = ref 0 in
  let continue_loop = ref true in
  while !continue_loop do
    let c = t.clauses.(!confl) in
    if c.learned then begin
      cla_bump t c;
      let l = compute_lbd t c.lits in
      if l < c.lbd then c.lbd <- l
    end;
    Array.iter
      (fun q ->
        if q <> !p then
          let v = var_of_lit q in
          if (not seen.(v)) && t.level.(v) > 0 then (
            seen.(v) <- true;
            var_bump t v;
            if t.level.(v) >= current_level then incr counter else learned := q :: !learned))
      c.lits;
    let rec find () =
      let l = Vec.get t.trail !trail_pos in
      decr trail_pos;
      if seen.(var_of_lit l) then l else find ()
    in
    let l = find () in
    p := l;
    seen.(var_of_lit l) <- false;
    decr counter;
    if !counter = 0 then (
      uip := lit_neg !p;
      continue_loop := false)
    else confl := t.reason.(var_of_lit l)
  done;
  let rest = !learned in
  List.iter (fun q -> seen.(var_of_lit q) <- false) rest;
  let blevel = List.fold_left (fun acc q -> max acc t.level.(var_of_lit q)) 0 rest in
  (!uip :: rest, blevel)

let record_learned t lits =
  match lits with
  | [] -> t.unsat <- true
  | [ l ] -> if value_lit t l = 0 then t.unsat <- true else if value_lit t l = -1 then enqueue t l (-1)
  | l0 :: _ ->
    let arr = Array.of_list lits in
    (* position 1 must hold a literal from the backtrack level *)
    let best = ref 1 in
    for i = 1 to Array.length arr - 1 do
      if t.level.(var_of_lit arr.(i)) > t.level.(var_of_lit arr.(!best)) then best := i
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!best);
    arr.(!best) <- tmp;
    let lbd = compute_lbd t arr in
    let idx =
      push_clause t { lits = arr; learned = true; lbd; act = t.cla_inc; deleted = false }
    in
    watch_clause t idx;
    Vec.push t.learnts idx;
    t.n_learned <- t.n_learned + 1;
    let bucket = min lbd lbd_buckets - 1 in
    t.lbd_hist.(bucket) <- t.lbd_hist.(bucket) + 1;
    if Vec.length t.learnts > t.max_db then t.max_db <- Vec.length t.learnts;
    enqueue t l0 idx

let decide t =
  let rec pick () =
    if Heap.is_empty t.order then -1
    else
      let v = Heap.pop_max t.order in
      if t.assign.(v) < 0 then v else pick ()
  in
  let v = pick () in
  if v < 0 then false
  else (
    t.decisions <- t.decisions + 1;
    Vec.push t.trail_lim (Vec.length t.trail);
    enqueue t (lit_of_var ~sign:t.phase.(v) v) (-1);
    true)

(* MiniSat's reluctant-doubling (Luby) restart sequence. *)
let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  float_of_int (1 lsl !seq)

(* Incremental solving: [solve] restores decision level 0 on entry (undoing
   any assignments left by a previous call), and [~assumptions] are decided —
   in order, each at its own decision level — before any heuristic decision.
   MiniSat's scheme: an assumption already true under the current prefix gets
   an empty "dummy" level; one already false means the instance is Unsat
   *under these assumptions* (the clause DB itself may stay satisfiable, and
   [t.unsat] is not set).  Restarts backtrack to level 0 and re-decide the
   assumptions, so learned clauses are always consequences of the clause DB
   alone and remain sound for later calls with different assumptions.  The
   conflict budget is per-call (a delta against the entry count), not
   cumulative over the solver's lifetime. *)
(* Restart interval for restart number [k]: Luby with base 100. *)
let restart_interval k = int_of_float (100. *. luby k)

let solve ?(max_conflicts = 200_000) ?deadline ?(reduce = true) ?(reduce_first = 2000)
    ?(assumptions = []) t =
  if t.unsat then Unsat
  else begin
    backtrack t 0;
    let assumptions = Array.of_list assumptions in
    let n_assumptions = Array.length assumptions in
    let conflicts0 = t.conflicts in
    let result = ref None in
    let restart_count = ref 0 in
    let until_restart = ref (restart_interval 0) in
    (* Geometric reduction schedule: when the live learned DB reaches the
       threshold, delete the worse half and grow the threshold by 3/2 —
       interleaved with the Luby restarts, which periodically unlock
       reason clauses so no clause is pinned forever. *)
    let max_learnts = ref (max 4 reduce_first) in
    (* Wall-clock deadline, checked alongside the conflict budget.  The
       clock read is amortized over 128 loop iterations so the common
       (no-deadline or far-from-deadline) case stays in the noise. *)
    let deadline_countdown = ref 0 in
    let past_deadline () =
      match deadline with
      | None -> false
      | Some d ->
        decr deadline_countdown;
        if !deadline_countdown > 0 then false
        else begin
          deadline_countdown := 128;
          Unix.gettimeofday () > d
        end
    in
    while !result = None do
      if past_deadline () then result := Some Unknown
      else begin
      let confl = propagate t in
      if confl >= 0 then begin
        t.conflicts <- t.conflicts + 1;
        if t.conflicts - conflicts0 > max_conflicts then result := Some Unknown
        else if Vec.length t.trail_lim = 0 then begin
          (* A conflict with no decisions on the stack — assumptions included,
             since each occupies its own level — refutes the clause DB itself.
             Latching [unsat] here matters for incremental reuse: the conflict
             has already been consumed from the propagation queue, so a later
             call would otherwise resume past it and "complete" a bogus model. *)
          t.unsat <- true;
          result := Some Unsat
        end
        else begin
          let learned, blevel = analyze t confl in
          backtrack t blevel;
          record_learned t learned;
          if t.unsat then result := Some Unsat;
          var_decay t;
          cla_decay t;
          if reduce && Vec.length t.learnts >= !max_learnts then begin
            reduce_db t;
            max_learnts := !max_learnts * 3 / 2
          end;
          decr until_restart
        end
      end
      else if !until_restart <= 0 then begin
        incr restart_count;
        t.n_restarts <- t.n_restarts + 1;
        until_restart := restart_interval !restart_count;
        backtrack t 0
      end
      else if Vec.length t.trail_lim < n_assumptions then begin
        (* next assumption becomes the next decision *)
        let l = assumptions.(Vec.length t.trail_lim) in
        match value_lit t l with
        | 1 -> Vec.push t.trail_lim (Vec.length t.trail) (* dummy level *)
        | 0 -> result := Some Unsat (* conflicts with the prefix *)
        | _ ->
          Vec.push t.trail_lim (Vec.length t.trail);
          enqueue t l (-1)
      end
      else if not (decide t) then result := Some Sat
      end
    done;
    match !result with Some r -> r | None -> assert false
  end

(** Model access after [Sat]. *)
let model_value t v = t.assign.(v) = 1

let stats t = (t.conflicts, t.decisions, t.propagations)
let restarts t = t.n_restarts

let db_stats t =
  {
    learned = t.n_learned;
    deleted = t.n_deleted;
    live = Vec.length t.learnts;
    peak = t.max_db;
    reductions = t.n_reductions;
    lbd_hist = Array.copy t.lbd_hist;
  }

(* ------------------------------------------------------------------ *)
(* Structural invariants of the clause DB, for the fuzz harness.  Raises
   [Failure] on violation. *)
let check_invariants t =
  let fail fmt = Printf.ksprintf failwith ("Sat.check_invariants: " ^^ fmt) in
  (* no deleted clause may be a reason or sit in a watch list *)
  for v = 0 to t.nvars - 1 do
    let r = t.reason.(v) in
    if t.assign.(v) >= 0 && r >= 0 && t.clauses.(r).deleted then
      fail "deleted clause %d is the reason of var %d" r v
  done;
  Array.iter
    (fun ws ->
      Vec.iter
        (fun ci -> if t.clauses.(ci).deleted then fail "deleted clause %d still watched" ci)
        ws)
    t.watches;
  (* the learnt index tracks exactly the live learned clauses *)
  Vec.iter
    (fun ci ->
      let c = t.clauses.(ci) in
      if not c.learned then fail "problem clause %d in the learnt index" ci;
      if c.deleted then fail "deleted clause %d in the learnt index" ci)
    t.learnts;
  if Vec.length t.learnts <> t.n_learned - t.n_deleted then
    fail "live count %d <> learned %d - deleted %d" (Vec.length t.learnts) t.n_learned
      t.n_deleted;
  if t.max_db < Vec.length t.learnts then
    fail "peak %d below live %d" t.max_db (Vec.length t.learnts)

(* Bump when solver behavior changes what a verdict *means* (not mere
   search-order heuristics): the disk-backed verdict store keys entry
   freshness on this. *)
let semantics_version = 1
