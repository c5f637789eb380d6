(** Helpers for constructing and transforming functions programmatically:
    fresh names, instruction substitution, and block surgery.  Used by the
    lowering pipeline, the peephole engine and the mutation engine. *)

open Ast

(** A fresh-name supply seeded with all names already used in a function. *)
type names = { mutable used : (string, unit) Hashtbl.t; mutable counter : int }

let names_of_func (f : func) : names =
  let used = Hashtbl.create 64 in
  List.iter (fun (_, v) -> Hashtbl.replace used v ()) f.params;
  List.iter
    (fun b ->
      Hashtbl.replace used b.label ();
      List.iter
        (fun { name; _ } -> match name with Some n -> Hashtbl.replace used n () | None -> ())
        b.instrs)
    f.blocks;
  { used; counter = 0 }

let fresh names prefix =
  let rec go () =
    let candidate = Fmt.str "%s%d" prefix names.counter in
    names.counter <- names.counter + 1;
    if Hashtbl.mem names.used candidate then go ()
    else (
      Hashtbl.replace names.used candidate ();
      candidate)
  in
  go ()

(** Reset the supply's counter without forgetting which names are taken.
    The rewrite context shares one supply across a whole pass; resetting
    before each rule application reproduces the historical behaviour of
    building a fresh supply per rule (names restart at [prefix0] and skip
    taken ones). *)
let names_reset (n : names) = n.counter <- 0

let name_release (n : names) v = Hashtbl.remove n.used v

(** Substitute operand [from] with [to_] everywhere in a function (used when a
    rewrite replaces an instruction's result with another value). *)
let substitute_operand (f : func) ~(from : var) ~(to_ : operand) : func =
  let subst op = match op with Var v when v = from -> to_ | _ -> op in
  {
    f with
    blocks =
      List.map
        (fun b ->
          {
            b with
            instrs =
              List.map (fun ni -> { ni with instr = map_instr_operands subst ni.instr }) b.instrs;
            term = map_terminator_operands subst b.term;
          })
        f.blocks;
  }

(** Replace the instruction named [name] with a new instruction list
    (possibly empty if the value was substituted away). *)
let replace_instr (f : func) ~(name : var) ~(with_ : named_instr list) : func =
  {
    f with
    blocks =
      List.map
        (fun b ->
          {
            b with
            instrs =
              List.concat_map
                (fun ni -> if ni.name = Some name then with_ else [ ni ])
                b.instrs;
          })
        f.blocks;
  }

let remove_instr_at (f : func) ~(block : label) ~(index : int) : func =
  {
    f with
    blocks =
      List.map
        (fun b ->
          if b.label = block then
            { b with instrs = List.filteri (fun i _ -> i <> index) b.instrs }
          else b)
        f.blocks;
  }

let map_blocks (f : func) g = { f with blocks = List.map g f.blocks }

(** All uses of each variable, for use-count-based rewrites (e.g. "has one
    use" preconditions in instcombine). *)
let use_counts (f : func) : (var, int) Hashtbl.t =
  let counts = Hashtbl.create 64 in
  let note = function
    | Var v -> Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
    | Const _ | Global _ -> ()
  in
  List.iter
    (fun b ->
      List.iter (fun { instr; _ } -> List.iter note (operands_of_instr instr)) b.instrs;
      List.iter note (operands_of_terminator b.term))
    f.blocks;
  counts

(** Map from defined variable to its defining instruction. *)
let def_map (f : func) : (var, instr) Hashtbl.t =
  let defs = Hashtbl.create 64 in
  List.iter
    (fun b ->
      List.iter
        (fun { name; instr } ->
          match name with Some n -> Hashtbl.replace defs n instr | None -> ())
        b.instrs)
    f.blocks;
  defs

(** Renumber all locals and labels to the compact clang-like scheme
    (%0, %1, ...), preserving program order.  Canonicalizing names makes
    exact-match comparison meaningful across differently-named but
    structurally identical outputs. *)
let renumber (f : func) : func =
  let mapping = Hashtbl.create 64 in
  let next = ref 0 in
  let assign name =
    if not (Hashtbl.mem mapping name) then (
      Hashtbl.replace mapping name (string_of_int !next);
      incr next)
  in
  List.iter (fun (_, v) -> assign v) f.params;
  List.iter
    (fun b ->
      assign b.label;
      List.iter
        (fun { name; _ } -> match name with Some n -> assign n | None -> ())
        b.instrs)
    f.blocks;
  let rename n = try Hashtbl.find mapping n with Not_found -> n in
  let rename_op = function Var v -> Var (rename v) | op -> op in
  let rename_term t =
    let t = map_terminator_operands rename_op t in
    match t with
    | Br l -> Br (rename l)
    | CondBr c -> CondBr { c with if_true = rename c.if_true; if_false = rename c.if_false }
    | Switch s ->
      Switch
        { s with default = rename s.default; cases = List.map (fun (v, l) -> (v, rename l)) s.cases }
    | Ret _ | Unreachable -> t
  in
  let rename_instr i =
    let i = map_instr_operands rename_op i in
    match i with
    | Phi p -> Phi { p with incoming = List.map (fun (o, l) -> (o, rename l)) p.incoming }
    | _ -> i
  in
  {
    f with
    params = List.map (fun (t, v) -> (t, rename v)) f.params;
    blocks =
      List.map
        (fun b ->
          {
            label = rename b.label;
            instrs =
              List.map
                (fun { name; instr } -> { name = Option.map rename name; instr = rename_instr instr })
                b.instrs;
            term = rename_term b.term;
          })
        f.blocks;
  }

(** Structural equality modulo local/label names. *)
let alpha_equal (a : func) (b : func) : bool = renumber a = renumber b

(* ------------------------------------------------------------------ *)
(* The emitting cursor: re-build a function one instruction at a time while
   keeping a live whole-function view of definitions and use counts.

   The fold engine (Veriopt_passes.Fold_engine) drives this: instructions
   are [stage]d (pending substitutions applied, their operand uses moved
   from the pending ledger to the cursor), rewritten zero or more times,
   then [commit]ted into the current block — or dropped entirely via
   [redirect], which records a substitution applied lazily to everything
   not yet emitted.  [defs] and [uses] always describe the whole current
   function (emitted prefix + rewritten cursor + pending suffix), which is
   exactly the view a Rewrite.ctx needs — maintained incrementally instead
   of rebuilt after every rewrite.

   The cursor is pure mechanism: it never decides *whether* a rewrite is
   safe to apply mid-stream.  Policy (retry budgets, restart triggers,
   cascade DCE, the phi barrier) lives in the fold engine. *)

module Emit = struct
  type t = {
    src : func;  (** snapshot of the function being re-emitted *)
    defs : (var, instr) Hashtbl.t;
        (** live def view: final form for emitted instrs, original (pre-
            substitution) form for pending ones *)
    uses : (var, int) Hashtbl.t;  (** live whole-function use counts *)
    pending : (var, int) Hashtbl.t;
        (** uses not yet emitted: occurrences in instructions and
            terminators the cursor has not reached *)
    names : names;  (** live used-name set, shared with Rewrite.ctx *)
    users : (var, (var, int) Hashtbl.t) Hashtbl.t;
        (** used var -> (named user -> occurrence count).  Only *named*
            users: the index exists so [redirect] can eagerly rewrite the
            def-map entries a rule's [def_of] might inspect.  Unnamed
            instructions (stores) are invisible to [def_of] and are fixed
            lazily by [resolve] at stage time. *)
    params : (var, unit) Hashtbl.t;
    subst : (var, operand) Hashtbl.t;  (** lazy substitution, path-compressed *)
    emitted : (var, unit) Hashtbl.t;  (** names committed into the prefix *)
    deleted : (var, unit) Hashtbl.t;  (** names removed (prefix or pending) *)
    mutable done_blocks : block list;  (** reversed *)
    mutable cur_label : label;
    mutable cur_rev : named_instr list;  (** current block, reversed, final form *)
  }

  let open_func (f : func) : t =
    let uses = use_counts f in
    let params = Hashtbl.create 8 in
    List.iter (fun (_, v) -> Hashtbl.replace params v ()) f.params;
    let users = Hashtbl.create 64 in
    List.iter
      (fun b ->
        List.iter
          (fun ni ->
            match ni.name with
            | None -> ()
            | Some u ->
              List.iter
                (function
                  | Var v ->
                    let tbl =
                      match Hashtbl.find_opt users v with
                      | Some tbl -> tbl
                      | None ->
                        let tbl = Hashtbl.create 4 in
                        Hashtbl.replace users v tbl;
                        tbl
                    in
                    Hashtbl.replace tbl u
                      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl u))
                  | Const _ | Global _ -> ())
                (operands_of_instr ni.instr))
          b.instrs)
      f.blocks;
    {
      src = f;
      defs = def_map f;
      uses;
      pending = Hashtbl.copy uses;
      names = names_of_func f;
      users;
      params;
      subst = Hashtbl.create 16;
      emitted = Hashtbl.create 64;
      deleted = Hashtbl.create 16;
      done_blocks = [];
      cur_label = "";
      cur_rev = [];
    }

  let defs t = t.defs
  let uses t = t.uses
  let names t = t.names
  let is_param t v = Hashtbl.mem t.params v
  let is_emitted t v = Hashtbl.mem t.emitted v
  let is_deleted t v = Hashtbl.mem t.deleted v
  let def_peek t v = Hashtbl.find_opt t.defs v

  let rec resolve t (op : operand) : operand =
    match op with
    | Var v -> (
      match Hashtbl.find_opt t.subst v with
      | None -> op
      | Some op' ->
        let r = resolve t op' in
        if r <> op' then Hashtbl.replace t.subst v r;
        r)
    | Const _ | Global _ -> op

  let total t v = Option.value ~default:0 (Hashtbl.find_opt t.uses v)
  let pending_of t v = Option.value ~default:0 (Hashtbl.find_opt t.pending v)

  let bump tbl v d =
    let n = max 0 (Option.value ~default:0 (Hashtbl.find_opt tbl v) + d) in
    if n = 0 then Hashtbl.remove tbl v else Hashtbl.replace tbl v n;
    n

  let add_use t v n = ignore (bump t.uses v n)

  let users_of t v : (var * int) list =
    match Hashtbl.find_opt t.users v with
    | None -> []
    | Some tbl -> Hashtbl.fold (fun u n acc -> (u, n) :: acc) tbl []

  let user_add t ~used ~user n =
    let tbl =
      match Hashtbl.find_opt t.users used with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 4 in
        Hashtbl.replace t.users used tbl;
        tbl
    in
    Hashtbl.replace tbl user (n + Option.value ~default:0 (Hashtbl.find_opt tbl user))

  let user_drop t ~used ~user n =
    match Hashtbl.find_opt t.users used with
    | None -> ()
    | Some tbl ->
      let n' = Option.value ~default:0 (Hashtbl.find_opt tbl user) - n in
      if n' <= 0 then Hashtbl.remove tbl user else Hashtbl.replace tbl user n'

  (** Decrement the live use count; returns the new count. *)
  let drop_use t v = bump t.uses v (-1)

  let drop_pending t v = ignore (bump t.pending v (-1))

  (** Uses of [v] already baked into the emitted prefix (instructions and
      sealed terminators).  [cursor], when given, is the instruction
      currently held at the cursor — its operands are neither prefix nor
      pending. *)
  let prefix_uses ?cursor t v =
    let at_cursor =
      match cursor with
      | None -> 0
      | Some i ->
        List.fold_left
          (fun n o -> match o with Var u when u = v -> n + 1 | _ -> n)
          0 (operands_of_instr i)
    in
    total t v - pending_of t v - at_cursor

  (** Pull a pending instruction to the cursor: apply the substitution to
      its operands and move those occurrences out of the pending ledger. *)
  let stage t (ni : named_instr) : named_instr =
    let instr = map_instr_operands (resolve t) ni.instr in
    List.iter
      (function Var v -> drop_pending t v | Const _ | Global _ -> ())
      (operands_of_instr instr);
    { ni with instr }

  let commit t (ni : named_instr) =
    (match ni.name with
    | Some n ->
      Hashtbl.replace t.defs n ni.instr;
      Hashtbl.replace t.emitted n ()
    | None -> ());
    t.cur_rev <- ni :: t.cur_rev

  let set_def t v i = Hashtbl.replace t.defs v i

  (** Record that every remaining use of [from] reads [to_] instead: the
      value was rewritten away.  Transfers the outstanding use counts onto
      the replacement and retires the name.  Named users' def-map entries
      are rewritten *eagerly* — a later rule's [def_of] on a not-yet-staged
      user must see the substituted form, exactly as a rescanning driver
      would after [substitute_operand]; only unnamed instructions and
      terminators (invisible to [def_of]) wait for [resolve]. *)
  let redirect t ~(from : var) ~(to_ : operand) =
    let n_total = total t from and n_pending = pending_of t from in
    Hashtbl.remove t.uses from;
    Hashtbl.remove t.pending from;
    (match to_ with
    | Var w ->
      if n_total > 0 then ignore (bump t.uses w n_total);
      if n_pending > 0 then ignore (bump t.pending w n_pending)
    | Const _ | Global _ -> ());
    List.iter
      (fun (u, n) ->
        if u <> from then begin
          (match Hashtbl.find_opt t.defs u with
          | Some i ->
            Hashtbl.replace t.defs u
              (map_instr_operands
                 (function Var v when v = from -> to_ | op -> op)
                 i)
          | None -> ());
          match to_ with Var w -> user_add t ~used:w ~user:u n | Const _ | Global _ -> ()
        end)
      (users_of t from);
    Hashtbl.remove t.users from;
    Hashtbl.replace t.subst from to_;
    Hashtbl.remove t.defs from;
    Hashtbl.replace t.deleted from ();
    name_release t.names from

  (** Register an instruction created mid-pass (an Expand rewrite's
      prefix): it joins the def map and its operand uses join both
      ledgers — it will be staged like any other pending instruction. *)
  let introduce t (ni : named_instr) =
    (match ni.name with Some n -> Hashtbl.replace t.defs n ni.instr | None -> ());
    List.iter
      (function
        | Var v ->
          ignore (bump t.uses v 1);
          ignore (bump t.pending v 1);
          (match ni.name with Some u -> user_add t ~used:v ~user:u 1 | None -> ())
        | Const _ | Global _ -> ())
      (operands_of_instr ni.instr)

  (** Remove a dead definition from the live view; returns its instruction
      so the caller can release the operand uses (prefix occurrences for an
      emitted def, pending ones otherwise). *)
  let delete t (v : var) : instr option =
    match Hashtbl.find_opt t.defs v with
    | None -> None
    | Some i ->
      Hashtbl.remove t.defs v;
      Hashtbl.remove t.users v;
      Hashtbl.replace t.deleted v ();
      name_release t.names v;
      Some i

  (** Defined names with no remaining uses (the arming sweep's worklist). *)
  let zero_use_defs t : var list =
    Hashtbl.fold (fun v _ acc -> if total t v = 0 then v :: acc else acc) t.defs []

  let start_block t lbl =
    t.cur_label <- lbl;
    t.cur_rev <- []

  let seal_block t (term : terminator) =
    let term = map_terminator_operands (resolve t) term in
    List.iter
      (function Var v -> drop_pending t v | Const _ | Global _ -> ())
      (operands_of_terminator term);
    t.done_blocks <- { label = t.cur_label; instrs = List.rev t.cur_rev; term } :: t.done_blocks;
    t.cur_rev <- []

  (** Reassemble the function: emitted blocks, then (when the pass stopped
      mid-block) the open block with its unprocessed [queue] and original
      terminator, then the untouched [rest].  The substitution is applied
      and deleted names are filtered everywhere — after a mid-pass stop the
      prefix may hold uses a later substitution must still rewrite. *)
  let materialize t ~(open_ : (named_instr list * terminator) option) ~(rest : block list) :
      func =
    let fix_ni ni =
      match ni.name with
      | Some n when Hashtbl.mem t.deleted n -> None
      | _ -> Some { ni with instr = map_instr_operands (resolve t) ni.instr }
    in
    let fix_term term = map_terminator_operands (resolve t) term in
    let fix_block b =
      { b with instrs = List.filter_map fix_ni b.instrs; term = fix_term b.term }
    in
    let done_ = List.rev_map fix_block t.done_blocks in
    let cur =
      match open_ with
      | None -> []
      | Some (queue, term) ->
        [
          {
            label = t.cur_label;
            instrs =
              List.filter_map fix_ni (List.rev t.cur_rev) @ List.filter_map fix_ni queue;
            term = fix_term term;
          };
        ]
    in
    { t.src with blocks = done_ @ cur @ List.map fix_block rest }
end
