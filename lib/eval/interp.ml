(** Concrete interpreter for the IR subset.

    Implements the LLVM semantics our verifier encodes symbolically: poison
    propagation, UB detection (division traps, memory errors, branch on
    poison), byte-addressed memory for allocas and globals, and an observable
    trace of impure calls.  Differential agreement between this interpreter
    and the SMT encoding is one of the test suite's core properties. *)

open Veriopt_ir
open Ast

type value =
  | VInt of { width : int; v : int64 } (* canonical: masked *)
  | VPtr of { base : int; offset : int }
  | VPoison

exception Undefined_behavior of string
exception Out_of_fuel

let ub fmt = Fmt.kstr (fun s -> raise (Undefined_behavior s)) fmt

type allocation = { bytes : Bytes.t; poisoned : bool array }

type state = {
  modul : modul;
  locals : (var, value) Hashtbl.t;
      (* latest binding wins, as in SSA re-execution of a loop body; a
         hashtable keeps lookup O(1) where an assoc list would make long
         loops quadratic in trip count *)
  allocations : (int, allocation) Hashtbl.t;
  global_base : (gname, int) Hashtbl.t;
  mutable next_base : int;
  mutable calls : (gname * value list) list; (* impure-call trace, reversed *)
  mutable fuel : int;
}

let vint width v = VInt { width; v = Bits.mask width v }

let default_undef ty =
  match ty with Types.Int w -> vint w 0L | Types.Ptr -> VPtr { base = 0; offset = 0 } | _ -> VPoison

(* A deterministic pseudo-random pure function of the callee name and
   arguments: both sides of an equivalence check observe the same world. *)
let default_external name args ret_ty =
  match ret_ty with
  | Types.Void -> VPoison (* unused *)
  | Types.Int w ->
    let h = Hashtbl.hash (name, List.map (function VInt { v; _ } -> v | _ -> 0L) args) in
    vint w (Int64.of_int h)
  | _ -> VPtr { base = 0; offset = 0 }

let alloc state ty =
  let size = max 1 (Types.size_in_bytes ty) in
  let base = state.next_base in
  state.next_base <- base + 1;
  Hashtbl.replace state.allocations base
    { bytes = Bytes.make size '\000'; poisoned = Array.make size false };
  VPtr { base; offset = 0 }

let create ~fuel (modul : modul) : state =
  let state =
    {
      modul;
      locals = Hashtbl.create 64;
      allocations = Hashtbl.create 16;
      global_base = Hashtbl.create 4;
      next_base = 1;
      calls = [];
      fuel;
    }
  in
  List.iter
    (fun (g : global) ->
      match alloc state g.gty with
      | VPtr { base; _ } ->
        Hashtbl.replace state.global_base g.gname base;
        let a = Hashtbl.find state.allocations base in
        let size = Types.size_in_bytes g.gty in
        for i = 0 to min size 8 - 1 do
          Bytes.set a.bytes i (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical g.init (8 * i)) 0xffL)))
        done
      | _ -> assert false)
    modul.globals;
  state

let lookup state v =
  match Hashtbl.find_opt state.locals v with
  | Some value -> value
  | None -> ub "use of undefined value %%%s" v

let eval_const = function
  | CInt { width; value } -> vint width value
  | CNull -> VPtr { base = 0; offset = 0 }
  | CUndef ty -> default_undef ty
  | CPoison _ -> VPoison

let eval_operand state ?ty op =
  ignore ty;
  match op with
  | Var v -> lookup state v
  | Const c -> eval_const c
  | Global g -> (
    match Hashtbl.find_opt state.global_base g with
    | Some base -> VPtr { base; offset = 0 }
    | None -> ub "unknown global @%s" g)

let as_int = function
  | VInt { width; v } -> (width, v)
  | VPtr _ -> ub "pointer used as integer"
  | VPoison -> ub "unexpected poison operand" (* callers catch poison first *)

let load_int state ~width ~base ~offset =
  if base = 0 then ub "load from null pointer";
  match Hashtbl.find_opt state.allocations base with
  | None -> ub "load from invalid pointer"
  | Some a ->
    let size = (width + 7) / 8 in
    if offset < 0 || offset + size > Bytes.length a.bytes then ub "out-of-bounds load";
    let poisoned = ref false in
    let v = ref 0L in
    for i = size - 1 downto 0 do
      if a.poisoned.(offset + i) then poisoned := true;
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get a.bytes (offset + i))))
    done;
    if !poisoned then VPoison else vint width !v

let store_int state ~width ~base ~offset ~value ~poison =
  if base = 0 then ub "store to null pointer";
  match Hashtbl.find_opt state.allocations base with
  | None -> ub "store to invalid pointer"
  | Some a ->
    let size = (width + 7) / 8 in
    if offset < 0 || offset + size > Bytes.length a.bytes then ub "out-of-bounds store";
    for i = 0 to size - 1 do
      a.poisoned.(offset + i) <- poison;
      Bytes.set a.bytes (offset + i)
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical value (8 * i)) 0xffL)))
    done


(* Pointers in memory: we encode VPtr as a 64-bit integer [base * 2^32 + offset]
   and remember nothing else; this supports the -O0 pattern of spilling
   pointers to allocas. *)
let encode_ptr base offset = Int64.logor (Int64.shift_left (Int64.of_int base) 32) (Int64.of_int (offset land 0xffffffff))

let decode_ptr v =
  (Int64.to_int (Int64.shift_right_logical v 32), Int64.to_int (Int64.logand v 0xffffffffL))

let eval_binop op flags w a b =
  let open Bits in
  let check_poison_flags result =
    if
      (flags.nsw
      &&
      match op with
      | Add -> add_nsw_overflow w a b
      | Sub -> sub_nsw_overflow w a b
      | Mul -> mul_nsw_overflow w a b
      | Shl -> shl_nsw_overflow w a b
      | _ -> false)
      || (flags.nuw
         &&
         match op with
         | Add -> add_nuw_overflow w a b
         | Sub -> sub_nuw_overflow w a b
         | Mul -> mul_nuw_overflow w a b
         | Shl -> shl_nuw_overflow w a b
         | _ -> false)
      || (flags.exact
         &&
         match op with
         | UDiv -> udiv_exact_violation w a b
         | SDiv -> sdiv_exact_violation w a b
         | LShr -> lshr_exact_violation w a b
         | AShr -> ashr_exact_violation w a b
         | _ -> false)
    then VPoison
    else result
  in
  match op with
  | Add -> check_poison_flags (vint w (add w a b))
  | Sub -> check_poison_flags (vint w (sub w a b))
  | Mul -> check_poison_flags (vint w (mul w a b))
  | UDiv ->
    if b = 0L then ub "udiv by zero";
    check_poison_flags (vint w (udiv w a b))
  | SDiv ->
    if b = 0L then ub "sdiv by zero";
    if sdiv_overflow w a b then ub "sdiv overflow";
    check_poison_flags (vint w (sdiv w a b))
  | URem ->
    if b = 0L then ub "urem by zero";
    vint w (urem w a b)
  | SRem ->
    if b = 0L then ub "srem by zero";
    if sdiv_overflow w a b then ub "srem overflow";
    vint w (srem w a b)
  | Shl -> if shift_amount_poison w b then VPoison else check_poison_flags (vint w (shl w a b))
  | LShr -> if shift_amount_poison w b then VPoison else check_poison_flags (vint w (lshr w a b))
  | AShr -> if shift_amount_poison w b then VPoison else check_poison_flags (vint w (ashr w a b))
  | And -> vint w (logand w a b)
  | Or -> vint w (logor w a b)
  | Xor -> vint w (logxor w a b)

let rec gep_offset state base_ty (indices : (Types.t * operand) list) : int option =
  (* Returns None if any index is poison. *)
  match indices with
  | [] -> Some 0
  | (_, op) :: rest -> (
    match eval_operand state op with
    | VPoison -> None
    | VPtr _ -> ub "pointer used as gep index"
    | VInt { width; v } -> (
      let i = Int64.to_int (Bits.to_signed width v) in
      let elem_size, next_ty =
        match base_ty with
        | Types.Array (_, t) -> (Types.size_in_bytes t, t)
        | Types.Struct ts ->
          if i < 0 || i >= List.length ts then ub "struct gep index out of range";
          (Types.struct_field_offset ts i, List.nth ts i)
        | t -> (Types.size_in_bytes t, t)
      in
      let here =
        match base_ty with Types.Struct _ -> elem_size | _ -> i * elem_size
      in
      match gep_offset state next_ty rest with
      | None -> None
      | Some rest_off -> Some (here + rest_off)))

type outcome = {
  ret : value option;
  call_trace : (gname * value list) list;
  globals_final : (gname * value) list; (* observable memory at return *)
  steps : int; (* dynamic instructions executed: a latency proxy for tests *)
}

(* Divergence detection.  What a run does from a block entry on is a
   function of the state there: the block, its predecessor (which the phis
   read), the locals, the allocations and [next_base].  Calls to externals
   and undef are pure functions of their arguments, and the call trace is
   only ever written.  So a state that repeats at a block entry repeats
   forever, the run can never return, and raising [Out_of_fuel] there is
   exactly what spending the rest of the fuel would do.  Brent's algorithm
   finds the repeat: past [detect_after] steps, snapshot the state at
   power-of-two block-entry counts and compare every later entry with the
   snapshot, the cheap fields first. *)

let detect_after = 1024

type snapshot = {
  s_block : block;
  s_from : label option;
  s_next_base : int;
  s_locals : (var * value) array;
  s_allocations : (int * allocation) array;
}

let snapshot state block from =
  {
    s_block = block;
    s_from = from;
    s_next_base = state.next_base;
    s_locals = Array.of_seq (Hashtbl.to_seq state.locals);
    s_allocations =
      Array.of_seq
        (Seq.map
           (fun (base, a) ->
             (base, { bytes = Bytes.copy a.bytes; poisoned = Array.copy a.poisoned }))
           (Hashtbl.to_seq state.allocations));
  }

let equal_value a b =
  match (a, b) with
  | VInt a, VInt b -> a.width = b.width && Int64.equal a.v b.v
  | VPtr a, VPtr b -> a.base = b.base && a.offset = b.offset
  | VPoison, VPoison -> true
  | _ -> false

(* Locals only grow and allocations only come from [alloc], which bumps
   [next_base], so equal sizes plus equal snapshot bindings mean equal
   states.  [hint] is the local that differed last time: in a loop that
   makes progress it differs again, so a miss costs one lookup. *)
let repeats state s block from hint =
  let local_differs i =
    let v, x = s.s_locals.(i) in
    match Hashtbl.find_opt state.locals v with Some y -> not (equal_value x y) | None -> true
  in
  let rec locals_equal i =
    i >= Array.length s.s_locals
    || if local_differs i then (hint := i; false) else locals_equal (i + 1)
  in
  s.s_block == block
  && Option.equal String.equal s.s_from from
  && s.s_next_base = state.next_base
  && Hashtbl.length state.locals = Array.length s.s_locals
  && (!hint >= Array.length s.s_locals || not (local_differs !hint))
  && locals_equal 0
  && Array.for_all
       (fun (base, a) ->
         let b = Hashtbl.find state.allocations base in
         Bytes.equal a.bytes b.bytes && a.poisoned = b.poisoned)
       s.s_allocations

let run ?(fuel = 100_000) (modul : modul) (f : func) (args : value list) : outcome =
  let state = create ~fuel modul in
  if List.length args <> List.length f.params then ub "wrong number of arguments";
  List.iter2 (fun (_, v) a -> Hashtbl.replace state.locals v a) f.params args;
  let steps = ref 0 in
  let set name v = Hashtbl.replace state.locals name v in
  let current = ref (entry_block f) in
  let previous = ref None in
  let result = ref None in
  let finished = ref false in
  let entries = ref 0 and snap = ref None and hint = ref 0 in
  while not !finished do
    let b = !current in
    if !steps >= detect_after then begin
      (match !snap with
      | Some s when repeats state s b !previous hint -> raise Out_of_fuel
      | _ -> ());
      incr entries;
      if !entries land (!entries - 1) = 0 then begin
        snap := Some (snapshot state b !previous);
        hint := 0
      end
    end;
    (* Phis read their incoming values simultaneously. *)
    let phi_values =
      List.filter_map
        (fun { name; instr } ->
          match (name, instr) with
          | Some n, Phi { incoming; ty } -> (
            match !previous with
            | None -> ub "phi in entry block"
            | Some from -> (
              match List.assoc_opt from (List.map (fun (o, l) -> (l, o)) incoming) with
              | None -> ub "phi has no incoming value for predecessor %%%s" from
              | Some op -> Some (n, eval_operand state ~ty op)))
          | _ -> None)
        b.instrs
    in
    List.iter (fun (n, v) -> set n v) phi_values;
    List.iter
      (fun { name; instr } ->
        state.fuel <- state.fuel - 1;
        if state.fuel <= 0 then raise Out_of_fuel;
        incr steps;
        match instr with
        | Phi _ -> ()
        | Binop { op; flags; ty; lhs; rhs } -> (
          let w = Types.width ty in
          let lv = eval_operand state ~ty lhs and rv = eval_operand state ~ty rhs in
          (* a poison divisor could be zero: immediate UB, as in Alive2 *)
          (match (op, rv) with
          | (UDiv | SDiv | URem | SRem), VPoison -> ub "division by poison divisor"
          | _ -> ());
          match (lv, rv) with
          | VPoison, _ | _, VPoison -> set (Option.get name) VPoison
          | a, b ->
            let _, av = as_int a and _, bv = as_int b in
            set (Option.get name) (eval_binop op flags w av bv))
        | Icmp { pred; ty; lhs; rhs } -> (
          match (eval_operand state ~ty lhs, eval_operand state ~ty rhs) with
          | VPoison, _ | _, VPoison -> set (Option.get name) VPoison
          | VPtr p1, VPtr p2 ->
            (* Pointer comparison on our flat encoding. *)
            let v1 = encode_ptr p1.base p1.offset and v2 = encode_ptr p2.base p2.offset in
            set (Option.get name) (vint 1 (if eval_icmp pred 64 v1 v2 then 1L else 0L))
          | a, b ->
            let w, av = as_int a and _, bv = as_int b in
            set (Option.get name) (vint 1 (if eval_icmp pred w av bv then 1L else 0L)))
        | Select { ty; cond; if_true; if_false } -> (
          match eval_operand state ~ty:Types.i1 cond with
          | VPoison -> set (Option.get name) VPoison
          | VInt { v; _ } ->
            let chosen = if v = 1L then if_true else if_false in
            set (Option.get name) (eval_operand state ~ty chosen)
          | VPtr _ -> ub "pointer used as select condition")
        | Cast { op; src_ty; value; dst_ty } -> (
          match eval_operand state ~ty:src_ty value with
          | VPoison -> set (Option.get name) VPoison
          | v -> (
            match (op, v) with
            | Trunc, VInt { width; v } ->
              set (Option.get name) (vint (Types.width dst_ty) (Bits.trunc width (Types.width dst_ty) v))
            | ZExt, VInt { width; v } ->
              set (Option.get name) (vint (Types.width dst_ty) (Bits.zext width (Types.width dst_ty) v))
            | SExt, VInt { width; v } ->
              set (Option.get name) (vint (Types.width dst_ty) (Bits.sext width (Types.width dst_ty) v))
            | PtrToInt, VPtr { base; offset } ->
              set (Option.get name) (vint (Types.width dst_ty) (Bits.mask (Types.width dst_ty) (encode_ptr base offset)))
            | IntToPtr, VInt { v; _ } ->
              let base, offset = decode_ptr v in
              set (Option.get name) (VPtr { base; offset })
            | Bitcast, v -> set (Option.get name) v
            | _ -> ub "invalid cast operand"))
        | Alloca { ty; _ } -> set (Option.get name) (alloc state ty)
        | Load { ty; ptr; _ } -> (
          match eval_operand state ~ty:Types.Ptr ptr with
          | VPoison -> ub "load from poison pointer"
          | VInt _ -> ub "load from non-pointer"
          | VPtr { base; offset } -> (
            match ty with
            | Types.Int w -> set (Option.get name) (load_int state ~width:w ~base ~offset)
            | Types.Ptr -> (
              match load_int state ~width:64 ~base ~offset with
              | VPoison -> set (Option.get name) VPoison
              | VInt { v; _ } ->
                let b, o = decode_ptr v in
                set (Option.get name) (VPtr { base = b; offset = o })
              | VPtr _ -> assert false)
            | _ -> ub "load of aggregate type"))
        | Store { ty; value; ptr; _ } -> (
          match eval_operand state ~ty:Types.Ptr ptr with
          | VPoison -> ub "store to poison pointer"
          | VInt _ -> ub "store to non-pointer"
          | VPtr { base; offset } -> (
            match eval_operand state ~ty value with
            | VPoison -> (
              match ty with
              | Types.Int w -> store_int state ~width:w ~base ~offset ~value:0L ~poison:true
              | Types.Ptr -> store_int state ~width:64 ~base ~offset ~value:0L ~poison:true
              | _ -> ub "store of aggregate type")
            | VInt { width; v } -> store_int state ~width ~base ~offset ~value:v ~poison:false
            | VPtr p ->
              store_int state ~width:64 ~base ~offset ~value:(encode_ptr p.base p.offset)
                ~poison:false))
        | Gep { base_ty; ptr; indices; inbounds } -> (
          match eval_operand state ~ty:Types.Ptr ptr with
          | VPoison -> set (Option.get name) VPoison
          | VInt _ -> ub "gep on non-pointer"
          | VPtr { base; offset } -> (
            match gep_offset state base_ty indices with
            | None -> set (Option.get name) VPoison
            | Some delta ->
              let offset' = offset + delta in
              if inbounds && base <> 0 then (
                match Hashtbl.find_opt state.allocations base with
                | Some a when offset' >= 0 && offset' <= Bytes.length a.bytes ->
                  set (Option.get name) (VPtr { base; offset = offset' })
                | _ -> set (Option.get name) VPoison)
              else set (Option.get name) (VPtr { base; offset = offset' })))
        | Call { ret_ty; callee; args } -> (
          let arg_values = List.map (fun (ty, o) -> eval_operand state ~ty o) args in
          if List.exists (fun v -> v = VPoison) arg_values then ub "poison passed to call";
          let pure =
            match find_decl state.modul callee with Some d -> d.pure | None -> false
          in
          if not pure then state.calls <- (callee, arg_values) :: state.calls;
          let result = default_external callee arg_values ret_ty in
          match (name, ret_ty) with
          | Some n, Types.Void -> ub "named void call %%%s" n
          | Some n, _ -> set n result
          | None, _ -> ())
        | Freeze { ty; value } -> (
          match eval_operand state ~ty value with
          | VPoison -> set (Option.get name) (default_undef ty)
          | v -> set (Option.get name) v))
      b.instrs;
    state.fuel <- state.fuel - 1;
    if state.fuel <= 0 then raise Out_of_fuel;
    incr steps;
    let goto l =
      match find_block f l with
      | Some b' ->
        previous := Some b.label;
        current := b'
      | None -> ub "branch to unknown block %%%s" l
    in
    match b.term with
    | Ret None ->
      result := None;
      finished := true
    | Ret (Some (ty, v)) ->
      result := Some (eval_operand state ~ty v);
      finished := true
    | Br l -> goto l
    | CondBr { cond; if_true; if_false } -> (
      match eval_operand state ~ty:Types.i1 cond with
      | VPoison -> ub "branch on poison"
      | VInt { v; _ } -> goto (if v = 1L then if_true else if_false)
      | VPtr _ -> ub "branch on pointer")
    | Switch { value; default; cases; _ } -> (
      match eval_operand state value with
      | VPoison -> ub "switch on poison"
      | VInt { v; _ } -> (
        match List.assoc_opt v cases with Some l -> goto l | None -> goto default)
      | VPtr _ -> ub "switch on pointer")
    | Unreachable -> ub "reached 'unreachable'"
  done;
  let globals_final =
    List.filter_map
      (fun (g : global) ->
        match (g.gty, Hashtbl.find_opt state.global_base g.gname) with
        | Types.Int w, Some base -> Some (g.gname, load_int state ~width:w ~base ~offset:0)
        | _ -> None)
      modul.globals
  in
  { ret = !result; call_trace = List.rev state.calls; globals_final; steps = !steps }
