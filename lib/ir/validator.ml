(** IR well-formedness checker: type rules + SSA dominance.

    Model output that parses but fails here is still "invalid IR" in the
    paper's Table I/II sense, so the checks are deliberately strict and the
    messages are written to be useful as training diagnostics. *)

open Ast
module SMap = Map.Make (String)

type error = string

let check_operand_type env ~what (expected : Types.t) (op : operand) : error list =
  match op with
  | Var v -> (
    match SMap.find_opt v env with
    | None -> [ Fmt.str "%s: use of undefined value %%%s" what v ]
    | Some t when Types.equal t expected -> []
    | Some t ->
      [ Fmt.str "%s: %%%s has type %s but %s was expected" what v (Types.to_string t)
          (Types.to_string expected) ])
  | Const (CInt { width; _ }) -> (
    match expected with
    | Types.Int w when w = width -> []
    | _ -> [ Fmt.str "%s: i%d constant used where %s expected" what width (Types.to_string expected) ])
  | Const CNull | Global _ ->
    if Types.equal expected Types.Ptr then []
    else [ Fmt.str "%s: pointer constant used where %s expected" what (Types.to_string expected) ]
  | Const (CUndef t) | Const (CPoison t) ->
    if Types.equal t expected then []
    else
      [ Fmt.str "%s: undef/poison of type %s used where %s expected" what (Types.to_string t)
          (Types.to_string expected) ]

let check_instr env ~what (i : instr) : error list =
  let op = check_operand_type env ~what in
  match i with
  | Binop { ty; lhs; rhs; _ } ->
    (if Types.is_integer ty then [] else [ Fmt.str "%s: binop at non-integer type" what ])
    @ op ty lhs @ op ty rhs
  | Icmp { ty; lhs; rhs; _ } ->
    (match ty with
    | Types.Int _ | Types.Ptr -> []
    | _ -> [ Fmt.str "%s: icmp at non-integer, non-pointer type" what ])
    @ op ty lhs @ op ty rhs
  | Select { ty; cond; if_true; if_false } ->
    (if Types.is_first_class ty then [] else [ Fmt.str "%s: select of non-first-class type" what ])
    @ op Types.i1 cond @ op ty if_true @ op ty if_false
  | Cast { op = cop; src_ty; value; dst_ty } ->
    let structural =
      match (cop, src_ty, dst_ty) with
      | Trunc, Types.Int a, Types.Int b when a > b -> []
      | (ZExt | SExt), Types.Int a, Types.Int b when a < b -> []
      | PtrToInt, Types.Ptr, Types.Int _ -> []
      | IntToPtr, Types.Int _, Types.Ptr -> []
      | Bitcast, Types.Int a, Types.Int b when a = b -> []
      | Bitcast, Types.Ptr, Types.Ptr -> []
      | _ ->
        [ Fmt.str "%s: invalid %s from %s to %s" what (string_of_cast_op cop)
            (Types.to_string src_ty) (Types.to_string dst_ty) ]
    in
    structural @ op src_ty value
  | Alloca { ty; align } ->
    (if Types.size_in_bytes ty > 0 then [] else [ Fmt.str "%s: alloca of empty type" what ])
    @ if align >= 1 then [] else [ Fmt.str "%s: invalid alignment" what ]
  | Load { ty; ptr; _ } ->
    (if Types.is_first_class ty then [] else [ Fmt.str "%s: load of non-first-class type" what ])
    @ op Types.Ptr ptr
  | Store { ty; value; ptr; _ } ->
    (if Types.is_first_class ty then [] else [ Fmt.str "%s: store of non-first-class type" what ])
    @ op ty value @ op Types.Ptr ptr
  | Gep { ptr; indices; _ } ->
    op Types.Ptr ptr
    @ List.concat_map
        (fun (t, o) ->
          match t with
          | Types.Int _ -> op t o
          | _ -> [ Fmt.str "%s: gep index of non-integer type" what ])
        indices
  | Phi { ty; incoming } ->
    (if incoming = [] then [ Fmt.str "%s: phi with no incoming values" what ] else [])
    @ List.concat_map (fun (o, _) -> op ty o) incoming
  | Call _ -> [] (* checked against declarations separately *)
  | Freeze { ty; value } -> op ty value

let check_terminator env ~what ~labels (t : terminator) : error list =
  let op = check_operand_type env ~what in
  let target l =
    if List.mem l labels then [] else [ Fmt.str "%s: branch to unknown block %%%s" what l ]
  in
  match t with
  | Ret None -> []
  | Ret (Some (ty, v)) -> op ty v
  | Br l -> target l
  | CondBr { cond; if_true; if_false } -> op Types.i1 cond @ target if_true @ target if_false
  | Switch { ty; value; default; cases } ->
    op ty value @ target default @ List.concat_map (fun (_, l) -> target l) cases
  | Unreachable -> []

(* Collect the set of definitions; duplicate names are an SSA violation. *)
let collect_defs (f : func) : Types.t SMap.t * error list =
  let errors = ref [] in
  let env = ref SMap.empty in
  let define name ty where =
    if SMap.mem name !env then
      errors := Fmt.str "%s: multiple definitions of %%%s" where name :: !errors
    else env := SMap.add name ty !env
  in
  List.iter (fun (ty, v) -> define v ty "parameters") f.params;
  List.iter
    (fun b ->
      List.iter
        (fun { name; instr } ->
          match (name, instr_result_type instr) with
          | Some n, Some ty -> define n ty ("block %" ^ b.label)
          | Some n, None ->
            errors := Fmt.str "block %%%s: %%%s names a void instruction" b.label n :: !errors
          | None, Some _ -> (
            match instr with
            | Call _ -> () (* discarding a call result is fine *)
            | _ -> errors := Fmt.str "block %%%s: unnamed instruction result" b.label :: !errors)
          | None, None -> ())
        b.instrs)
    f.blocks;
  (!env, List.rev !errors)

(* def site of each variable: block label and instruction index; parameters
   are index -1 in the entry block. *)
let def_sites (f : func) =
  let sites = Hashtbl.create 32 in
  let entry = (entry_block f).label in
  List.iter (fun (_, v) -> Hashtbl.replace sites v (entry, -1)) f.params;
  List.iter
    (fun b ->
      List.iteri
        (fun i { name; _ } ->
          match name with Some n -> Hashtbl.replace sites n (b.label, i) | None -> ())
        b.instrs)
    f.blocks;
  sites

let check_dominance (f : func) (cfg : Cfg.t) : error list =
  let sites = def_sites f in
  let errors = ref [] in
  let dominates_use ~def_block ~def_index ~use_block ~use_index =
    if def_block = use_block then def_index < use_index
    else Cfg.is_reachable cfg def_block && Cfg.is_reachable cfg use_block
         && Cfg.dominates cfg def_block use_block
  in
  let check_use ~use_block ~use_index ~what op =
    match op with
    | Var v -> (
      match Hashtbl.find_opt sites v with
      | None -> () (* reported as undefined by type checking *)
      | Some (def_block, def_index) ->
        if
          Cfg.is_reachable cfg use_block
          && not (dominates_use ~def_block ~def_index ~use_block ~use_index)
        then errors := Fmt.str "%s: definition of %%%s does not dominate this use" what v :: !errors)
    | Const _ | Global _ -> ()
  in
  List.iter
    (fun b ->
      List.iteri
        (fun i { instr; name } ->
          let what =
            Fmt.str "block %%%s%s" b.label
              (match name with Some n -> ", %" ^ n | None -> "")
          in
          match instr with
          | Phi { incoming; _ } ->
            (* A phi use must dominate the end of the incoming block. *)
            List.iter
              (fun (op, from) ->
                match op with
                | Var v -> (
                  match Hashtbl.find_opt sites v with
                  | None -> ()
                  | Some (def_block, _) ->
                    if
                      Cfg.is_reachable cfg from
                      && not
                           (def_block = from
                           || (Cfg.is_reachable cfg def_block && Cfg.dominates cfg def_block from))
                    then
                      errors :=
                        Fmt.str "%s: phi incoming %%%s does not dominate predecessor %%%s" what v
                          from
                        :: !errors)
                | Const _ | Global _ -> ())
              incoming
          | _ ->
            List.iter (check_use ~use_block:b.label ~use_index:i ~what) (operands_of_instr instr))
        b.instrs;
      List.iter
        (check_use ~use_block:b.label ~use_index:max_int ~what:(Fmt.str "block %%%s terminator" b.label))
        (operands_of_terminator b.term))
    f.blocks;
  List.rev !errors

let check_phi_placement (f : func) (cfg : Cfg.t) : error list =
  let errors = ref [] in
  List.iter
    (fun b ->
      (* phis must be a prefix of the block *)
      let seen_non_phi = ref false in
      List.iter
        (fun { instr; _ } ->
          match instr with
          | Phi { incoming; _ } ->
            if !seen_non_phi then
              errors := Fmt.str "block %%%s: phi after non-phi instruction" b.label :: !errors;
            if Cfg.is_reachable cfg b.label then (
              let preds = List.sort_uniq compare (Cfg.predecessors cfg b.label) in
              let froms = List.sort_uniq compare (List.map snd incoming) in
              if preds <> froms then
                errors :=
                  Fmt.str "block %%%s: phi incoming blocks {%s} do not match predecessors {%s}"
                    b.label (String.concat ", " froms) (String.concat ", " preds)
                  :: !errors)
          | _ -> seen_non_phi := true)
        b.instrs)
    f.blocks;
  (match f.blocks with
  | b :: _ ->
    List.iter
      (fun { instr; _ } ->
        match instr with
        | Phi _ -> errors := "entry block must not contain phi instructions" :: !errors
        | _ -> ())
      b.instrs
  | [] -> errors := "function has no blocks" :: !errors);
  List.rev !errors

let check_calls (m : modul option) (f : func) : error list =
  match m with
  | None -> []
  | Some m ->
    List.concat_map
      (fun b ->
        List.concat_map
          (fun { instr; _ } ->
            match instr with
            | Call { ret_ty; callee; args } -> (
              match (find_decl m callee, find_func m callee) with
              | None, None -> [ Fmt.str "call to undeclared function @%s" callee ]
              | Some d, _ ->
                (if Types.equal d.dret_ty ret_ty then []
                 else [ Fmt.str "call to @%s: return type mismatch" callee ])
                @
                if List.length d.dparams <> List.length args then
                  [ Fmt.str "call to @%s: arity mismatch" callee ]
                else
                  List.concat
                    (List.map2
                       (fun dt (at, _) ->
                         if Types.equal dt at then []
                         else [ Fmt.str "call to @%s: argument type mismatch" callee ])
                       d.dparams args)
              | None, Some g ->
                if Types.equal g.ret_ty ret_ty && List.length g.params = List.length args then []
                else [ Fmt.str "call to @%s: signature mismatch" callee ])
            | _ -> [])
          b.instrs)
      f.blocks

(** Validate a function.  [module_] supplies call-target signatures and
    global names when available. *)
let validate_func ?module_ (f : func) : (unit, error list) result =
  if f.blocks = [] then Error [ "function has no blocks" ]
  else
    let labels = List.map (fun b -> b.label) f.blocks in
    let dup_labels =
      List.filter (fun l -> List.length (List.filter (( = ) l) labels) > 1) labels
      |> List.sort_uniq compare
    in
    if dup_labels <> [] then
      Error (List.map (fun l -> Fmt.str "duplicate block label %%%s" l) dup_labels)
    else
      let env, def_errors = collect_defs f in
      let ret_errors =
        List.concat_map
          (fun b ->
            match (b.term, f.ret_ty) with
            | Ret None, Types.Void -> []
            | Ret None, _ -> [ Fmt.str "block %%%s: ret void in non-void function" b.label ]
            | Ret (Some (ty, _)), rt when not (Types.equal ty rt) ->
              [ Fmt.str "block %%%s: ret type does not match function type" b.label ]
            | _ -> [])
          f.blocks
      in
      let type_errors =
        List.concat_map
          (fun b ->
            List.concat_map
              (fun { name; instr } ->
                let what =
                  Fmt.str "block %%%s%s" b.label
                    (match name with Some n -> ", %" ^ n | None -> "")
                in
                check_instr env ~what instr)
              b.instrs
            @ check_terminator env ~what:(Fmt.str "block %%%s terminator" b.label) ~labels b.term)
          f.blocks
      in
      let structural = def_errors @ ret_errors @ type_errors in
      if structural <> [] then Error structural
      else
        let cfg = Cfg.of_func f in
        let errors =
          check_phi_placement f cfg @ check_dominance f cfg @ check_calls module_ f
        in
        if errors = [] then Ok () else Error errors
