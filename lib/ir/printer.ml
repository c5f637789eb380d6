(** Textual form of the IR, deliberately close to LLVM's `.ll` syntax so that
    outputs read like the paper's figures and round-trip through the parser. *)

open Ast

let pp_const ppf = function
  | CInt { width = 1; value } -> Fmt.string ppf (if value = 1L then "true" else "false")
  | CInt { width; value } -> Fmt.pf ppf "%Ld" (Bits.to_signed width value)
  | CNull -> Fmt.string ppf "null"
  | CUndef _ -> Fmt.string ppf "undef"
  | CPoison _ -> Fmt.string ppf "poison"

let pp_operand ppf = function
  | Var v -> Fmt.pf ppf "%%%s" v
  | Const c -> pp_const ppf c
  | Global g -> Fmt.pf ppf "@%s" g

let pp_typed_operand ppf (ty, op) = Fmt.pf ppf "%a %a" Types.pp ty pp_operand op

let pp_flags op ppf { nsw; nuw; exact } =
  (match op with
  | Add | Sub | Mul | Shl ->
    if nuw then Fmt.string ppf " nuw";
    if nsw then Fmt.string ppf " nsw"
  | UDiv | SDiv | LShr | AShr -> if exact then Fmt.string ppf " exact"
  | URem | SRem | And | Or | Xor -> ())

let pp_instr ppf { name; instr } =
  (match name with Some n -> Fmt.pf ppf "%%%s = " n | None -> ());
  match instr with
  | Binop { op; flags; ty; lhs; rhs } ->
    Fmt.pf ppf "%s%a %a %a, %a" (string_of_binop op) (pp_flags op) flags Types.pp ty pp_operand
      lhs pp_operand rhs
  | Icmp { pred; ty; lhs; rhs } ->
    Fmt.pf ppf "icmp %s %a %a, %a" (string_of_icmp_pred pred) Types.pp ty pp_operand lhs
      pp_operand rhs
  | Select { ty; cond; if_true; if_false } ->
    Fmt.pf ppf "select i1 %a, %a %a, %a %a" pp_operand cond Types.pp ty pp_operand if_true
      Types.pp ty pp_operand if_false
  | Cast { op; src_ty; value; dst_ty } ->
    Fmt.pf ppf "%s %a %a to %a" (string_of_cast_op op) Types.pp src_ty pp_operand value Types.pp
      dst_ty
  | Alloca { ty; align } -> Fmt.pf ppf "alloca %a, align %d" Types.pp ty align
  | Load { ty; ptr; align } ->
    Fmt.pf ppf "load %a, ptr %a, align %d" Types.pp ty pp_operand ptr align
  | Store { ty; value; ptr; align } ->
    Fmt.pf ppf "store %a %a, ptr %a, align %d" Types.pp ty pp_operand value pp_operand ptr align
  | Gep { base_ty; ptr; indices; inbounds } ->
    Fmt.pf ppf "getelementptr%s %a, ptr %a%a"
      (if inbounds then " inbounds" else "")
      Types.pp base_ty pp_operand ptr
      Fmt.(list ~sep:nop (fun ppf x -> pf ppf ", %a" pp_typed_operand x))
      indices
  | Phi { ty; incoming } ->
    let pp_inc ppf (op, l) = Fmt.pf ppf "[ %a, %%%s ]" pp_operand op l in
    Fmt.pf ppf "phi %a %a" Types.pp ty Fmt.(list ~sep:(any ", ") pp_inc) incoming
  | Call { ret_ty; callee; args } ->
    Fmt.pf ppf "call %a @%s(%a)" Types.pp ret_ty callee
      Fmt.(list ~sep:(any ", ") pp_typed_operand)
      args
  | Freeze { ty; value } -> Fmt.pf ppf "freeze %a %a" Types.pp ty pp_operand value

let pp_terminator ppf = function
  | Ret None -> Fmt.string ppf "ret void"
  | Ret (Some (ty, v)) -> Fmt.pf ppf "ret %a %a" Types.pp ty pp_operand v
  | Br l -> Fmt.pf ppf "br label %%%s" l
  | CondBr { cond; if_true; if_false } ->
    Fmt.pf ppf "br i1 %a, label %%%s, label %%%s" pp_operand cond if_true if_false
  | Switch { ty; value; default; cases } ->
    let pp_case ppf (v, l) = Fmt.pf ppf "%a %Ld, label %%%s" Types.pp ty v l in
    Fmt.pf ppf "switch %a %a, label %%%s [ %a ]" Types.pp ty pp_operand value default
      Fmt.(list ~sep:(any " ") pp_case)
      cases
  | Unreachable -> Fmt.string ppf "unreachable"

let pp_block ppf { label; instrs; term } =
  Fmt.pf ppf "%s:@\n" label;
  List.iter (fun i -> Fmt.pf ppf "  %a@\n" pp_instr i) instrs;
  Fmt.pf ppf "  %a@\n" pp_terminator term

let pp_func ppf f =
  let pp_param ppf (ty, v) = Fmt.pf ppf "%a %%%s" Types.pp ty v in
  Fmt.pf ppf "define %a @%s(%a) {@\n" Types.pp f.ret_ty f.fname
    Fmt.(list ~sep:(any ", ") pp_param)
    f.params;
  (* The entry block label is printed too: keeps parsing uniform. *)
  List.iter (pp_block ppf) f.blocks;
  Fmt.pf ppf "}@\n"

let pp_global ppf (g : global) =
  Fmt.pf ppf "@%s = global %a %Ld@\n" g.gname Types.pp g.gty g.init

let pp_decl ppf (d : decl) =
  Fmt.pf ppf "declare%s %a @%s(%a)@\n"
    (if d.pure then " readnone" else "")
    Types.pp d.dret_ty d.dname
    Fmt.(list ~sep:(any ", ") Types.pp)
    d.dparams

let pp_module ppf (m : modul) =
  List.iter (pp_global ppf) m.globals;
  List.iter (pp_decl ppf) m.decls;
  List.iter (fun f -> pp_func ppf f) m.funcs

let func_to_string f = Fmt.str "%a" pp_func f
let module_to_string m = Fmt.str "%a" pp_module m
