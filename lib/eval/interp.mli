(** Concrete interpreter for the IR subset, implementing the LLVM semantics
    the verifier encodes symbolically: poison propagation, UB detection,
    byte-addressed memory for allocas and globals, observable call traces. *)

open Veriopt_ir

type value =
  | VInt of { width : int; v : int64 }  (** canonical: masked *)
  | VPtr of { base : int; offset : int }
  | VPoison

exception Undefined_behavior of string
exception Out_of_fuel

val vint : int -> int64 -> value

type outcome = {
  ret : value option;
  call_trace : (Ast.gname * value list) list;
  globals_final : (Ast.gname * value) list;  (** observable memory at return *)
  steps : int;  (** dynamic instructions executed *)
}

val run : ?fuel:int -> Ast.modul -> Ast.func -> value list -> outcome
(** Execute a function on concrete arguments (default fuel 100k steps).
    Calls to externals return a fixed pure function of the callee and its
    arguments, and undef reads as zero, so a run is deterministic.
    @raise Undefined_behavior on UB (division traps, memory errors, branch
    on poison, ...)
    @raise Out_of_fuel when the step budget is exhausted, or earlier, once
    the run provably never returns: past its first 1,024 steps, a state
    (block, predecessor, locals, memory) that repeats at a block entry
    would repeat until the budget runs out.  A run that does return within
    its fuel is never cut short. *)
