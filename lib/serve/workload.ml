(** Deterministic hostile-mix query generation for serving-layer load tests. *)

open Veriopt_ir

type query = {
  w_label : string;
  w_m : Ast.modul;
  w_src : Ast.func;
  w_tgt : Ast.func;
  w_unroll : int option;
  w_max_conflicts : int option;
}

let parse_pair src_text tgt_text =
  let m = Parser.parse_module src_text in
  let src = List.hd m.Ast.funcs in
  let tgt = List.hd (Parser.parse_module tgt_text).Ast.funcs in
  (m, src, tgt)

(* Data-dependent-exit mul-accumulate loop (the iterative-deepening hostile shape):
   %z iterations of s <- (s * y) + k.  Commuting the mul keeps it
   equivalent; the verifier must re-prove commutativity per unrolled
   frame. *)
let chain_text w mul k =
  Fmt.str
    "define i%d @f(i%d %%x, i%d %%y, i%d %%z) {\nentry:\n  br label %%h\nh:\n  %%i = phi i%d [ \
     0, %%entry ], [ %%i2, %%b ]\n  %%s = phi i%d [ %%x, %%entry ], [ %%s2, %%b ]\n  %%c = \
     icmp eq i%d %%i, %%z\n  br i1 %%c, label %%x, label %%b\nb:\n  %%m = mul i%d %s\n  %%s2 = \
     add i%d %%m, %d\n  %%i2 = add i%d %%i, 1\n  br label %%h\nx:\n  ret i%d %%s\n}"
    w w w w w w w w mul w k w w

let chain_pair w k =
  parse_pair (chain_text w "%s, %y" k) (chain_text w "%y, %s" k)

(* Straight-line mul commutativity, salted with a trailing add constant so
   each index is a distinct query to the cache. *)
let mulc_text w op k =
  Fmt.str
    "define i%d @f(i%d %%x, i%d %%y) {\nentry:\n  %%m = mul i%d %s\n  %%r = add i%d %%m, \
     %d\n  ret i%d %%r\n}"
    w w w w op w k w

let mulc_pair w k = parse_pair (mulc_text w "%x, %y" k) (mulc_text w "%y, %x" k)

(* The solver-bound pair: three-variable mul reassociation.  [assoc_body]
   computes [%m = a*b*c], grouped to the left in the source and to the
   right in the target. *)
let assoc_body ~src w (a, b, c) =
  if src then Fmt.str "  %%t = mul i%d %%%s, %%%s\n  %%m = mul i%d %%t, %%%s\n" w a b w c
  else Fmt.str "  %%t = mul i%d %%%s, %%%s\n  %%m = mul i%d %%%s, %%t\n" w b c w a

let assoc_pair ?(delta = 0) w =
  let text ~src =
    let ret =
      if src || delta = 0 then Fmt.str "  ret i%d %%m\n" w
      else Fmt.str "  %%r = add i%d %%m, %d\n  ret i%d %%r\n" w delta w
    in
    Fmt.str "define i%d @f(i%d %%x, i%d %%y, i%d %%z) {\nentry:\n%s%s}" w w w w
      (assoc_body ~src w ("x", "y", "z"))
      ret
  in
  parse_pair (text ~src:true) (text ~src:false)

let assoc_chain_pair ?(src_k = 3) ?(tgt_k = 3) w =
  let text ~src k =
    Fmt.str
      "define i%d @f(i%d %%x, i%d %%y, i%d %%v, i%d %%z) {\nentry:\n  br label %%h\nh:\n  \
       %%i = phi i%d [ 0, %%entry ], [ %%i2, %%b ]\n  %%s = phi i%d [ %%x, %%entry ], [ %%s2, \
       %%b ]\n  %%c = icmp eq i%d %%i, %%z\n  br i1 %%c, label %%x, label %%b\nb:\n%s  %%s2 = \
       add i%d %%m, %d\n  %%i2 = add i%d %%i, 1\n  br label %%h\nx:\n  ret i%d %%s\n}"
      w w w w w w w w
      (assoc_body ~src w ("s", "y", "v"))
      w k w w
  in
  parse_pair (text ~src:true src_k) (text ~src:false tgt_k)

let easy_text k op =
  Fmt.str "define i32 @f(i32 %%x) {\nentry:\n  %%r = %s i32 %%x, %d\n  ret i32 %%r\n}" op k

let easy_pair k = parse_pair (easy_text k "add") (easy_text k "add")
let wrong_pair k = parse_pair (easy_text k "add") (easy_text (k + 1) "add")

let count_text bound =
  Fmt.str
    "define i32 @f(i32 %%n) {\nentry:\n  br label %%h\nh:\n  %%i = phi i32 [ 0, %%entry ], [ \
     %%i2, %%b ]\n  %%c = icmp slt i32 %%i, %d\n  br i1 %%c, label %%b, label %%x\nb:\n  %%i2 \
     = add i32 %%i, 1\n  br label %%h\nx:\n  ret i32 %%i\n}"
    bound

let count_pair bound ret =
  parse_pair (count_text bound) (Fmt.str "define i32 @f(i32 %%n) {\nentry:\n  ret i32 %d\n}" ret)

let h seed index salt = Hashtbl.hash (seed, index, salt, "veriopt-serve-workload")

let make ~seed ~index : query =
  let q label (m, src, tgt) unroll max_conflicts =
    { w_label = label; w_m = m; w_src = src; w_tgt = tgt; w_unroll = unroll; w_max_conflicts = max_conflicts }
  in
  let pick = h seed index 0 mod 100 in
  if pick < 40 then
    q "mul-chain" (chain_pair 7 (3 + (h seed index 1 mod 97))) None (Some 4000)
  else if pick < 60 then
    q "mul-comm" (mulc_pair (8 + (h seed index 2 mod 2)) (h seed index 3 mod 211)) None (Some 4000)
  else if pick < 75 then q "easy" (easy_pair (h seed index 4 mod 251)) None None
  else if pick < 90 then q "wrong" (wrong_pair (h seed index 5 mod 251)) None None
  else q "count" (count_pair (1 + (h seed index 6 mod 3)) (1 + (h seed index 6 mod 3))) None None

let alpha_variant (qy : query) : query =
  { qy with w_src = Builder.renumber qy.w_src; w_tgt = Builder.renumber qy.w_tgt }

(* ------------------------------------------------------------------ *)
(* Replay sources: traffic drawn from a mined adversarial corpus instead of
   (or mixed with) the synthetic generators.  Selection is keyed on the same
   (seed, index) hash family as [make], so a replay stream is exactly as
   deterministic as a synthetic one. *)

type source =
  | Synthetic
  | Mined of query array
  | Mixed of query array * int

let of_pair ~label ?unroll ?max_conflicts m ~src ~tgt : query =
  {
    w_label = label;
    w_m = m;
    w_src = src;
    w_tgt = tgt;
    w_unroll = unroll;
    w_max_conflicts = max_conflicts;
  }

let make_from ~source ~seed ~index : query =
  let mined arr = arr.(h seed index 7 mod Array.length arr) in
  match source with
  | Synthetic -> make ~seed ~index
  | Mined arr -> if Array.length arr = 0 then make ~seed ~index else mined arr
  | Mixed (arr, pct) ->
    if Array.length arr > 0 && h seed index 8 mod 100 < pct then mined arr
    else make ~seed ~index
