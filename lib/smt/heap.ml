(** Indexed max-heap over variable activities: the VSIDS decision order.

    Elements are variable indices; priority is read through a callback into
    the solver's activity array so bumps only need [decrease]/[increase]
    notifications for elements currently in the heap. *)

type t = {
  mutable heap : int array; (* heap of variable indices *)
  mutable size : int;
  mutable pos : int array; (* position of each var in [heap]; -1 if absent *)
  score : int -> float;
}

let create ~capacity ~score =
  { heap = Array.make (max 1 capacity) 0; size = 0; pos = Array.make (max 1 capacity) (-1); score }

let ensure t n =
  if n > Array.length t.pos then (
    let pos = Array.make (2 * n) (-1) in
    Array.blit t.pos 0 pos 0 (Array.length t.pos);
    t.pos <- pos;
    let heap = Array.make (2 * n) 0 in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap)

let in_heap t v = v < Array.length t.pos && t.pos.(v) >= 0
let is_empty t = t.size = 0

let swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.pos.(b) <- i;
  t.pos.(a) <- j

let rec sift_up t i =
  if i > 0 then (
    let parent = (i - 1) / 2 in
    if t.score t.heap.(i) > t.score t.heap.(parent) then (
      swap t i parent;
      sift_up t parent))

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let largest = ref i in
  if l < t.size && t.score t.heap.(l) > t.score t.heap.(!largest) then largest := l;
  if r < t.size && t.score t.heap.(r) > t.score t.heap.(!largest) then largest := r;
  if !largest <> i then (
    swap t i !largest;
    sift_down t !largest)

let insert t v =
  ensure t (v + 1);
  if not (in_heap t v) then (
    t.heap.(t.size) <- v;
    t.pos.(v) <- t.size;
    t.size <- t.size + 1;
    sift_up t (t.size - 1))

let size t = t.size

let pop_max t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.pos.(top) <- -1;
  if t.size > 0 then (
    t.heap.(0) <- t.heap.(t.size);
    t.pos.(t.heap.(0)) <- 0;
    sift_down t 0);
  top

(** The activity of [v] increased; restore heap order. *)
let notify_increase t v = if in_heap t v then sift_up t t.pos.(v)
