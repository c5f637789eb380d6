(** Prompt templates (the paper's Fig. 1 and Fig. 2) and output assembly.

    The generic template asks for the optimized IR inside [<answer>] tags;
    the augmented template adds a [<think>] section holding a first attempt
    and, when that attempt is wrong, an Alive2-style self-diagnosis followed
    by the corrected answer. *)

type mode = Generic | Augmented

let generic_template (ir : string) : string =
  String.concat "\n"
    [
      "You are a compiler optimization expert. Apply peephole optimizations";
      "to the following LLVM IR function, preserving its semantics exactly.";
      "Reply with the optimized IR inside <answer> </answer> tags.";
      "";
      "[One-shot example]";
      "Input:";
      "define i32 @ex(i32 %x) {";
      "entry:";
      "  %r = add i32 %x, 0";
      "  ret i32 %r";
      "}";
      "<answer>";
      "define i32 @ex(i32 %x) {";
      "entry:";
      "  ret i32 %x";
      "}";
      "</answer>";
      "";
      "Input:";
      ir;
    ]

(** Structured model output prior to rendering. *)
type output = {
  think : (string * string option) option;
      (** first attempt, and the self-diagnosis when the model thinks the
          attempt is wrong; [None] think section in generic mode *)
  answer : string;
  well_formed : bool; (** whether the <answer> wrapper is emitted correctly *)
}

let render (o : output) : string =
  let buf = Buffer.create 512 in
  (match o.think with
  | Some (attempt, diag) ->
    Buffer.add_string buf "<think>\n";
    Buffer.add_string buf attempt;
    (match diag with
    | Some d ->
      Buffer.add_string buf "\nSelf-check: ";
      Buffer.add_string buf d;
      Buffer.add_string buf "\n"
    | None -> Buffer.add_string buf "\nSelf-check: Transformation seems to be correct!\n");
    Buffer.add_string buf "</think>\n"
  | None -> ());
  if o.well_formed then begin
    Buffer.add_string buf "<answer>\n";
    Buffer.add_string buf o.answer;
    Buffer.add_string buf "\n</answer>"
  end
  else begin
    (* a malformed completion: missing closing tag, the most common LLM
       format failure *)
    Buffer.add_string buf "<answer>\n";
    Buffer.add_string buf o.answer
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing model completions, as the evaluation pipeline would *)

let find_sub (s : string) (sub : string) (from : int) : int option =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go from

(** Extract the text between tags; [None] when the format is violated. *)
let extract_tag (tag : string) (s : string) : string option =
  match find_sub s ("<" ^ tag ^ ">") 0 with
  | None -> None
  | Some start -> (
    let content_start = start + String.length tag + 2 in
    match find_sub s ("</" ^ tag ^ ">") content_start with
    | None -> None
    | Some stop -> Some (String.trim (String.sub s content_start (stop - content_start))))

(** Format compliance: the [t_i] term of the paper's reward (Eq. 1). *)
let format_ok (completion : string) : bool = extract_tag "answer" completion <> None

let answer_of (completion : string) : string option = extract_tag "answer" completion

let think_of (completion : string) : string option = extract_tag "think" completion
