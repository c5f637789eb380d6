(** EINTR-safe wrappers around the blocking syscalls {!Vproc} lives on. *)

let retry_count = Atomic.make 0

let retries () = Atomic.get retry_count

let rec read fd buf pos len =
  try Unix.read fd buf pos len
  with Unix.Unix_error (Unix.EINTR, _, _) ->
    Atomic.incr retry_count;
    read fd buf pos len

let rec write fd buf pos len =
  try Unix.write fd buf pos len
  with Unix.Unix_error (Unix.EINTR, _, _) ->
    Atomic.incr retry_count;
    write fd buf pos len

let rec read_fully fd buf pos len =
  if len = 0 then true
  else
    match read fd buf pos len with
    | 0 -> false (* EOF before the frame was complete *)
    | n -> read_fully fd buf (pos + n) (len - n)

let rec write_fully fd buf pos len =
  if len > 0 then begin
    let n = write fd buf pos len in
    write_fully fd buf (pos + n) (len - n)
  end

let rec waitpid ?(flags = []) pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) ->
    Atomic.incr retry_count;
    waitpid ~flags pid

(* [select] needs more than a bare retry: the timeout must be recomputed
   from the absolute deadline, or a stream of signals could stretch the
   wait indefinitely. *)
let rec wait_readable fd ~deadline =
  let timeout =
    match deadline with
    | None -> -1. (* negative = wait forever *)
    | Some d -> Float.max 0. (d -. Unix.gettimeofday ())
  in
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> `Timeout (* only reachable with a finite timeout *)
  | _ :: _, _, _ -> `Ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
    Atomic.incr retry_count;
    wait_readable fd ~deadline
