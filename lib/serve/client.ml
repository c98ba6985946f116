type t = { fd : Unix.file_descr; reader : Server.Line_reader.t }

(* Set once, so a program may put the default back when it is done with
   its peers (replay does, before it prints). *)
let sigpipe_ignored = Atomic.make false

let connect ?idle_timeout_s endpoint =
  let open_fd = Server.connect endpoint in
  if not (Atomic.exchange sigpipe_ignored true) then
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  fun () ->
    let fd = open_fd () in
    let max_line = Msoc_itc02.Scan.max_bytes in
    { fd; reader = Server.Line_reader.create ?idle_timeout_s ~max_line fd }

(* one write call at a time, so an EINTR never hides how much went out *)
let send_line t line =
  let s = line ^ "\n" in
  let rec from off =
    off = String.length s
    ||
    match Unix.single_write_substring t.fd s off (String.length s - off) with
    | n -> from (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> from off
    | exception Unix.Unix_error _ -> false
  in
  from 0

let send t request = send_line t (Protocol.request_to_line request)

type reply = Response of Protocol.response | Malformed of string | Closed | Timed_out

(* a line past the cap has no resync point: the connection is done, as
   the servers hang up on one *)
let recv t =
  match Server.Line_reader.next t.reader with
  | Server.Line_reader.Line line -> (
    match Protocol.response_of_line line with
    | Ok response -> Response response
    | Error e -> Malformed e)
  | Server.Line_reader.Eof | Server.Line_reader.Too_long -> Closed
  | Server.Line_reader.Idle_timeout -> Timed_out

let call t request = if send t request then recv t else Closed

let shutdown t = try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
