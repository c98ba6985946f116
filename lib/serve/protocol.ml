module Export = Msoc_testplan.Export

let version = 1

type op = Plan | Explore | Optimize | Cosim | Stats | Shutdown

let op_name = function
  | Plan -> "plan"
  | Explore -> "explore"
  | Optimize -> "optimize"
  | Cosim -> "cosim"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let op_of_name = function
  | "plan" -> Some Plan
  | "explore" -> Some Explore
  | "optimize" -> Some Optimize
  | "cosim" -> Some Cosim
  | "stats" -> Some Stats
  | "shutdown" -> Some Shutdown
  | _ -> None

type request = {
  id : string;
  op : op;
  deadline_ms : float option;
  params : Export.json;
}

let request ?deadline_ms ?(params = Export.Object []) ~id op =
  { id; op; deadline_ms; params }

let request_json r =
  Export.Object
    ([ ("v", Export.Int version); ("id", Export.String r.id);
       ("op", Export.String (op_name r.op)) ]
    @ (match r.deadline_ms with
      | Some ms -> [ ("deadline_ms", Export.Float ms) ]
      | None -> [])
    @ match r.params with Export.Object [] -> [] | p -> [ ("params", p) ])

let request_to_line r = Export.to_string (request_json r)

(* Field accessors shared by both envelope readers. *)

let check_version json =
  match Export.member "v" json with
  | Some (Export.Int v) when v = version -> Ok ()
  | Some (Export.Int v) ->
    Error (Printf.sprintf "unsupported schema version %d (expected %d)" v version)
  | Some _ -> Error "field \"v\" must be an integer"
  | None -> Error "missing field \"v\""

let string_field name json =
  match Export.member name json with
  | Some (Export.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let number_field_opt name json =
  match Export.member name json with
  | None -> Ok None
  | Some (Export.Int i) -> Ok (Some (float_of_int i))
  | Some (Export.Float f) -> Ok (Some f)
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)

let ( let* ) = Result.bind

let request_of_json json =
  match json with
  | Export.Object _ ->
    let* () = check_version json in
    let* id = string_field "id" json in
    let* op_str = string_field "op" json in
    let* op =
      match op_of_name op_str with
      | Some op -> Ok op
      | None -> Error (Printf.sprintf "unknown op %S" op_str)
    in
    let* deadline_ms = number_field_opt "deadline_ms" json in
    let* () =
      match deadline_ms with
      | Some ms when ms <= 0.0 -> Error "\"deadline_ms\" must be positive"
      | Some _ | None -> Ok ()
    in
    let* params =
      match Export.member "params" json with
      | None -> Ok (Export.Object [])
      | Some (Export.Object _ as p) -> Ok p
      | Some _ -> Error "field \"params\" must be an object"
    in
    Ok { id; op; deadline_ms; params }
  | _ -> Error "request envelope must be a JSON object"

let request_of_line line =
  match Export.parse line with
  | Error e -> Error ("", e)
  | Ok json -> (
    match request_of_json json with
    | Ok r -> Ok r
    | Error e ->
      (* answer under the line's own id, so a pipelining client can
         tell which request failed *)
      let id = match string_field "id" json with Ok id -> id | Error _ -> "" in
      Error (id, e))

type status =
  | Success
  | Bad_request
  | Server_error
  | Overloaded
  | Deadline_exceeded
  | Shutting_down
  | Unavailable

let statuses =
  [
    Success;
    Bad_request;
    Server_error;
    Overloaded;
    Deadline_exceeded;
    Shutting_down;
    Unavailable;
  ]

let status_name = function
  | Success -> "ok"
  | Bad_request -> "bad_request"
  | Server_error -> "server_error"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Shutting_down -> "shutting_down"
  | Unavailable -> "unavailable"

let status_of_name = function
  | "ok" -> Some Success
  | "bad_request" -> Some Bad_request
  | "server_error" -> Some Server_error
  | "overloaded" -> Some Overloaded
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "shutting_down" -> Some Shutting_down
  | "unavailable" -> Some Unavailable
  | _ -> None

type response = {
  id : string;
  status : status;
  worker : string option;
  cached : string option;
  elapsed_ms : float option;
  result : Export.json;
  error : string option;
}

let ok ?worker ?cached ~id result =
  { id; status = Success; worker; cached; elapsed_ms = None; result;
    error = None }

let reject ?worker ~id status error =
  if status = Success then invalid_arg "Protocol.reject: Success is not a rejection";
  { id; status; worker; cached = None; elapsed_ms = None; result = Export.Null;
    error = Some error }

let response_json r =
  Export.Object
    ([ ("v", Export.Int version); ("id", Export.String r.id);
       ("status", Export.String (status_name r.status)) ]
    @ (match r.worker with
      | Some w -> [ ("worker", Export.String w) ]
      | None -> [])
    @ (match r.cached with
      | Some where -> [ ("cached", Export.String where) ]
      | None -> [])
    @ (match r.elapsed_ms with
      | Some ms -> [ ("elapsed_ms", Export.Float ms) ]
      | None -> [])
    @ (match r.result with Export.Null -> [] | j -> [ ("result", j) ])
    @ match r.error with
      | Some e -> [ ("error", Export.String e) ]
      | None -> [])

let response_to_line r = Export.to_string (response_json r)

let response_of_json json =
  match json with
  | Export.Object _ ->
    let* () = check_version json in
    let* id = string_field "id" json in
    let* status_str = string_field "status" json in
    let* status =
      match status_of_name status_str with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "unknown status %S" status_str)
    in
    let* worker =
      match Export.member "worker" json with
      | None -> Ok None
      | Some (Export.String s) -> Ok (Some s)
      | Some _ -> Error "field \"worker\" must be a string"
    in
    let* cached =
      match Export.member "cached" json with
      | None -> Ok None
      | Some (Export.String s) -> Ok (Some s)
      | Some _ -> Error "field \"cached\" must be a string"
    in
    let* elapsed_ms = number_field_opt "elapsed_ms" json in
    let result = Option.value (Export.member "result" json) ~default:Export.Null in
    let* error =
      match Export.member "error" json with
      | None -> Ok None
      | Some (Export.String s) -> Ok (Some s)
      | Some _ -> Error "field \"error\" must be a string"
    in
    Ok { id; status; worker; cached; elapsed_ms; result; error }
  | _ -> Error "response envelope must be a JSON object"

let response_of_line line =
  match Export.parse line with
  | Ok json -> response_of_json json
  | Error e -> Error e
