module Export = Msoc_testplan.Export

type severity = Info | Warning | Error

type location = { file : string option; line : int option }

type t = {
  code : string;
  severity : severity;
  location : location;
  message : string;
}

let make ?file ?line ~code ~severity message =
  { code; severity; location = { file; line }; message }

let makef ?file ?line ~code ~severity fmt =
  Format.kasprintf (fun message -> make ?file ?line ~code ~severity message) fmt

let severity_label = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

let is_error d = d.severity = Error

let errors = List.filter is_error

let warnings = List.filter (fun d -> d.severity = Warning)

let has_errors = List.exists is_error

let exit_code ds = if has_errors ds then 1 else 0

let sort ds =
  List.stable_sort
    (fun a b ->
      match compare (severity_rank b.severity) (severity_rank a.severity) with
      | 0 ->
        compare
          (a.location.file, a.location.line, a.code)
          (b.location.file, b.location.line, b.code)
      | c -> c)
    ds

let to_string d =
  let loc =
    match d.location with
    | { file = Some f; line = Some l } -> Printf.sprintf "%s:%d: " f l
    | { file = Some f; line = None } -> Printf.sprintf "%s: " f
    | { file = None; line = Some l } -> Printf.sprintf "line %d: " l
    | { file = None; line = None } -> ""
  in
  Printf.sprintf "%s%s [%s] %s" loc (severity_label d.severity) d.code d.message

let render_text ds = String.concat "" (List.map (fun d -> to_string d ^ "\n") ds)

let summary ds =
  let plural n word = Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s") in
  match (List.length (errors ds), List.length (warnings ds)) with
  | 0, 0 -> "no findings"
  | e, 0 -> plural e "error"
  | 0, w -> plural w "warning"
  | e, w -> plural e "error" ^ ", " ^ plural w "warning"

let to_json d =
  Export.Object
    ([ ("code", Export.String d.code);
       ("severity", Export.String (severity_label d.severity));
     ]
    @ (match d.location.file with
      | Some f -> [ ("file", Export.String f) ]
      | None -> [])
    @ (match d.location.line with
      | Some l -> [ ("line", Export.Int l) ]
      | None -> [])
    @ [ ("message", Export.String d.message) ])

let report_json ds =
  let ds = sort ds in
  Export.Object
    [
      ("errors", Export.Int (List.length (errors ds)));
      ("warnings", Export.Int (List.length (warnings ds)));
      ("diagnostics", Export.List (List.map to_json ds));
    ]
