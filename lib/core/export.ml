module Sharing = Msoc_analog.Sharing
module Spec = Msoc_analog.Spec
module Schedule = Msoc_tam.Schedule
module Job = Msoc_tam.Job

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Object of (string * json) list

(* --- printing ---

   One writer for [to_string] and [pretty], appending straight into the
   buffer: no string per int, string or key, and no closure per node.
   Its bytes cannot move: cache keys are the MD5 of this rendering
   (Fingerprint), and disk entries, envelopes and every [--json] are
   its output. So each case writes exactly the bytes [string_of_int]
   and [Printf] write for it; test/test_export_ref.ml keeps that
   printer as the reference. *)

external format_float : string -> float -> string = "caml_format_float"

(* The digits of [-n] for [n <= 0]: working on the non-positive side
   keeps [min_int] in range. *)
let rec add_negated_digits buf n =
  if n <= -10 then add_negated_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_negated_digits buf i
  end
  else add_negated_digits buf (-i)

(* [Printf.sprintf "%.1f"] and ["%.12g"] both end in [caml_format_float]
   (camlinternalFormat's [convert_float]). An integer-valued float below
   1e15 is exact as an [int], and "%.1f" writes it as its digits and
   ".0"; -0.0 keeps its sign. Every other float, NaN and the infinities
   included, goes through the primitive itself. *)
let add_float buf v =
  if Float.is_integer v && Float.abs v < 1e15 then begin
    if v = 0.0 && Float.sign_bit v then Buffer.add_char buf '-';
    add_int buf (int_of_float v);
    Buffer.add_string buf ".0"
  end
  else Buffer.add_string buf (format_float "%.12g" v)

(* the first byte at or after [i] that needs an escape; [n] if none *)
let rec escape_from s i n =
  if i = n then n
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> escape_from s (i + 1) n

let hex_digits = "0123456789abcdef"

let add_escape buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c ->
    Buffer.add_string buf "\\u00";
    Buffer.add_char buf hex_digits.[Char.code c lsr 4];
    Buffer.add_char buf hex_digits.[Char.code c land 15]

(* the runs between escapes; a string with none is added whole *)
let rec add_runs buf s start n =
  let i = escape_from s start n in
  Buffer.add_substring buf s start (i - start);
  if i < n then begin
    add_escape buf (String.unsafe_get s i);
    add_runs buf s (i + 1) n
  end

let add_string buf s =
  Buffer.add_char buf '"';
  add_runs buf s 0 (String.length s);
  Buffer.add_char buf '"'

(* a line break and [level]'s indent, in the pretty layout only *)
let break buf indent level =
  if indent then begin
    Buffer.add_char buf '\n';
    for _ = 1 to level do
      Buffer.add_string buf "  "
    done
  end

let rec write buf indent level json =
  match json with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> add_int buf i
  | Float v -> add_float buf v
  | String s -> add_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (item :: items) ->
    Buffer.add_char buf '[';
    break buf indent (level + 1);
    write buf indent (level + 1) item;
    write_items buf indent (level + 1) items;
    break buf indent level;
    Buffer.add_char buf ']'
  | Object [] -> Buffer.add_string buf "{}"
  | Object (field :: fields) ->
    Buffer.add_char buf '{';
    break buf indent (level + 1);
    write_field buf indent (level + 1) field;
    write_fields buf indent (level + 1) fields;
    break buf indent level;
    Buffer.add_char buf '}'

and write_items buf indent level = function
  | [] -> ()
  | item :: items ->
    Buffer.add_char buf ',';
    break buf indent level;
    write buf indent level item;
    write_items buf indent level items

and write_field buf indent level (key, value) =
  add_string buf key;
  Buffer.add_char buf ':';
  if indent then Buffer.add_char buf ' ';
  write buf indent level value

and write_fields buf indent level = function
  | [] -> ()
  | field :: fields ->
    Buffer.add_char buf ',';
    break buf indent level;
    write_field buf indent level field;
    write_fields buf indent level fields

let to_string json =
  let buf = Buffer.create 256 in
  write buf false 0 json;
  Buffer.contents buf

let pretty json =
  let buf = Buffer.create 256 in
  write buf true 0 json;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parsing (the printer's inverse, so envelopes round-trip) --- *)

exception Parse_failure of int * string

let max_depth = 512

let parse text =
  let n = String.length text in
  let fail pos fmt =
    Format.kasprintf (fun message -> raise (Parse_failure (pos, message))) fmt
  in
  let peek pos = if pos < n then Some text.[pos] else None in
  let rec skip_ws pos =
    match peek pos with
    | Some (' ' | '\t' | '\n' | '\r') -> skip_ws (pos + 1)
    | _ -> pos
  in
  let expect pos c =
    match peek pos with
    | Some d when d = c -> pos + 1
    | Some d -> fail pos "expected %C, got %C" c d
    | None -> fail pos "expected %C, got end of input" c
  in
  let literal pos word value =
    let len = String.length word in
    if pos + len <= n && String.sub text pos len = word then (value, pos + len)
    else fail pos "invalid literal"
  in
  let hex4 pos =
    if pos + 4 > n then fail pos "truncated \\u escape";
    let digit i =
      match text.[pos + i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | c -> fail (pos + i) "invalid hex digit %C in \\u escape" c
    in
    (4096 * digit 0) + (256 * digit 1) + (16 * digit 2) + digit 3
  in
  let add_utf8 buf cp =
    (* UTF-8 encode one code point; the printer emits non-ASCII bytes
       raw, so decoded escapes re-print as plain UTF-8 *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let parse_string pos =
    let buf = Buffer.create 16 in
    let rec go pos =
      match peek pos with
      | None -> fail pos "unterminated string"
      | Some '"' -> (Buffer.contents buf, pos + 1)
      | Some '\\' -> (
        match peek (pos + 1) with
        | None -> fail (pos + 1) "unterminated escape"
        | Some c -> (
          match c with
          | '"' | '\\' | '/' ->
            Buffer.add_char buf c;
            go (pos + 2)
          | 'n' ->
            Buffer.add_char buf '\n';
            go (pos + 2)
          | 'r' ->
            Buffer.add_char buf '\r';
            go (pos + 2)
          | 't' ->
            Buffer.add_char buf '\t';
            go (pos + 2)
          | 'b' ->
            Buffer.add_char buf '\b';
            go (pos + 2)
          | 'f' ->
            Buffer.add_char buf '\012';
            go (pos + 2)
          | 'u' ->
            let cp = hex4 (pos + 2) in
            if cp >= 0xd800 && cp <= 0xdbff then
              (* high surrogate: consume the paired low surrogate *)
              if
                pos + 6 + 6 <= n
                && text.[pos + 6] = '\\'
                && text.[pos + 7] = 'u'
              then begin
                let lo = hex4 (pos + 8) in
                if lo < 0xdc00 || lo > 0xdfff then
                  fail (pos + 8) "expected low surrogate, got \\u%04x" lo;
                add_utf8 buf
                  (0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00));
                go (pos + 12)
              end
              else fail pos "unpaired high surrogate \\u%04x" cp
            else if cp >= 0xdc00 && cp <= 0xdfff then
              fail pos "unpaired low surrogate \\u%04x" cp
            else begin
              add_utf8 buf cp;
              go (pos + 6)
            end
          | c -> fail (pos + 1) "invalid escape \\%C" c))
      | Some c when Char.code c < 0x20 ->
        fail pos "unescaped control character 0x%02x in string" (Char.code c)
      | Some c ->
        Buffer.add_char buf c;
        go (pos + 1)
    in
    go pos
  in
  let parse_number pos =
    let stop = ref pos in
    let is_float = ref false in
    let continue = ref true in
    while !continue && !stop < n do
      (match text.[!stop] with
      | '0' .. '9' | '-' | '+' -> ()
      | '.' | 'e' | 'E' -> is_float := true
      | _ -> continue := false);
      if !continue then incr stop
    done;
    let tok = String.sub text pos (!stop - pos) in
    (* A literal past the float range reads as an infinity, which the
       printer cannot write back as JSON: reject it here. *)
    let finite v =
      if Float.is_finite v then Float v else fail pos "number %S is out of range" tok
    in
    let value =
      if !is_float then
        match float_of_string_opt tok with
        | Some v -> finite v
        | None -> fail pos "malformed number %S" tok
      else
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
          (* an integer literal too wide for [int]: keep the magnitude *)
          match float_of_string_opt tok with
          | Some v -> finite v
          | None -> fail pos "malformed number %S" tok)
    in
    (value, !stop)
  in
  (* [depth] counts the arrays and objects around the value *)
  let rec parse_value depth pos =
    let pos = skip_ws pos in
    match peek pos with
    | None -> fail pos "expected a value, got end of input"
    | Some ('[' | '{') when depth = max_depth ->
      fail pos "nesting deeper than %d levels" max_depth
    | Some 'n' -> literal pos "null" Null
    | Some 't' -> literal pos "true" (Bool true)
    | Some 'f' -> literal pos "false" (Bool false)
    | Some '"' -> (
      match parse_string (pos + 1) with s, pos -> (String s, pos))
    | Some ('-' | '0' .. '9') -> parse_number pos
    | Some '[' -> (
      let pos = skip_ws (pos + 1) in
      match peek pos with
      | Some ']' -> (List [], pos + 1)
      | _ ->
        let rec items acc pos =
          let item, pos = parse_value (depth + 1) pos in
          let pos = skip_ws pos in
          match peek pos with
          | Some ',' -> items (item :: acc) (pos + 1)
          | Some ']' -> (List (List.rev (item :: acc)), pos + 1)
          | _ -> fail pos "expected ',' or ']' in array"
        in
        items [] pos)
    | Some '{' -> (
      let pos = skip_ws (pos + 1) in
      match peek pos with
      | Some '}' -> (Object [], pos + 1)
      | _ ->
        let field pos =
          let pos = skip_ws pos in
          let pos = expect pos '"' in
          let key, pos = parse_string pos in
          let pos = expect (skip_ws pos) ':' in
          let value, pos = parse_value (depth + 1) pos in
          ((key, value), pos)
        in
        let rec fields acc pos =
          let f, pos = field pos in
          let pos = skip_ws pos in
          match peek pos with
          | Some ',' -> fields (f :: acc) (pos + 1)
          | Some '}' -> (Object (List.rev (f :: acc)), pos + 1)
          | _ -> fail pos "expected ',' or '}' in object"
        in
        fields [] pos)
    | Some c -> fail pos "unexpected character %C" c
  in
  match
    let value, pos = parse_value 0 0 in
    let pos = skip_ws pos in
    if pos < n then fail pos "trailing content after the value";
    value
  with
  | value -> Ok value
  | exception Parse_failure (pos, message) ->
    Error (Printf.sprintf "offset %d: %s" pos message)

let parse_exn text =
  match parse text with Ok v -> v | Error e -> failwith ("Export.parse: " ^ e)

let member key = function
  | Object fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let placement_json (p : Schedule.placement) =
  Object
    ([
       ("test", String p.Schedule.job.Job.label);
       ("start", Int p.Schedule.start);
       ("finish", Int (Schedule.finish p));
       ("width", Int p.Schedule.width);
       ("wires", List (List.map (fun w -> Int w) p.Schedule.wires));
     ]
    @
    match p.Schedule.job.Job.exclusion with
    | Some g -> [ ("wrapper_group", Int g) ]
    | None -> [])

let schedule_json (s : Schedule.t) =
  Object
    [
      ("tam_width", Int s.Schedule.total_width);
      ( "power_budget",
        match s.Schedule.power_budget with Some b -> Int b | None -> Null );
      ("makespan", Int (Schedule.makespan s));
      ("efficiency", Float (Schedule.efficiency s));
      ("placements", List (List.map placement_json s.Schedule.placements));
    ]

let plan_json (plan : Plan.t) =
  let p = plan.Plan.problem in
  let e = plan.Plan.best in
  let groups =
    (Plan.sharing plan).Sharing.groups
    |> List.map (fun group ->
           List (List.map (fun c -> String c.Spec.label) group))
  in
  Object
    [
      ("soc", String p.Problem.soc.Msoc_itc02.Types.name);
      ("tam_width", Int p.Problem.tam_width);
      ("weight_time", Float p.Problem.weight_time);
      ("weight_area", Float p.Problem.weight_area);
      ("sharing", List groups);
      ("cost", Float e.Evaluate.cost);
      ("c_t", Float e.Evaluate.c_t);
      ("c_a", Float e.Evaluate.c_a);
      ("makespan", Int e.Evaluate.makespan);
      ("reference_makespan", Int plan.Plan.reference_makespan);
      ("evaluations", Int plan.Plan.evaluations);
      ("considered", Int plan.Plan.considered);
      ("schedule", schedule_json e.Evaluate.schedule);
    ]

let plan_to_string ?pretty:(indent = false) plan =
  let json = plan_json plan in
  if indent then pretty json else to_string json
