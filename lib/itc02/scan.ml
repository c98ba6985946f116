exception Parse_error of { file : string option; line : int; message : string }

type kind =
  | Syntax
  | Missing_field
  | Chain_count
  | Range
  | Patterns
  | Chain_length
  | Duplicate_id
  | Missing_socname
  | Socname_redeclared
  | No_modules

type finding = { line : int; kind : kind; message : string }

type test = { index : int; scan_use : bool; tam_use : bool; patterns : int }

type module_ = {
  line : int;
  id : int option;
  level : int option;
  name : string option;
  inputs : int option;
  outputs : int option;
  bidirs : int option;
  patterns : int option;
  chains : int list;
  tests : (int * test) list;
}

type t = { soc_name : string option; modules : module_ list; findings : finding list }

let syntax = function Syntax | Missing_field | Chain_count -> true | _ -> false

let fatal = function Socname_redeclared | No_modules -> false | _ -> true

(* The line being read: its tokens are offsets into [text], so a line
   allocates no token strings but the names it reads. *)
type cursor = {
  text : string;
  mutable starts : int array;
  mutable stops : int array;
  mutable count : int;
  mutable line : int;
  mutable findings : finding list;
}

let note c kind fmt =
  Printf.ksprintf
    (fun message -> c.findings <- { line = c.line; kind; message } :: c.findings)
    fmt

let blank ch = ch = ' ' || ch = '\t'

(* Split [a, b) on blanks and tabs. *)
let tokenize c a b =
  c.count <- 0;
  let i = ref a in
  while !i < b do
    if blank c.text.[!i] then incr i
    else begin
      let j = ref !i in
      while !j < b && not (blank c.text.[!j]) do incr j done;
      if c.count = Array.length c.starts then begin
        c.starts <- Array.append c.starts c.starts;
        c.stops <- Array.append c.stops c.stops
      end;
      c.starts.(c.count) <- !i;
      c.stops.(c.count) <- !j;
      c.count <- c.count + 1;
      i := !j
    end
  done

let token c i = String.sub c.text c.starts.(i) (c.stops.(i) - c.starts.(i))

(* The loops here are top-level functions: a local one would allocate
   its closure on every call. *)
let rec same text a word k =
  k = String.length word || (text.[a + k] = word.[k] && same text a word (k + 1))

let is c i word =
  c.stops.(i) - c.starts.(i) = String.length word && same c.text c.starts.(i) word 0

(* The value of the digits in [k, b), or -1 if another character is
   among them. *)
let rec decimal text b k n =
  if k = b then n
  else
    match text.[k] with
    | '0' .. '9' as ch -> decimal text b (k + 1) ((10 * n) + Char.code ch - 48)
    | _ -> -1

(* [int_of_string_opt] of the token; plain decimals of up to 18 digits
   (which cannot overflow) are read in place, without a string. *)
let int_at c i =
  let a = c.starts.(i) and b = c.stops.(i) in
  let d = if c.text.[a] = '-' then a + 1 else a in
  let n = if b > d && b - d <= 18 then decimal c.text b d 0 else -1 in
  if n < 0 then int_of_string_opt (token c i) else Some (if d > a then -n else n)

let int_or_note c i what =
  match int_at c i with
  | None ->
    note c Syntax "%s expects an integer, got %S" what (token c i);
    None
  | n -> n

let[@tail_mod_cons] rec lengths c k =
  if k = c.count then []
  else
    match int_or_note c k "ScanChains length" with
    | Some l -> l :: lengths c (k + 1)
    | None -> lengths c (k + 1)

(* [ScanChains n : l1 .. ln] at token [i], to the end of the line. *)
let chains c i =
  match int_or_note c (i + 1) "ScanChains" with
  | None -> []
  | Some n when i + 2 = c.count && n = 0 -> []
  | Some n when i + 2 < c.count && is c (i + 2) ":" ->
    let given = c.count - i - 3 in
    if given <> n then note c Chain_count "ScanChains %d but %d lengths given" n given;
    lengths c (i + 3)
  | Some 0 ->
    note c Chain_count "unexpected tokens after ScanChains 0";
    []
  | Some n ->
    note c Chain_count "ScanChains %d must be followed by ': l1 .. l%d'" n n;
    []

(* The key/value pairs from token [i] on. With [~tail], a [ScanChains] key
   takes the rest of the line. Returns the token where the pairs stop,
   and the chain lengths. *)
let rec pairs c ~tail i =
  if i = c.count then (i, [])
  else if i + 1 = c.count then begin
    note c Syntax "dangling token %S" (token c i);
    (i, [])
  end
  else if tail && is c i "ScanChains" then (i, chains c i)
  else pairs c ~tail (i + 2)

let rec last c key ~stop i found =
  if i >= stop then found else last c key ~stop (i + 2) (if is c i key then i + 1 else found)

(* The value token of the last [key] among the pairs, as a repeated key
   counts only once. *)
let field c ~stop key =
  match last c key ~stop 2 (-1) with
  | -1 ->
    note c Missing_field "missing field %s" key;
    None
  | j -> Some j

let int_field c ~stop key =
  match field c ~stop key with Some j -> int_or_note c j key | None -> None

let count_field c ~stop key =
  let n = int_field c ~stop key in
  (match n with
  | Some n when n < 0 -> note c Range "field %s must be non-negative, got %d" key n
  | Some _ | None -> ());
  n

let module_line c ~hierarchical ~ids =
  let id = int_or_note c 1 "Module id" in
  (match id with
  | Some id when id < 1 && not hierarchical -> note c Range "Module id must be >= 1, got %d" id
  | Some id -> (
    match Hashtbl.find_opt ids id with
    | Some first -> note c Duplicate_id "duplicate module id %d (first on line %d)" id first
    | None -> Hashtbl.replace ids id c.line)
  | None -> ());
  let stop, chains = pairs c ~tail:true 2 in
  List.iter
    (fun l -> if l <= 0 then note c Chain_length "scan-chain length %d must be positive" l)
    chains;
  let name = Option.map (token c) (field c ~stop "Name") in
  let inputs = count_field c ~stop "Inputs" in
  let outputs = count_field c ~stop "Outputs" in
  let bidirs = count_field c ~stop "Bidirs" in
  let level = if hierarchical then int_field c ~stop "Level" else None in
  let patterns = if hierarchical then None else int_field c ~stop "Patterns" in
  (match patterns with
  | Some p when p < 1 ->
    note c Patterns "Patterns %d: the core contributes no test (zero-length staircase)" p
  | Some _ | None -> ());
  { line = c.line; id; level; name; inputs; outputs; bidirs; patterns; chains; tests = [] }

let test_line c =
  let index = int_or_note c 1 "Test index" in
  let stop, _ = pairs c ~tail:false 2 in
  let flag key =
    Option.bind (field c ~stop key) (fun j ->
        if is c j "1" then Some true
        else if is c j "0" then Some false
        else begin
          note c Syntax "%s expects 0 or 1, got %S" key (token c j);
          None
        end)
  in
  let scan_use = flag "ScanUse" in
  let tam_use = flag "TamUse" in
  match (index, scan_use, tam_use, int_field c ~stop "Patterns") with
  | Some index, Some scan_use, Some tam_use, Some patterns ->
    Some (c.line, { index; scan_use; tam_use; patterns })
  | _ -> None

(* A comment runs from the first [#] to the end of the line. *)
let rec code_end text eol k =
  if k = eol || text.[k] = '#' then k else code_end text eol (k + 1)

let scan ~hierarchical text =
  let c =
    { text; starts = Array.make 64 0; stops = Array.make 64 0; count = 0; line = 0; findings = [] }
  in
  let ids = Hashtbl.create 64 in
  let soc_name = ref None and first_name = ref 0 and modules = ref [] in
  let directive () =
    if c.count = 0 then ()
    else if is c 0 "SocName" then begin
      if c.count <> 2 then note c Syntax "SocName takes exactly one token"
      else begin
        if Option.is_some !soc_name then
          note c Socname_redeclared "SocName redeclared (first on line %d)" !first_name
        else first_name := c.line;
        soc_name := Some (token c 1)
      end
    end
    else if c.count > 1 && is c 0 "Module" then
      modules := module_line c ~hierarchical ~ids :: !modules
    else if c.count > 1 && hierarchical && is c 0 "Test" then begin
      match (test_line c, !modules) with
      | _, [] -> note c Syntax "Test before any Module"
      | Some test, m :: rest -> modules := { m with tests = test :: m.tests } :: rest
      | None, _ :: _ -> ()
    end
    else note c Syntax "unknown directive %S" (token c 0)
  in
  let n = String.length text in
  let rec lines a =
    let eol = Option.value (String.index_from_opt text a '\n') ~default:n in
    c.line <- c.line + 1;
    tokenize c a (code_end text eol a);
    directive ();
    if eol < n then lines (eol + 1)
  in
  lines 0;
  (* the whole-file findings sit on line 1 *)
  c.line <- 1;
  if Option.is_none !soc_name then note c Missing_socname "missing SocName directive";
  if !modules = [] then note c No_modules "SOC declares no cores";
  {
    soc_name = !soc_name;
    modules = List.rev_map (fun m -> { m with tests = List.rev m.tests }) !modules;
    findings = List.rev c.findings;
  }

let fail ?file line message = raise (Parse_error { file; line; message })

let check ?file (t : t) =
  let first p = List.find_opt (fun (f : finding) -> p f.kind) t.findings in
  match first syntax with
  | Some f -> fail ?file f.line f.message
  | None -> Option.iter (fun (f : finding) -> fail ?file f.line f.message) (first fatal)

let max_bytes = 1 lsl 24

(* Chunk by chunk up to the cap: an endless device such as [/dev/zero]
   is refused, not read into memory. *)
let read path =
  In_channel.with_open_bin path (fun ic ->
      let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let rec go () =
        match In_channel.input ic chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents buf
        | n when Buffer.length buf + n > max_bytes ->
          raise (Sys_error (Printf.sprintf "%s: longer than %d bytes" path max_bytes))
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
      in
      go ())

let one_token name =
  name <> "" && not (String.exists (fun ch -> blank ch || ch = '\n' || ch = '#') name)

let token_name ~what name =
  if not (one_token name) then
    invalid_arg (Printf.sprintf "%s name %S does not read back as one token" what name);
  name

let add_chains buf chains =
  Printf.bprintf buf " ScanChains %d" (List.length chains);
  if chains <> [] then begin
    Buffer.add_string buf " :";
    List.iter (Printf.bprintf buf " %d") chains
  end
