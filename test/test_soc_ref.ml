(* One reader for the ITC'02 text dialects, cross-checked against the
   three readers it replaced.

   [Ref] keeps [Soc_file.of_string], [Full.of_string] and [Lint.string]
   as they were before the one scan, verbatim: three hand-written
   scanners of one line dialect that disagreed (lint passed an unknown
   directive the loaders refused; the loaders let [Types.core] and
   [Types.soc] raise [Invalid_argument] with no line). The properties run both sides over
   generated flat and hierarchical texts and over one-token mutations of
   data/p93791s.soc:

   - every text [Ref] accepts loads to an equal value (a hierarchical
     module with a negative terminal count or a chain length below 1 is
     now refused at its [Module] line);
   - every text [Ref] rejects raises [Parse_error] at a line >= 1, the
     same line wherever [Ref] named one; nothing else escapes;
   - lint's (code, severity, line) triples are [Ref.Lint]'s, but for
     W301 (unknown directive) and W302 on a [SocName] line of more or
     fewer than one token, which are now E302 errors on the same line;
   - a text whose findings hold no error loads, and a [Parse_error] at
     line L comes with an error finding at L. *)

module Types = Msoc_itc02.Types
module Soc_file = Msoc_itc02.Soc_file
module Full = Msoc_itc02.Full
module Diagnostic = Msoc_check.Diagnostic
module Codes = Msoc_check.Codes
module Lint = Msoc_check.Lint

module Ref = struct
  module Soc_file = struct
    exception Parse_error of { file : string option; line : int; message : string }

    (* [file] is diagnostic only, threaded explicitly so concurrent parses
       (e.g. on serve worker threads) can never mislabel each other's
       errors. *)
    let fail ~file line fmt =
      Format.kasprintf (fun message -> raise (Parse_error { file; line; message })) fmt

    let tokens_of_line s =
      String.split_on_char ' ' s
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun t -> t <> "")

    let strip_comment s =
      match String.index_opt s '#' with
      | Some i -> String.sub s 0 i
      | None -> s

    let int_of_token ~file line tok =
      match int_of_string_opt tok with
      | Some n -> n
      | None -> fail ~file line "expected integer, got %S" tok

    (* Module lines are keyword/value pairs in fixed order; we parse them
       leniently (any order for the scalar fields) to be robust against
       hand-edited files. *)
    let parse_module_line ~file line toks =
      let rec scalars acc = function
        | [] -> (acc, None)
        | "ScanChains" :: count :: rest ->
          let n = int_of_token ~file line count in
          let chains =
            match rest with
            | [] when n = 0 -> []
            | ":" :: lens ->
              if List.length lens <> n then
                fail ~file line "ScanChains %d but %d lengths given" n
                  (List.length lens);
              List.map (int_of_token ~file line) lens
            | _ when n = 0 -> fail ~file line "unexpected tokens after ScanChains 0"
            | _ -> fail ~file line "ScanChains %d must be followed by ': l1 .. ln'" n
          in
          (acc, Some chains)
        | key :: value :: rest -> scalars ((key, value) :: acc) rest
        | [ tok ] -> fail ~file line "dangling token %S" tok
      in
      let fields, chains = scalars [] toks in
      let chains = Option.value chains ~default:[] in
      let get key =
        match List.assoc_opt key fields with
        | Some v -> int_of_token ~file line v
        | None -> fail ~file line "missing field %s" key
      in
      let name =
        match List.assoc_opt "Name" fields with
        | Some n -> n
        | None -> fail ~file line "missing field Name"
      in
      fun id ->
        Types.core ~id ~name ~inputs:(get "Inputs") ~outputs:(get "Outputs")
          ~bidirs:(get "Bidirs") ~patterns:(get "Patterns") ~scan_chains:chains

    let of_string ?file text =
      let lines = String.split_on_char '\n' text in
      let step (lineno, name, cores) raw =
        let lineno = lineno + 1 in
        match tokens_of_line (strip_comment raw) with
        | [] -> (lineno, name, cores)
        | [ "SocName"; n ] -> (lineno, Some n, cores)
        | "SocName" :: _ -> fail ~file lineno "SocName takes exactly one token"
        | "Module" :: id :: rest ->
          let id = int_of_token ~file lineno id in
          let mk = parse_module_line ~file lineno rest in
          (lineno, name, mk id :: cores)
        | tok :: _ -> fail ~file lineno "unknown directive %S" tok
      in
      let _, name, cores = List.fold_left step (0, None, []) lines in
      match name with
      | None -> fail ~file 0 "missing SocName directive"
      | Some name -> Types.soc ~name ~cores:(List.rev cores)
  end

  module Full = struct
    type test = { index : int; scan_use : bool; tam_use : bool; patterns : int }

    type module_ = {
      id : int;
      level : int;
      name : string;
      inputs : int;
      outputs : int;
      bidirs : int;
      scan_chains : int list;
      tests : test list;
    }

    type t = { name : string; modules : module_ list }

    exception Parse_error of { line : int; message : string }

    let fail line fmt =
      Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

    (* --- validation --- *)

    let validate t =
      let ( let* ) r f = Result.bind r f in
      let error fmt = Format.kasprintf Result.error fmt in
      let* () =
        let ids = List.map (fun m -> m.id) t.modules in
        if List.length (List.sort_uniq compare ids) <> List.length ids then
          error "duplicate module ids"
        else Ok ()
      in
      let* () =
        match List.find_opt (fun m -> m.tests = []) t.modules with
        | Some m -> error "module %d has no tests" m.id
        | None -> Ok ()
      in
      let* () =
        let bad m = List.exists (fun (test : test) -> test.patterns < 1) m.tests in
        match List.find_opt bad t.modules with
        | Some m -> error "module %d has a test with no patterns" m.id
        | None -> Ok ()
      in
      let* () =
        match t.modules with
        | [] -> Ok ()
        | first :: _ when first.level > 1 -> error "first module deeper than level 1"
        | first :: rest ->
          let step (prev, acc) m =
            if m.level > prev + 1 then (m.level, Error m.id) else (m.level, acc)
          in
          let _, acc = List.fold_left step (first.level, Ok ()) rest in
          (match acc with
          | Ok () -> Ok ()
          | Error id -> error "module %d skips a hierarchy level" id)
      in
      Ok ()

    (* --- parsing --- *)

    let tokens_of_line s =
      String.split_on_char ' ' s
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun tok -> tok <> "")

    let strip_comment s =
      match String.index_opt s '#' with Some i -> String.sub s 0 i | None -> s

    let int_of_token line tok =
      match int_of_string_opt tok with
      | Some n -> n
      | None -> fail line "expected integer, got %S" tok

    let bool_of_token line tok =
      match tok with
      | "0" -> false
      | "1" -> true
      | _ -> fail line "expected 0 or 1, got %S" tok

    let parse_module_header line toks =
      let rec scalars acc = function
        | [] -> (acc, [])
        | "ScanChains" :: count :: rest ->
          let n = int_of_token line count in
          let chains =
            match rest with
            | [] when n = 0 -> []
            | ":" :: lens ->
              if List.length lens <> n then
                fail line "ScanChains %d but %d lengths" n (List.length lens);
              List.map (int_of_token line) lens
            | _ when n = 0 -> fail line "unexpected tokens after ScanChains 0"
            | _ -> fail line "ScanChains %d needs ': l1 .. ln'" n
          in
          (acc, chains)
        | key :: value :: rest -> scalars ((key, value) :: acc) rest
        | [ tok ] -> fail line "dangling token %S" tok
      in
      let fields, chains = scalars [] toks in
      let get key =
        match List.assoc_opt key fields with
        | Some v -> int_of_token line v
        | None -> fail line "missing field %s" key
      in
      let name =
        match List.assoc_opt "Name" fields with
        | Some n -> n
        | None -> fail line "missing field Name"
      in
      fun id ->
        {
          id;
          level = get "Level";
          name;
          inputs = get "Inputs";
          outputs = get "Outputs";
          bidirs = get "Bidirs";
          scan_chains = chains;
          tests = [];
        }

    let parse_test_line line toks =
      let rec fields acc = function
        | [] -> acc
        | key :: value :: rest -> fields ((key, value) :: acc) rest
        | [ tok ] -> fail line "dangling token %S" tok
      in
      let fields = fields [] toks in
      let get key =
        match List.assoc_opt key fields with
        | Some v -> v
        | None -> fail line "missing field %s" key
      in
      fun index ->
        {
          index;
          scan_use = bool_of_token line (get "ScanUse");
          tam_use = bool_of_token line (get "TamUse");
          patterns = int_of_token line (get "Patterns");
        }

    let of_string text =
      let lines = String.split_on_char '\n' text in
      let step (lineno, name, modules) raw =
        let lineno = lineno + 1 in
        match tokens_of_line (strip_comment raw) with
        | [] -> (lineno, name, modules)
        | [ "SocName"; n ] -> (lineno, Some n, modules)
        | "SocName" :: _ -> fail lineno "SocName takes exactly one token"
        | "Module" :: id :: rest ->
          let id = int_of_token lineno id in
          let mk = parse_module_header lineno rest in
          (lineno, name, mk id :: modules)
        | "Test" :: index :: rest -> (
          let index = int_of_token lineno index in
          let mk = parse_test_line lineno rest in
          match modules with
          | [] -> fail lineno "Test before any Module"
          | m :: others -> (lineno, name, { m with tests = mk index :: m.tests } :: others))
        | tok :: _ -> fail lineno "unknown directive %S" tok
      in
      let _, name, modules = List.fold_left step (0, None, []) lines in
      match name with
      | None -> fail 0 "missing SocName directive"
      | Some name ->
        let t =
          {
            name;
            modules = List.rev_map (fun m -> { m with tests = List.rev m.tests }) modules;
          }
        in
        (match validate t with
        | Ok () -> t
        | Error message -> fail 0 "%s" message)
  end

  module Lint = struct
    module Codes = struct
      include Msoc_check.Codes

      let w301 = "MSOC-W301"
    end

    type state = {
      mutable socname_line : int option;
      ids : (int, int) Hashtbl.t;  (* core id -> first line *)
      names : (string, int) Hashtbl.t;  (* core name -> first line *)
      mutable modules : int;
      mutable diags : Diagnostic.t list;
    }

    let tokens_of_line s =
      String.split_on_char ' ' s
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun t -> t <> "")

    let strip_comment s =
      match String.index_opt s '#' with
      | Some i -> String.sub s 0 i
      | None -> s

    let note st ?file ~line ~code ~severity fmt =
      Format.kasprintf
        (fun m -> st.diags <- Diagnostic.make ?file ~line ~code ~severity m :: st.diags)
        fmt

    let lint_module st ?file ~line toks =
      let err code fmt = note st ?file ~line ~code ~severity:Diagnostic.Error fmt in
      let int_field key tok =
        match int_of_string_opt tok with
        | Some n -> Some n
        | None ->
          err Codes.e302 "field %s expects an integer, got %S" key tok;
          None
      in
      (* split the keyword/value stream, ScanChains consuming the tail *)
      let rec scalars acc = function
        | [] -> (acc, None)
        | "ScanChains" :: count :: rest -> (
          match int_field "ScanChains" count with
          | None -> (acc, None)
          | Some n -> (
            match rest with
            | [] when n = 0 -> (acc, Some [])
            | ":" :: lens ->
              if List.length lens <> n then
                err Codes.e304 "ScanChains %d but %d lengths given" n (List.length lens);
              (acc, Some (List.filter_map (int_field "ScanChains length") lens))
            | _ when n = 0 ->
              err Codes.e304 "unexpected tokens after ScanChains 0";
              (acc, Some [])
            | _ ->
              err Codes.e304 "ScanChains %d must be followed by ': l1 .. l%d'" n n;
              (acc, None)))
        | key :: value :: rest -> scalars ((key, value) :: acc) rest
        | [ tok ] ->
          err Codes.e302 "dangling token %S" tok;
          (acc, None)
      in
      let fields, chains = scalars [] toks in
      let chains = Option.value chains ~default:[] in
      List.iter
        (fun l -> if l <= 0 then err Codes.e307 "scan-chain length %d must be positive" l)
        chains;
      let get key =
        match List.assoc_opt key fields with
        | Some v -> int_field key v
        | None ->
          err Codes.e303 "missing field %s" key;
          None
      in
      (match List.assoc_opt "Name" fields with
      | None -> err Codes.e303 "missing field Name"
      | Some name -> (
        match Hashtbl.find_opt st.names name with
        | Some first ->
          err Codes.e308 "core name %s already used on line %d (test labels would collide)"
            name first
        | None -> Hashtbl.replace st.names name line));
      let inputs = get "Inputs" and outputs = get "Outputs" and bidirs = get "Bidirs" in
      let patterns = get "Patterns" in
      List.iter
        (fun (key, v) ->
          match v with
          | Some n when n < 0 -> err Codes.e302 "field %s must be non-negative, got %d" key n
          | Some _ | None -> ())
        [ ("Inputs", inputs); ("Outputs", outputs); ("Bidirs", bidirs) ];
      (match patterns with
      | Some p when p < 1 ->
        err Codes.e306 "Patterns %d: the core contributes no test (zero-length staircase)" p
      | Some _ | None -> ());
      (* a core with no scan cells and no terminals shifts nothing: its
         test-data volume, and hence its Pareto staircase, is empty *)
      match (inputs, outputs, bidirs) with
      | Some 0, Some 0, Some 0 when chains = [] ->
        err Codes.e309 "core has no scan cells and no terminals: nothing to test"
      | _ -> ()

    let string ?file text =
      let st =
        {
          socname_line = None;
          ids = Hashtbl.create 16;
          names = Hashtbl.create 16;
          modules = 0;
          diags = [];
        }
      in
      let err ~line code fmt = note st ?file ~line ~code ~severity:Diagnostic.Error fmt in
      let warn ~line code fmt =
        note st ?file ~line ~code ~severity:Diagnostic.Warning fmt
      in
      List.iteri
        (fun i raw ->
          let line = i + 1 in
          match tokens_of_line (strip_comment raw) with
          | [] -> ()
          | [ "SocName"; _ ] when st.socname_line = None -> st.socname_line <- Some line
          | "SocName" :: _ when st.socname_line <> None ->
            warn ~line Codes.w302 "SocName redeclared (first on line %d)"
              (Option.get st.socname_line)
          | "SocName" :: _ -> err ~line Codes.e302 "SocName takes exactly one token"
          | "Module" :: id :: rest -> (
            st.modules <- st.modules + 1;
            (match int_of_string_opt id with
            | None -> err ~line Codes.e302 "Module id expects an integer, got %S" id
            | Some id when id < 1 -> err ~line Codes.e302 "Module id must be >= 1, got %d" id
            | Some id -> (
              match Hashtbl.find_opt st.ids id with
              | Some first ->
                err ~line Codes.e301 "duplicate core id %d (first on line %d)" id first
              | None -> Hashtbl.replace st.ids id line));
            lint_module st ?file ~line rest)
          | tok :: _ -> warn ~line Codes.w301 "unknown directive %S (skipped)" tok)
        (String.split_on_char '\n' text);
      if st.socname_line = None then
        note st ?file ~line:1 ~code:Codes.e305 ~severity:Diagnostic.Error
          "missing SocName directive";
      if st.modules = 0 then
        note st ?file ~line:1 ~code:Codes.w303 ~severity:Diagnostic.Warning
          "SOC declares no cores";
      List.rev st.diags
  end
end

(* --- generated texts --- *)

let ( let* ) = QCheck.Gen.( >>= )

(* One line: its tokens apart by blanks and tabs, sometimes indented,
   sometimes with a comment. *)
let render toks =
  let open QCheck.Gen in
  let* lead = oneofl [ ""; ""; " "; "\t" ] in
  let* seps = list_repeat (List.length toks) (oneofl [ " "; " "; "\t"; "  " ]) in
  let* comment = frequency [ (6, return ""); (1, return " # a comment"); (1, return "#x y") ] in
  let body =
    match toks with [] -> "" | t :: rest -> t ^ String.concat "" (List.map2 ( ^ ) (List.tl seps) rest)
  in
  return (lead ^ body ^ comment)

let text_of lines =
  let open QCheck.Gen in
  let* lines = flatten_l (List.map render lines) in
  let* eol = oneofl [ "\n"; "" ] in
  return (String.concat "\n" lines ^ eol)

(* Tokens that read as something else, or as an integer only through
   int_of_string's wider syntax. *)
let odd_tokens =
  [ "x"; "1.5"; "99999999999999999999"; "999999999999999999"; "-4611686018427387904";
    "4611686018427387904"; "0x1F"; "+4"; "1_0"; "-0"; "07"; "-"; "0"; "-1"; ":";
    "ScanChains"; "Module"; "Name"; "Patterns"; "Inputs"; "SocName"; "Test"; "Level"; "#" ]

(* A line with one fault: a field set out of range, a token replaced,
   dropped or added, or the directive renamed. *)
let corrupt toks =
  let open QCheck.Gen in
  let n = List.length toks in
  let set key values =
    let rec go = function
      | k :: _ :: rest when k = key ->
        let* v = oneofl values in
        return (k :: v :: rest)
      | t :: rest -> map (List.cons t) (go rest)
      | [] -> return []
    in
    go toks
  in
  let at f =
    let* i = int_bound (max 0 (n - 1)) in
    let* tok = oneofl odd_tokens in
    return (List.concat (List.mapi (fun j t -> if j = i then f tok t else [ t ]) toks))
  in
  frequency
    [
      (3, set "Patterns" [ "0"; "-4" ]);
      (2, set "Inputs" [ "-1"; "x"; "0" ]);
      (1, set "Bidirs" [ "-2"; "0" ]);
      (1, set "Module" [ "0"; "-3"; "x"; "2" ]);
      (2, set ":" [ "0"; "-5"; "y" ]);
      (1, set "ScanChains" [ "2"; "0"; "-1"; "z" ]);
      (1, set "ScanUse" [ "2"; "0"; "true" ]);
      (1, set "Level" [ "4"; "0"; "-1" ]);
      (3, at (fun tok _ -> [ tok ]));
      (2, at (fun _ _ -> []));
      (2, at (fun tok t -> [ t; tok ]));
      (1, return (List.filteri (fun i _ -> i <> n - 1) toks));
      (1, map (fun d -> d :: List.tl toks) (oneofl [ "Test"; "Frobnicate"; "module"; "SocName" ]));
    ]

let sometimes_corrupt p toks =
  QCheck.Gen.(frequency [ (100 - p, return toks); (p, corrupt toks) ])

let pairs_and_chains pairs chains =
  let open QCheck.Gen in
  let* pairs = shuffle_l pairs in
  let* extra = frequency [ (8, return []); (1, return [ [ "Foo"; "3" ] ]); (1, return [ List.hd pairs ]) ] in
  let tail =
    "ScanChains" :: string_of_int (List.length chains)
    :: (if chains = [] then [] else ":" :: List.map string_of_int chains)
  in
  let* tail = frequency [ (9, return tail); (1, return []) ] in
  return (List.concat (pairs @ extra) @ tail)

let count = QCheck.Gen.(frequency [ (1, return 0); (4, int_range 1 60) ])

let name = QCheck.Gen.oneofl [ "a"; "b"; "cpu"; "dsp"; "c1"; "c2"; "io"; "mem_0"; "x\r" ]

let chains = QCheck.Gen.(list_size (int_range 0 4) (int_range 1 300))

(* Ids count up from [first]; now and then one repeats. *)
let ids ~first n =
  QCheck.Gen.(
    flatten_l
      (List.init n (fun i -> frequency [ (14, return (first + i)); (1, int_range first (first + i)) ])))

let socname_lines =
  QCheck.Gen.(
    frequency
      [
        (1, return []);
        (6, map (fun n -> [ [ "SocName"; n ] ]) name);
        (2, return [ [ "SocName"; "first" ]; [ "SocName"; "last" ] ]);
        (1, oneofl [ [ [ "SocName" ] ]; [ [ "SocName"; "a"; "b" ] ]; [ [ "SocName"; "s" ]; [ "SocName"; "b"; "c" ] ] ]);
      ])

let strays =
  QCheck.Gen.(
    frequency
      [
        (6, return []);
        ( 2,
          list_size (int_range 1 2)
            (oneofl [ []; [ "#"; "only"; "a"; "comment" ]; [ "Test"; "1"; "ScanUse"; "1" ]; [ "Frobnicate"; "1" ];
                      [ "Module" ]; [ "Level"; "2" ] ]) );
      ])

let flat_text =
  let open QCheck.Gen in
  let module_ id =
    let* name = name and* i = count and* o = count and* b = count and* p = int_range 1 500 and* chains = chains in
    let* fields =
      pairs_and_chains
        [ [ "Name"; name ]; [ "Inputs"; string_of_int i ]; [ "Outputs"; string_of_int o ];
          [ "Bidirs"; string_of_int b ]; [ "Patterns"; string_of_int p ] ]
        chains
    in
    sometimes_corrupt 15 ("Module" :: string_of_int id :: fields)
  in
  let* n = int_range 0 7 in
  let* ids = ids ~first:1 n in
  let* modules = flatten_l (List.map module_ ids) in
  let* socnames = socname_lines and* strays = strays in
  let* lines = shuffle_l (socnames @ modules @ strays) in
  text_of lines

let full_text =
  let open QCheck.Gen in
  let test k =
    let* s = int_bound 1 and* t = int_bound 1 and* p = int_range 1 500 in
    let* fields =
      shuffle_l [ [ "ScanUse"; string_of_int s ]; [ "TamUse"; string_of_int t ]; [ "Patterns"; string_of_int p ] ]
    in
    sometimes_corrupt 8 ("Test" :: string_of_int k :: List.concat fields)
  in
  let module_ id level =
    (* now and then a negative count: Ref let it through *)
    let* name = name and* i = count and* b = count and* chains = chains in
    let* o = frequency [ (15, count); (1, int_range (-3) (-1)) ] in
    let* fields =
      pairs_and_chains
        [ [ "Level"; string_of_int level ]; [ "Name"; name ]; [ "Inputs"; string_of_int i ];
          [ "Outputs"; string_of_int o ]; [ "Bidirs"; string_of_int b ] ]
        chains
    in
    let* header = sometimes_corrupt 10 ("Module" :: string_of_int id :: fields) in
    let* k = frequency [ (1, return 0); (12, int_range 1 3) ] in
    let* tests = flatten_l (List.init k (fun j -> test (j + 1))) in
    return (header :: tests)
  in
  (* each level at most one below the one before; now and then a skip *)
  let rec levels prev n =
    if n = 0 then return []
    else
      let* l = frequency [ (12, int_range (min prev 1) (prev + 1)); (1, return (prev + 2)) ] in
      map (List.cons l) (levels l (n - 1))
  in
  let* n = int_range 0 5 in
  let* first = oneofl [ 0; 1; 1; 1; -2 ] in
  let* ids = ids ~first n and* levels = levels 0 n in
  let* modules = flatten_l (List.map2 module_ ids levels) in
  let* socnames = socname_lines and* strays = strays in
  let* early = frequency [ (12, return []); (1, return [ [ "Test"; "1"; "ScanUse"; "1"; "TamUse"; "1"; "Patterns"; "3" ] ]) ] in
  text_of (early @ socnames @ List.concat modules @ strays)

(* One token of a text replaced, dropped or repeated, or one added. *)
let mutate text =
  let open QCheck.Gen in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let* i = int_bound (Array.length lines - 1) in
  let toks = String.split_on_char ' ' lines.(i) in
  let* j = int_bound (List.length toks - 1) and* tok = oneofl odd_tokens in
  let* op = int_bound 3 in
  let toks =
    List.concat
      (List.mapi
         (fun k t ->
           if k <> j then [ t ] else match op with 0 -> [ tok ] | 1 -> [] | 2 -> [ t; t ] | _ -> [ t; tok ])
         toks)
  in
  lines.(i) <- String.concat " " toks;
  return (String.concat "\n" (Array.to_list lines))

let p93791s = lazy (In_channel.with_open_bin "../data/p93791s.soc" In_channel.input_all)

let flat_texts =
  QCheck.Gen.(frequency [ (3, flat_text); (1, delay (fun () -> mutate (Lazy.force p93791s))) ])

let full_texts =
  let p93791s_full = lazy (Fixtures.full_to_string (Fixtures.full_of_flat (Soc_file.of_string (Lazy.force p93791s)))) in
  QCheck.Gen.(frequency [ (3, full_text); (1, delay (fun () -> mutate (Lazy.force p93791s_full))) ])

(* --- properties --- *)

type 'a outcome = Loaded of 'a | Refused of int | Escaped of exn

(* Ref's refusals: its line (0 for a whole-file error), or 0 for an
   [Invalid_argument], which named none. *)
let reference f text =
  match f text with
  | v -> Loaded v
  | exception Ref.Soc_file.Parse_error { line; _ } -> Refused line
  | exception Ref.Full.Parse_error { line; _ } -> Refused line
  | exception Invalid_argument _ -> Refused 0
  | exception e -> Escaped e

let fresh f text =
  match f text with
  | v -> Loaded v
  | exception Soc_file.Parse_error { line; _ } -> Refused line
  | exception e -> Escaped e

(* A refusal at a line >= 1, Ref's wherever Ref named one. *)
let same_refusal ref_line = function
  | Refused line -> line >= 1 && (ref_line = 0 || ref_line = line)
  | Loaded _ | Escaped _ -> false

let loader_flat text =
  match (reference (Ref.Soc_file.of_string ?file:None) text, fresh (Soc_file.of_string ?file:None) text) with
  | Loaded a, Loaded b -> a = b
  | Refused line, got -> same_refusal line got
  | (Loaded _ | Escaped _), _ -> false

let of_ref (t : Ref.Full.t) =
  let test (x : Ref.Full.test) =
    { Full.index = x.index; scan_use = x.scan_use; tam_use = x.tam_use; patterns = x.patterns }
  in
  let module_ (m : Ref.Full.module_) =
    { Full.id = m.id; level = m.level; name = m.name; inputs = m.inputs; outputs = m.outputs;
      bidirs = m.bidirs; scan_chains = m.scan_chains; tests = List.map test m.tests }
  in
  { Full.name = t.name; modules = List.map module_ t.modules }

(* What the hierarchical loader refuses now that Ref let through. *)
let range_fault (m : Ref.Full.module_) =
  m.inputs < 0 || m.outputs < 0 || m.bidirs < 0 || List.exists (fun l -> l <= 0) m.scan_chains

let module_lines text =
  List.filter_map
    (fun (i, l) ->
      match Ref.Full.tokens_of_line (Ref.Full.strip_comment l) with
      | "Module" :: _ :: _ -> Some i
      | _ -> None)
    (List.mapi (fun i l -> (i + 1, l)) (String.split_on_char '\n' text))

let loader_full text =
  match (reference Ref.Full.of_string text, fresh Full.of_string text) with
  | Loaded a, got -> (
    match (List.find_index range_fault a.modules, got) with
    | None, Loaded b -> of_ref a = b
    | Some k, Refused line -> line = List.nth (module_lines text) k
    | _, (Loaded _ | Refused _ | Escaped _) -> false)
  | Refused line, got -> same_refusal line got
  | Escaped _, _ -> false

let triples ds =
  List.sort compare
    (List.map (fun (d : Diagnostic.t) -> (d.code, d.severity, d.location.line)) ds)

(* Ref's findings, with the two it got wrong turned into the loader's
   E302 on the same line. *)
let lint_agrees text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let socname_arity line =
    match Ref.Lint.tokens_of_line (Ref.Lint.strip_comment lines.(line - 1)) with
    | "SocName" :: rest -> List.length rest <> 1
    | _ -> false
  in
  let now (d : Diagnostic.t) =
    match d.location.line with
    | Some line when d.code = Ref.Lint.Codes.w301 || (d.code = Codes.w302 && socname_arity line) ->
      { d with code = Codes.e302; severity = Diagnostic.Error }
    | Some _ | None -> d
  in
  triples (Fixtures.lint_text text) = triples (List.map now (Ref.Lint.string text))

let lint_clean_loads text =
  let ds = Fixtures.lint_text text in
  match Soc_file.of_string text with
  | _ -> true
  | exception Soc_file.Parse_error { line; _ } ->
    List.exists
      (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error && d.location.line = Some line)
      ds

let suites =
  let property name gen prop =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name ~count:1000 (QCheck.make ~print:Fun.id gen) prop)
  in
  [
    ( "soc-ref.property",
      [
        property "flat loader = reference" flat_texts loader_flat;
        property "hierarchical loader = reference" full_texts loader_full;
        property "lint = reference, unknown directives now E302" flat_texts lint_agrees;
        property "lint-clean loads, a refusal has its error" flat_texts lint_clean_loads;
      ] );
  ]
