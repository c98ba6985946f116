(* The rule families.

   Concurrency (S101): PRs 1-4 made the planner parallel — a Domain
   pool, per-connection reader threads, a racing portfolio — and any
   library module can run under them, so its module-level mutable
   state is shared state. Exception safety (S2xx): a catch-all that drops the
   exception turns a crash into silent corruption. Hygiene (S3xx):
   every library module keeps a .mli, every stanza keeps
   warnings-as-errors, stdout belongs to the CLI. Lock discipline and
   the interprocedural tiers live in Semantic.

   Every OCaml rule reads the Parsetree Project.load parsed, so
   strings and comments never fire a rule; a module that does not
   parse is skipped and reported once, as S406. *)

open Parsetree
module Codes = Msoc_check.Codes

(* Substrings every dune stanza must carry (S302): the
   warnings-as-errors set. *)
let required_flags = [ "-w +a-4-40-41-42-44-45-70"; "-warn-error +a" ]

let lib_modules (p : Project.t) =
  List.filter (fun (m : Project.module_info) -> m.Project.owner <> None)
    p.Project.modules

(* [ends_with suffix path]: [["exit"]] matches [exit] and
   [Stdlib.exit]; [["Printf"; "printf"]] matches [Printf.printf]. *)
let ends_with suffix path =
  let n = List.length path and k = List.length suffix in
  n >= k && List.filteri (fun i _ -> i >= n - k) path = suffix

(* Lines of the value paths in [m] that [matches] selects, one per
   line, ascending. *)
let value_lines (m : Project.module_info) matches =
  List.filter_map
    (fun (r : Ast.reference) ->
      if r.Ast.kind = Ast.Value && matches r.Ast.path then Some r.Ast.line
      else None)
    m.Project.refs
  |> List.sort_uniq compare

(* Lines of the expressions in [m] for which [hit] names a line, one
   per line, ascending. *)
let expr_lines (m : Project.module_info) hit =
  match m.Project.ast with
  | Error _ -> []
  | Ok str ->
    let lines = ref [] in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self e ->
            lines := hit e @ !lines;
            Ast_iterator.default_iterator.expr self e);
      }
    in
    it.structure it str;
    List.sort_uniq compare !lines

(* --- S101: module-level mutable state under concurrency --- *)

(* No tree has ever fired S101. It stays because a realistic mutant
   is caught by it and by no test: a module-level [let expansions =
   ref 0] bumped in [Bnb.run] fails only the runs of the analyzer
   itself (analysis-dogfood, robustness.cli "bad analyze file
   options"). *)

let mutable_triggers =
  [
    ("ref", fun path -> path = [ "ref" ]);
    ("Hashtbl.create", ends_with [ "Hashtbl"; "create" ]);
    ("Buffer.create", ends_with [ "Buffer"; "create" ]);
    ("Queue.create", ends_with [ "Queue"; "create" ]);
  ]

(* Value paths a structure-level binding evaluates when the module
   initializes: function bodies run later, per call, so the walk stops
   at every [fun]/[function]. *)
let init_time_values (e : expression) =
  let found = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> ()
          | Pexp_ident { txt; _ } ->
            found := Ast.ident_path txt :: !found
          | _ -> Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !found

(* A structure-level binding that creates a mutable container at
   module initialization, with the first trigger it evaluates in
   [mutable_triggers] order. *)
let toplevel_mutable_bindings str =
  List.concat_map
    (fun (item : structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.filter_map
          (fun (vb : value_binding) ->
            let values = init_time_values vb.pvb_expr in
            List.find_map
              (fun (tok, matches) ->
                if List.exists matches values then
                  Some (Ast.line_of vb.pvb_loc, tok)
                else None)
              mutable_triggers)
          vbs
      | _ -> [])
    str

let rule_concurrent_state p =
  List.concat_map
    (fun (m : Project.module_info) ->
      let guarded () =
        List.exists
          (fun (r : Ast.reference) ->
            List.mem "Mutex" r.Ast.path || List.mem "Atomic" r.Ast.path)
          m.Project.refs
      in
      match m.Project.ast with
      | Ok str when not (guarded ()) ->
        List.map
          (fun (line, tok) ->
            Codes.diag ~file:m.Project.ml_path ~line Codes.s101
              "module-level %s in a library module, with no Atomic/Mutex in \
               scope — guard it or allowlist the audited exception"
              tok)
          (toplevel_mutable_bindings str)
      | _ -> [])
    (lib_modules p)

(* --- S201: catch-all exception handlers --- *)

let unguarded_lines pred (cases : case list) =
  List.filter_map
    (fun (c : case) ->
      if c.pc_guard = None && pred c.pc_lhs then
        Some (Ast.line_of c.pc_lhs.ppat_loc)
      else None)
    cases

let is_any (p : pattern) = p.ppat_desc = Ppat_any

(* [try … with _ ->] and [| exception _ ->]; a plain match wildcard is
   exhaustiveness, not exception swallowing. *)
let catch_all_lines (e : expression) =
  match e.pexp_desc with
  | Pexp_try (_, cases) -> unguarded_lines is_any cases
  | Pexp_match (_, cases) | Pexp_function cases ->
    unguarded_lines
      (fun p ->
        match p.ppat_desc with
        | Ppat_exception inner -> is_any inner
        | _ -> false)
      cases
  | _ -> []

let rule_catch_all (p : Project.t) =
  List.concat_map
    (fun (m : Project.module_info) ->
      List.map
        (fun line ->
          Codes.diag ~file:m.Project.ml_path ~line Codes.s201
            "catch-all handler drops the exception — match the specific \
             exceptions or re-raise")
        (expr_lines m catch_all_lines))
    p.Project.modules

(* --- S202/S203/S204/S303: library-only hygiene --- *)

let lib_rule ~code ~message lines_of p =
  List.concat_map
    (fun (m : Project.module_info) ->
      List.map
        (fun line -> Codes.diag ~file:m.Project.ml_path ~line code "%s" message)
        (lines_of m))
    (lib_modules p)

let assert_false_lines (e : expression) =
  match e.pexp_desc with
  | Pexp_assert
      { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
    [ Ast.line_of e.pexp_loc ]
  | _ -> []

let rule_assert_false p =
  lib_rule ~code:Codes.s202
    ~message:
      "assert false in library code — prefer a typed error or an \
       invariant-carrying exception"
    (fun m -> expr_lines m assert_false_lines)
    p

(* No tree has ever fired S203. It stays because a realistic mutant is
   caught by it and by no test: an [exit 2] for the [invalid_arg] on
   [Problem]'s bad-MSOC_MAX_COMBINATIONS path fails only the runs of
   the analyzer itself (analysis-dogfood, robustness.cli "bad analyze
   file options"). *)
let rule_lib_exit p =
  lib_rule ~code:Codes.s203
    ~message:"exit called from library code — only the CLI owns the process"
    (fun m -> value_lines m (ends_with [ "exit" ]))
    p

let rule_lib_failwith p =
  lib_rule ~code:Codes.s204
    ~message:
      "failwith in library code — raise a typed exception the caller can \
       match"
    (fun m -> value_lines m (ends_with [ "failwith" ]))
    p

(* --- S301: every library .ml has a .mli --- *)

(* No tree has ever fired S301. It stays because a realistic mutant is
   caught by it and by no test: deleting lib/search/budget.mli builds
   and fails only the runs of the analyzer itself. *)

let rule_missing_mli (p : Project.t) =
  List.filter_map
    (fun (m : Project.module_info) ->
      if m.Project.mli_path = None then
        Some
          (Codes.diag ~file:m.Project.ml_path ~line:1 Codes.s301
             "library module %s has no .mli — every library interface is \
              explicit"
             m.Project.name)
      else None)
    (lib_modules p)

(* --- S302: dune stanzas keep warnings-as-errors --- *)

(* [word] occurs in [line] bounded by non-identifier characters. *)
let has_word line word =
  let ident c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
    | _ -> false
  in
  let n = String.length line and m = String.length word in
  let rec go i =
    i + m <= n
    && ((String.sub line i m = word
        && (i = 0 || not (ident line.[i - 1]))
        && (i + m = n || not (ident line.[i + m])))
       || go (i + 1))
  in
  go 0

let rule_dune_flags (p : Project.t) =
  List.concat_map
    (fun dune ->
      let text = Source.text dune in
      let anchor =
        let stanza line =
          List.exists (has_word line)
            [ "library"; "executable"; "executables"; "test" ]
        in
        let rec first i = function
          | [] -> 1
          | line :: rest -> if stanza line then i else first (i + 1) rest
        in
        first 1 (Array.to_list (Source.raw dune))
      in
      List.filter_map
        (fun flag ->
          let contains s sub =
            let n = String.length s and m = String.length sub in
            let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
            m > 0 && go 0
          in
          if contains text flag then None
          else
            Some
              (Codes.diag ~file:(Source.path dune) ~line:anchor Codes.s302
                 "stanza is missing %S — every build keeps \
                  warnings-as-errors"
                 flag))
        required_flags)
    p.Project.dune_files

(* --- S303: no stdout printing in libraries --- *)

let stdout_paths =
  List.map
    (fun name -> (name, [ name ]))
    [
      "print_string"; "print_endline"; "print_newline"; "print_char";
      "print_int"; "print_float"; "print_bytes";
    ]
  @ [
      ("Printf.printf", [ "Printf"; "printf" ]);
      ("Format.printf", [ "Format"; "printf" ]);
      ("Fmt.pr", [ "Fmt"; "pr" ]);
    ]

let rule_stdout_in_lib p =
  List.concat_map
    (fun (name, suffix) ->
      lib_rule ~code:Codes.s303
        ~message:
          (Printf.sprintf
             "%s writes to stdout from library code — return the rendering \
              and let the CLI print it"
             name)
        (fun m -> value_lines m (ends_with suffix))
        p)
    stdout_paths

(* --- all rules --- *)

let run p =
  rule_concurrent_state p
  @ Semantic.run p
  @ rule_catch_all p
  @ rule_assert_false p
  @ rule_lib_exit p
  @ rule_lib_failwith p
  @ rule_missing_mli p
  @ rule_dune_flags p
  @ rule_stdout_in_lib p
