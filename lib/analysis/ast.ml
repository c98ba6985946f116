(* Parsing the project's own sources to Parsetree via
   compiler-libs.common.

   The analyzer never type-checks: it parses each .ml/.mli with the
   stock OCaml parser and every rule walks the resulting Parsetree.
   A parse is a plain function of the text; [Project.load] calls it
   once per module, so no cache is kept.

   Parse failures are data, not exceptions: a file the parser rejects
   (syntax extension, mid-edit state) is skipped by every rule and
   reported as MSOC-S406. *)

type impl = (Parsetree.structure, string) result

type intf = (Parsetree.signature, string) result

let describe_error ~path = function
  | Syntaxerr.Error err ->
    let loc = Syntaxerr.location_of_error err in
    Printf.sprintf "%s:%d: syntax error" path loc.Location.loc_start.Lexing.pos_lnum
  | Lexer.Error (_, loc) ->
    Printf.sprintf "%s:%d: lexical error" path loc.Location.loc_start.Lexing.pos_lnum
  | e -> Printf.sprintf "%s: parse failed: %s" path (Printexc.to_string e)

let parse parser ~path text =
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf path;
  match parser lexbuf with
  | ast -> Ok ast
  | exception e -> Error (describe_error ~path e)

let parse_impl ~path text = parse Parse.implementation ~path text

let parse_intf ~path text = parse Parse.interface ~path text

(* --- small Parsetree helpers shared by the rule modules --- *)

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let ident_path (lid : Longident.t) = Longident.flatten lid

(* [path_string (Ldot (Lident "Mutex") "lock")] is ["Mutex.lock"]. *)
let path_string lid = String.concat "." (ident_path lid)

(* --- the paths a structure names --- *)

type kind = Value | Member | Module | Open | Include | Alias of string

type reference = {
  kind : kind;
  path : string list;
  line : int;
  labels : string list;
}

let rec components (lid : Longident.t) =
  match lid with
  | Lident s -> Some [ s ]
  | Ldot (p, s) -> Option.map (fun c -> c @ [ s ]) (components p)
  | Lapply _ -> None

(* One walk over the whole structure, types, patterns and module
   language included (the codebase has no classes, so class paths are
   not collected). A path through a functor application
   ([Set.Make(String).t]) contributes the functor and its argument as
   module paths. An identifier applied to arguments carries the labels
   the application passes. *)
let references str =
  let refs = ref [] in
  let rec note_lid ?(labels = []) kind line (lid : Longident.t) =
    match (components lid, lid) with
    | Some path, _ -> refs := { kind; path; line; labels } :: !refs
    | None, Lapply (f, x) ->
      note_lid Module line f;
      note_lid Module line x
    | None, Ldot (p, _) -> note_lid Module line p
    | None, Lident _ -> ()
  in
  let note ?labels kind (lid : Longident.t Location.loc) =
    note_lid ?labels kind (line_of lid.loc) lid.txt
  in
  let open Parsetree in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args) ->
            let labels =
              List.filter_map
                (function
                  | (Asttypes.Labelled l | Asttypes.Optional l), _ -> Some l
                  | Asttypes.Nolabel, _ -> None)
                args
            in
            note ~labels Value lid;
            List.iter (fun (_, a) -> self.expr self a) args
          | _ ->
            (match e.pexp_desc with
            | Pexp_ident lid -> note Value lid
            | Pexp_construct (lid, _)
            | Pexp_field (_, lid)
            | Pexp_setfield (_, lid, _) ->
              note Member lid
            | Pexp_record (fields, _) ->
              List.iter (fun (lid, _) -> note Member lid) fields
            | _ -> ());
            default_iterator.expr self e);
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_construct (lid, _) | Ppat_type lid -> note Member lid
          | Ppat_record (fields, _) ->
            List.iter (fun (lid, _) -> note Member lid) fields
          | Ppat_open (lid, _) -> note Open lid
          | _ -> ());
          default_iterator.pat self p);
      typ =
        (fun self t ->
          (match t.ptyp_desc with
          | Ptyp_constr (lid, _) -> note Member lid
          | Ptyp_package (lid, constraints) ->
            note Module lid;
            List.iter (fun (lid, _) -> note Member lid) constraints
          | _ -> ());
          default_iterator.typ self t);
      module_expr =
        (fun self m ->
          (match m.pmod_desc with Pmod_ident lid -> note Module lid | _ -> ());
          default_iterator.module_expr self m);
      module_type =
        (fun self m ->
          (match m.pmty_desc with
          | Pmty_ident lid | Pmty_alias lid -> note Module lid
          | _ -> ());
          default_iterator.module_type self m);
      module_binding =
        (fun self mb ->
          (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
          | Some name, Pmod_ident lid -> note (Alias name) lid
          | _ -> ());
          default_iterator.module_binding self mb);
      open_declaration =
        (fun self od ->
          (match od.popen_expr.pmod_desc with
          | Pmod_ident lid -> note Open lid
          | _ -> ());
          default_iterator.open_declaration self od);
      open_description =
        (fun self od ->
          note Open od.popen_expr;
          default_iterator.open_description self od);
      include_declaration =
        (fun self incl ->
          (match incl.pincl_mod.pmod_desc with
          | Pmod_ident lid -> note Include lid
          | _ -> ());
          default_iterator.include_declaration self incl);
      include_description =
        (fun self incl ->
          (match incl.pincl_mod.pmty_desc with
          | Pmty_ident lid -> note Include lid
          | _ -> ());
          default_iterator.include_description self incl);
      type_extension =
        (fun self te ->
          note Member te.ptyext_path;
          default_iterator.type_extension self te);
    }
  in
  it.structure it str;
  List.rev !refs
