(* The module-qualified def/use graph over the whole project.

   Definitions are the top-level value bindings of every module that
   parses (one nesting level of [module X = struct .. end] included,
   named ["X.f"]). Uses are the identifier references in each body,
   resolved module-qualified: a [Cache.find] inside lib/serve resolves
   to the sibling module, [Msoc_check.Diagnostic.make] resolves across
   libraries, and per-file [module E = Msoc_testplan.Export] aliases
   are expanded. Unresolved paths (stdlib, locals) simply do not
   become edges — the graph is conservative in the direction the
   rules need: an edge exists only when the target is certainly the
   project function named.

   Built once per engine run from the Parsetrees Project.load already
   holds, so the graph costs one Parsetree walk per file. *)

open Parsetree

type def = {
  key : string;  (* "lib/serve/cache.ml#Lru.find" — globally unique *)
  module_name : string;  (* "Cache" *)
  ml_path : string;
  name : string;  (* "find" or "Lru.find" *)
  line : int;
  body : expression;
}

type t = {
  defs : def list;
  by_key : (string, def) Hashtbl.t;
  calls : (string, string list) Hashtbl.t;  (* def key -> callee keys *)
}

let def_key ~ml_path name = ml_path ^ "#" ^ name

(* --- collecting definitions and aliases from one structure --- *)

let pattern_name p =
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (inner, _) -> go inner
    | _ -> None
  in
  go p

let structure_defs ~ml_path str =
  let defs = ref [] in
  let aliases = ref [] in
  let add_item ~prefix item =
    match item.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          match pattern_name vb.pvb_pat with
          | Some name ->
            let name = prefix ^ name in
            defs :=
              {
                key = def_key ~ml_path name;
                module_name = "";  (* filled by the builder *)
                ml_path;
                name;
                line = Ast.line_of vb.pvb_loc;
                body = vb.pvb_expr;
              }
              :: !defs
          | None -> ())
        vbs
    | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ } -> (
      match pmb_expr.pmod_desc with
      | Pmod_ident { txt; _ } when prefix = "" ->
        aliases := (sub, Ast.ident_path txt) :: !aliases
      | Pmod_structure sub_items when prefix = "" ->
        List.iter
          (fun sub_item ->
            match sub_item.pstr_desc with
            | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match pattern_name vb.pvb_pat with
                  | Some name ->
                    let name = sub ^ "." ^ name in
                    defs :=
                      {
                        key = def_key ~ml_path name;
                        module_name = "";
                        ml_path;
                        name;
                        line = Ast.line_of vb.pvb_loc;
                        body = vb.pvb_expr;
                      }
                      :: !defs
                | None -> ())
                vbs
            | _ -> ())
          sub_items
      | _ -> ())
    | _ -> ()
  in
  List.iter (add_item ~prefix:"") str;
  (List.rev !defs, List.rev !aliases)

(* --- reference resolution --- *)

(* Resolution context of one file: its own defs, its per-file module
   aliases, its sibling modules (same lib), every library's exposed
   name, and the libraries it opens. *)
type resolver = {
  self_path : string;
  self_defs : (string, unit) Hashtbl.t;  (* local def names, incl "Sub.f" *)
  aliases : (string * string list) list;
  lib_of_exposed : (string, Project.lib) Hashtbl.t;  (* "Msoc_serve" -> lib *)
  module_by_lib : (string * string, string) Hashtbl.t;
      (* (lib dir, module name) -> ml_path *)
  sibling_dir : string option;  (* lib dir of the file, if any *)
  opened : string list;  (* lib dirs pulled in by [open Msoc_x] *)
}

let expand_alias r components =
  match components with
  | head :: rest -> (
    match List.assoc_opt head r.aliases with
    | Some target -> target @ rest
    | None -> components)
  | [] -> []

(* [resolve r components] maps a dotted reference to a def key. *)
let resolve r components =
  let components = expand_alias r components in
  let find_in_dir dir modname name =
    match Hashtbl.find_opt r.module_by_lib (dir, modname) with
    | Some ml_path ->
      (* nested "Sub.f" defs resolve through their module's key *)
      Some (def_key ~ml_path name)
    | None -> None
  in
  match components with
  | [] -> None
  | [ name ] ->
    if Hashtbl.mem r.self_defs name then
      Some (def_key ~ml_path:r.self_path name)
    else None
  | [ m; name ] -> (
    if Hashtbl.mem r.self_defs (m ^ "." ^ name) then
      (* nested module of this very file *)
      Some (def_key ~ml_path:r.self_path (m ^ "." ^ name))
    else
      match r.sibling_dir with
      | Some dir when find_in_dir dir m name <> None -> find_in_dir dir m name
      | _ ->
        List.find_map (fun dir -> find_in_dir dir m name) r.opened)
  | m1 :: m2 :: rest -> (
    (* fully qualified: Msoc_lib.Module.value (value may be Sub.f) *)
    match Hashtbl.find_opt r.lib_of_exposed m1 with
    | Some lib -> find_in_dir lib.Project.dir m2 (String.concat "." rest)
    | None -> (
      (* Module.Sub.f within the same lib *)
      match (rest, r.sibling_dir) with
      | [ f ], Some dir -> find_in_dir dir m1 (m2 ^ "." ^ f)
      | _ -> None))

let body_refs e =
  let refs = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt; _ } -> refs := Ast.ident_path txt :: !refs
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  List.rev !refs

(* --- building the graph --- *)

let build (p : Project.t) =
  let parsed =
    List.filter_map
      (fun (m : Project.module_info) ->
        match m.Project.ast with Ok str -> Some (m, str) | Error _ -> None)
      p.Project.modules
  in
  let lib_of_exposed = Hashtbl.create 16 in
  List.iter
    (fun (lib : Project.lib) ->
      Hashtbl.replace lib_of_exposed (Project.exposed_name lib) lib)
    p.Project.libs;
  let module_by_lib = Hashtbl.create 64 in
  List.iter
    (fun ((m : Project.module_info), _) ->
      match m.Project.owner with
      | Some lib ->
        Hashtbl.replace module_by_lib
          (lib.Project.dir, m.Project.name)
          m.Project.ml_path
      | None -> ())
    parsed;
  let all_defs = ref [] in
  let by_key = Hashtbl.create 512 in
  let per_file =
    List.map
      (fun ((m : Project.module_info), str) ->
        let defs, aliases = structure_defs ~ml_path:m.Project.ml_path str in
        let defs =
          List.map (fun d -> { d with module_name = m.Project.name }) defs
        in
        List.iter
          (fun d ->
            all_defs := d :: !all_defs;
            Hashtbl.replace by_key d.key d)
          defs;
        (m, defs, aliases))
      parsed
  in
  let calls = Hashtbl.create 512 in
  List.iter
    (fun ((m : Project.module_info), defs, aliases) ->
      let self_defs = Hashtbl.create 32 in
      List.iter (fun d -> Hashtbl.replace self_defs d.name ()) defs;
      let opened =
        List.map
          (fun (l : Project.lib) -> l.Project.dir)
          (Project.opened_libs p m)
      in
      let r =
        {
          self_path = m.Project.ml_path;
          self_defs;
          aliases;
          lib_of_exposed;
          module_by_lib;
          sibling_dir =
            Option.map (fun (l : Project.lib) -> l.Project.dir) m.Project.owner;
          opened;
        }
      in
      List.iter
        (fun d ->
          let callees =
            body_refs d.body
            |> List.filter_map (resolve r)
            |> List.filter (fun k -> k <> d.key && Hashtbl.mem by_key k)
            |> List.sort_uniq compare
          in
          Hashtbl.replace calls d.key callees)
        defs)
      per_file;
  { defs = List.rev !all_defs; by_key; calls }

let defs t = t.defs

let find t key = Hashtbl.find_opt t.by_key key

let callees t key = Option.value (Hashtbl.find_opt t.calls key) ~default:[]

module StringSet = Set.Make (String)

(* The union closure over callees, round-robin to the fixpoint: the
   sets only grow and are finite, so the sweep ends. A key that names
   two definitions (a shadowed top-level binding) takes both seeds. *)
let close t seed =
  let table = Hashtbl.create 512 in
  let closed key =
    Option.value (Hashtbl.find_opt table key) ~default:StringSet.empty
  in
  List.iter
    (fun d ->
      Hashtbl.replace table d.key (StringSet.union (closed d.key) (seed d)))
    t.defs;
  let rec sweep () =
    let grew =
      List.fold_left
        (fun grew d ->
          let current = closed d.key in
          let merged =
            List.fold_left
              (fun acc callee -> StringSet.union acc (closed callee))
              current (callees t d.key)
          in
          if StringSet.equal merged current then grew
          else begin
            Hashtbl.replace table d.key merged;
            true
          end)
        false t.defs
    in
    if grew then sweep ()
  in
  sweep ();
  closed

(* Chasing one reference from a known definition site: the value name
   must match a callee; a module hint (last qualifier) narrows
   multiple candidates. Over-matching is accepted — the interprocedural
   rules prefer a false edge over a missed one. Rebuilding a resolver
   per query would be wasteful, so resolution happens against the
   callee keys computed at build time. *)
let resolve_call t (d : def) lid =
  let comps = Ast.ident_path lid in
  match List.rev comps with
  | [] -> []
  | value :: quals_rev -> (
    let candidates =
      callees t d.key
      |> List.filter_map (fun key -> find t key)
      |> List.filter (fun (c : def) ->
             let last =
               match String.rindex_opt c.name '.' with
               | Some i ->
                 String.sub c.name (i + 1) (String.length c.name - i - 1)
               | None -> c.name
             in
             last = value)
    in
    match quals_rev with
    | [] -> candidates
    | m :: _ ->
      let narrowed =
        List.filter
          (fun (c : def) ->
            c.module_name = m || c.name = m ^ "." ^ value)
          candidates
      in
      if narrowed <> [] then narrowed else candidates)
