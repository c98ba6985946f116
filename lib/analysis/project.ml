(* Repository discovery and the module-reference graph.

   The analyzer works on the checked-out tree itself: libraries are
   the [lib/<dir>] directories owning a [dune] file with a
   [(name ...)] stanza, modules are their [.ml] files, and the
   executables of [bin], [test], [bench], [bench/suite] and [examples]
   join the scan without joining the library-only checks. Every module
   is parsed once, here, with [Ast.parse_impl]; edges are the module paths its Parsetree names,
   which is exactly what the reachability rule (MSOC-S101) needs: if a
   module is named by code that runs under the domain pool or the
   server threads, its module-level state is shared state. *)

type lib = {
  dir : string;  (* "lib/serve" *)
  name : string;  (* "msoc_serve" *)
  dune_path : string;
}

type module_info = {
  owner : lib option;  (* [None] outside lib/ *)
  name : string;  (* "Pool" *)
  ml_path : string;  (* "lib/util/pool.ml" *)
  mli_path : string option;
  source : Source.t;
  ast : Ast.impl;
  refs : Ast.reference list;  (* [] when the module does not parse *)
}

type t = {
  root : string;
  libs : lib list;
  modules : module_info list;
  dune_files : Source.t list;
}

let module_name_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* [(name foo)] extraction from a dune file: the stanza grammar keeps
   names on their own token. *)
let dune_lib_name text =
  let tokens =
    String.split_on_char '\n' text
    |> List.concat_map (fun line ->
           String.split_on_char '(' line
           |> List.concat_map (String.split_on_char ')'))
  in
  List.find_map
    (fun tok ->
      match String.split_on_char ' ' (String.trim tok) with
      | [ "name"; n ] when n <> "" -> Some n
      | _ -> None)
    tokens

let list_dir root rel =
  let abs = Filename.concat root rel in
  if Sys.file_exists abs && Sys.is_directory abs then
    Array.to_list (Sys.readdir abs) |> List.sort compare
  else []

let join a b = a ^ "/" ^ b

(* Parsing happens here, once per module, before any rule runs. *)
let module_info ~root ~owner ml_path ~mli_path =
  let source = Source.load ~root ml_path in
  let ast = Ast.parse_impl ~path:ml_path (Source.text source) in
  {
    owner;
    name = module_name_of_path ml_path;
    ml_path;
    mli_path;
    source;
    ast;
    refs = (match ast with Ok str -> Ast.references str | Error _ -> []);
  }

let load ~root =
  let lib_dirs =
    list_dir root "lib"
    |> List.filter (fun d -> Sys.is_directory (Filename.concat root (join "lib" d)))
    |> List.map (fun d -> join "lib" d)
  in
  let libs =
    List.filter_map
      (fun dir ->
        let dune_path = join dir "dune" in
        if Sys.file_exists (Filename.concat root dune_path) then
          let text = Source.read_file (Filename.concat root dune_path) in
          match dune_lib_name text with
          | Some name -> Some { dir; name; dune_path }
          | None -> None
        else None)
      lib_dirs
  in
  let lib_modules lib =
    list_dir root lib.dir
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.map (fun f ->
           let ml_path = join lib.dir f in
           let mli = ml_path ^ "i" in
           module_info ~root ~owner:(Some lib) ml_path
             ~mli_path:
               (if Sys.file_exists (Filename.concat root mli) then Some mli
                else None))
  in
  (* The executable directories are flat: their modules join the scan
     (exception-safety, lock rules, semantic tier, and, outside test/,
     the uses S505 counts) without joining the library-only hygiene
     checks. *)
  let exe_dirs = [ "bin"; "test"; "bench"; "bench/suite"; "examples" ] in
  let flat_modules dir =
    list_dir root dir
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.map (fun f -> module_info ~root ~owner:None (join dir f) ~mli_path:None)
  in
  let extra_dune dir =
    let path = join dir "dune" in
    if Sys.file_exists (Filename.concat root path) then
      [ Source.load ~root path ]
    else []
  in
  let dune_files =
    List.map (fun lib -> Source.load ~root lib.dune_path) libs
    @ List.concat_map extra_dune exe_dirs
  in
  {
    root;
    libs;
    modules = List.concat_map lib_modules libs @ List.concat_map flat_modules exe_dirs;
    dune_files;
  }

(* --- module references --- *)

let exposed_name (lib : lib) = String.capitalize_ascii lib.name

let opened_libs t (m : module_info) =
  List.filter
    (fun lib ->
      List.exists
        (fun (r : Ast.reference) ->
          r.Ast.kind = Ast.Open && r.Ast.path = [ exposed_name lib ])
        m.refs)
    t.libs

(* The module path a reference goes through: the qualifier of a value
   or member path ([Pool] for [Pool.map], nothing for a bare [map]),
   the whole path of a module-level reference. *)
let module_part (r : Ast.reference) =
  match (r.Ast.kind, List.rev r.Ast.path) with
  | (Ast.Value | Ast.Member), _ :: quals -> List.rev quals
  | (Ast.Module | Ast.Open | Ast.Include | Ast.Alias _), _ -> r.Ast.path
  | (Ast.Value | Ast.Member), [] -> []

(* A library module [N] is referenced by its bare name ([N.f],
   [open N], [module X = N]) from its own library or from a module
   that opens the library, and as [Msoc_x.N] from anywhere. *)
let dependencies t (m : module_info) =
  let heads = Hashtbl.create 64 and qualified = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match module_part r with
      | a :: rest -> (
        Hashtbl.replace heads a ();
        match rest with
        | b :: _ -> Hashtbl.replace qualified (a, b) ()
        | [] -> ())
      | [] -> ())
    m.refs;
  let opened = opened_libs t m in
  List.filter
    (fun (n : module_info) ->
      n.ml_path <> m.ml_path
      &&
      match n.owner with
      | None -> false
      | Some lib ->
        let same_lib =
          match m.owner with Some a -> a.dir = lib.dir | None -> false
        in
        if same_lib then Hashtbl.mem heads n.name
        else
          Hashtbl.mem qualified (exposed_name lib, n.name)
          || (List.memq lib opened && Hashtbl.mem heads n.name))
    t.modules

(* --- reachability --- *)

(* [roots] entries are directories ("lib/serve": every module inside)
   or single files ("lib/util/pool.ml"). The result contains the
   roots themselves plus every module they transitively reference. *)
let reachable t ~roots =
  let is_root (m : module_info) =
    List.exists
      (fun r -> m.ml_path = r || String.length m.ml_path > String.length r
                 && String.sub m.ml_path 0 (String.length r + 1) = r ^ "/")
      roots
  in
  let seen = Hashtbl.create 64 in
  let rec visit m =
    if not (Hashtbl.mem seen m.ml_path) then begin
      Hashtbl.replace seen m.ml_path ();
      List.iter visit (dependencies t m)
    end
  in
  List.iter (fun m -> if is_root m then visit m) t.modules;
  List.filter (fun m -> Hashtbl.mem seen m.ml_path) t.modules
  |> List.map (fun m -> m.ml_path)
