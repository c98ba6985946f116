(* Repository discovery: the modules, their Parsetrees and the paths
   they name.

   The analyzer works on the checked-out tree itself: libraries are
   the [lib/<dir>] directories owning a [dune] file with a
   [(name ...)] stanza, modules are their [.ml] files, and the
   executables of [bin], [test], [bench], [bench/suite] and [examples]
   join the scan without joining the library-only checks. Every module
   is parsed once, here, with [Ast.parse_impl]; its references are the
   paths its Parsetree names. *)

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
