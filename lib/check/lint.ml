module Scan = Msoc_itc02.Scan

let code : Scan.kind -> string = function
  | Syntax | Range -> Codes.e302
  | Duplicate_id -> Codes.e301
  | Missing_field -> Codes.e303
  | Chain_count -> Codes.e304
  | Missing_socname -> Codes.e305
  | Patterns -> Codes.e306
  | Chain_length -> Codes.e307
  | Socname_redeclared -> Codes.w302
  | No_modules -> Codes.w303

(* The two checks the loader does not make: a repeated core name, and a
   core that shifts nothing (its test-data volume, and hence its Pareto
   staircase, is empty). *)
let policy ?file (modules : Scan.module_ list) =
  let names = Hashtbl.create 16 in
  let error (m : Scan.module_) code fmt =
    Diagnostic.makef ?file ~line:m.line ~code ~severity:Diagnostic.Error fmt
  in
  List.concat_map
    (fun (m : Scan.module_) ->
      let repeated =
        match m.name with
        | None -> []
        | Some name -> (
          match Hashtbl.find_opt names name with
          | Some first ->
            [ error m Codes.e308 "core name %s already used on line %d (test labels would collide)"
                name first ]
          | None ->
            Hashtbl.replace names name m.line;
            [])
      in
      let empty =
        match (m.inputs, m.outputs, m.bidirs, m.chains) with
        | Some 0, Some 0, Some 0, [] ->
          [ error m Codes.e309 "core has no scan cells and no terminals: nothing to test" ]
        | _ -> []
      in
      repeated @ empty)
    modules

let lint ?file text =
  let s = Scan.scan ~hierarchical:false text in
  let finding (f : Scan.finding) =
    let severity = if Scan.fatal f.kind then Diagnostic.Error else Diagnostic.Warning in
    Diagnostic.make ?file ~line:f.line ~code:(code f.kind) ~severity f.message
  in
  (List.map finding s.findings @ policy ?file s.modules, s)

let load path =
  match Scan.read path with
  | exception Sys_error message ->
    ([ Diagnostic.make ~file:path ~code:Codes.e302 ~severity:Diagnostic.Error message ], None)
  | text ->
    let diags, s = lint ~file:path text in
    (diags, if Diagnostic.has_errors diags then None else Some (Msoc_itc02.Soc_file.of_scan ~file:path s))
