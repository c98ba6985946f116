(* The S5xx/S6xx semantic rule families: interprocedural checks over
   the call graph of the parsed project.

   S502 classifies every critical section: a lock whose continuation
   can raise before the unlock — and is not under
   Fun.protect/Mutex.protect — leaves the mutex held on the exception
   path. S503 flags Atomic check-then-act. S504 flags blocking calls
   (I/O, joins, delays) made while any lock is held, directly or
   through project calls. S505 reports .mli-exported values no other
   module outside test/ references, and their optional parameters no
   call outside test/ passes. The S6xx tier (Resource,
   Typestate) runs from the same context: resource lifecycle over the
   per-def summaries and reply/counter obligations over the call
   graph.

   A module that fails to parse is skipped by every rule; S406 records
   the skip as an info-level diagnostic (never a silent gap). *)

module Codes = Msoc_check.Codes

let parse_failures (p : Project.t) =
  List.length
    (List.filter
       (fun (m : Project.module_info) -> Result.is_error m.Project.ast)
       p.Project.modules)

(* S406: one info diagnostic per unparsable module, anchored at the
   syntax-error line. The Ast error string reads "path:LINE: …" — the
   line is recovered from there (0 when the format surprises us). *)
let skip_line_of_error ~path err =
  let prefix = path ^ ":" in
  let plen = String.length prefix in
  if String.starts_with ~prefix err then
    Option.value ~default:0
      (Scanf.sscanf_opt (String.sub err plen (String.length err - plen)) "%d"
         Fun.id)
  else 0

let rule_parse_skips (p : Project.t) =
  List.filter_map
    (fun (m : Project.module_info) ->
      match m.Project.ast with
      | Ok _ -> None
      | Error err ->
        let line = skip_line_of_error ~path:m.Project.ml_path err in
        Some
          (Codes.diag ~file:m.Project.ml_path ~line Codes.s406
             "not analyzed: %s — every AST rule skips this file" err))
    p.Project.modules

(* --- shared per-run context --- *)

module StringSet = Set.Make (String)

type ctx = {
  project : Project.t;
  graph : Callgraph.t;
  summaries : (string, Flow.summary) Hashtbl.t;  (* def key -> summary *)
}

let make_ctx project =
  let graph = Callgraph.build project in
  let summaries = Hashtbl.create 512 in
  List.iter
    (fun (d : Callgraph.def) ->
      Hashtbl.replace summaries d.Callgraph.key (Flow.summarize d.Callgraph.body))
    (Callgraph.defs graph);
  { project; graph; summaries }

let summary ctx key =
  match Hashtbl.find_opt ctx.summaries key with
  | Some s -> s
  | None ->
    {
      Flow.acquisitions = [];
      held_calls = [];
      check_then_act = [];
      blocking_sites = [];
      resources = Resource.empty;
    }

(* --- S502: lock not released on all exception paths --- *)

let rule_lock_release ctx =
  List.concat_map
    (fun (d : Callgraph.def) ->
      (summary ctx d.Callgraph.key).Flow.acquisitions
      |> List.filter_map (fun (a : Flow.acquisition) ->
             if a.Flow.released then None
             else
               Some
                 (Codes.diag ~file:d.Callgraph.ml_path ~line:a.Flow.line
                    Codes.s502
                    "Mutex.lock %s is not released on all exception paths — \
                     wrap the critical section in Mutex.protect or \
                     Fun.protect ~finally:unlock"
                    a.Flow.lock)))
    (Callgraph.defs ctx.graph)

(* --- S503: Atomic check-then-act --- *)

(* No tree has ever fired S503. It stays because a realistic mutant
   is caught by it and by no test: [Metrics.incr_malformed] as an
   [Atomic.get] then an [Atomic.set] fails only the runs of the
   analyzer itself. *)
let rule_check_then_act ctx =
  List.concat_map
    (fun (d : Callgraph.def) ->
      (summary ctx d.Callgraph.key).Flow.check_then_act
      |> List.map (fun (atom, line) ->
             Codes.diag ~file:d.Callgraph.ml_path ~line Codes.s503
               "Atomic.get %s followed by Atomic.set in %s without a \
                compare_and_set loop — another domain can interleave between \
                the check and the act"
               atom d.Callgraph.name))
    (Callgraph.defs ctx.graph)

(* --- S504: blocking call while a lock is held --- *)

let rule_blocking_under_lock ctx =
  (* which defs may block, transitively, and through what primitive *)
  let blocks_via =
    Callgraph.close ctx.graph (fun d ->
        List.fold_left
          (fun acc (path, _) -> StringSet.add path acc)
          StringSet.empty
          (summary ctx d.Callgraph.key).Flow.blocking_sites)
  in
  List.concat_map
    (fun (d : Callgraph.def) ->
      (summary ctx d.Callgraph.key).Flow.held_calls
      |> List.filter_map (fun (hc : Flow.held_call) ->
             let path = Ast.path_string hc.Flow.callee in
             let held = String.concat ", " hc.Flow.held in
             if Flow.is_blocking_path path then
               Some
                 (Codes.diag ~file:d.Callgraph.ml_path ~line:hc.Flow.call_line
                    Codes.s504
                    "blocking call %s while holding %s — the lock is pinned \
                     for the whole operation"
                    path held)
             else
               let via =
                 List.fold_left
                   (fun acc (c : Callgraph.def) ->
                     StringSet.union acc (blocks_via c.Callgraph.key))
                   StringSet.empty
                   (Callgraph.resolve_call ctx.graph d hc.Flow.callee)
               in
               if StringSet.is_empty via then None
               else
                 Some
                   (Codes.diag ~file:d.Callgraph.ml_path ~line:hc.Flow.call_line
                      Codes.s504
                      "call to %s while holding %s may block (reaches %s)"
                      path held
                      (String.concat ", " (StringSet.elements via)))))
    (Callgraph.defs ctx.graph)

(* --- S505: dead exported API --- *)

(* Uses are the paths each parsed module names: every
   [Mod.value] pair of a value, constructor, field or type path, with
   per-file [module A = …] aliases expanded, and every [open]/[include]
   target marks its module fully used. Qualified access is the house
   style; two same-named modules in different libraries conservatively
   share their uses. Modules under test/ are scanned by every other
   rule but index no use here: an export only a test reads is dead.
   The labels an application passes are indexed too, a bare call's
   under its own module and under each module its file opens, so an
   optional parameter that no call outside test/ passes is a constant
   or a test seam. *)

let is_upper c = 'A' <= c && c <= 'Z'

let is_lower_start c = ('a' <= c && c <= 'z') || c = '_'

let is_ident_char c = is_upper c || is_lower_start c || ('0' <= c && c <= '9') || c = '\''

let last path = List.nth path (List.length path - 1)

(* The optional parameters of a [val]'s type, each with the line of
   its label. *)
let rec optional_params (t : Parsetree.core_type) =
  match t.ptyp_desc with
  | Ptyp_arrow (Asttypes.Optional label, _, rest) ->
    (label, Ast.line_of t.ptyp_loc) :: optional_params rest
  | Ptyp_arrow (_, _, rest) | Ptyp_poly (_, rest) -> optional_params rest
  | _ -> []

let rule_dead_api ctx =
  let p = ctx.project in
  (* use index: (module name, value name) -> every file using it,
     (module name, value name ^ "?" ^ label) -> every file passing the
     label, and the fully-used modules *)
  let uses = Hashtbl.create 1024 in
  let fully_used = Hashtbl.create 16 in
  let add key path =
    if not (List.mem path (Hashtbl.find_all uses key)) then
      Hashtbl.add uses key path
  in
  let index_source (m : Project.module_info) =
    let path = m.Project.ml_path in
    let aliases =
      List.filter_map
        (fun (r : Ast.reference) ->
          match r.Ast.kind with
          | Ast.Alias name when name <> last r.Ast.path ->
            Some (name, last r.Ast.path)
          | _ -> None)
        m.Project.refs
    in
    let resolve m =
      match List.assoc_opt m aliases with Some t -> t | None -> m
    in
    let opened =
      List.filter_map
        (fun (r : Ast.reference) ->
          match (r.Ast.kind, List.rev r.Ast.path) with
          | (Ast.Open | Ast.Include), q :: _ when is_upper q.[0] ->
            Some (resolve q)
          | _ -> None)
        m.Project.refs
    in
    List.iter (fun q -> Hashtbl.replace fully_used q ()) opened;
    List.iter
      (fun (r : Ast.reference) ->
        match (r.Ast.kind, List.rev r.Ast.path) with
        | (Ast.Value | Ast.Member), v :: q :: _
          when is_upper q.[0] && is_lower_start v.[0] ->
          add (resolve q, v) path;
          List.iter (fun l -> add (resolve q, v ^ "?" ^ l) path) r.Ast.labels
        | Ast.Value, [ v ] ->
          List.iter
            (fun q -> List.iter (fun l -> add (q, v ^ "?" ^ l) path) r.Ast.labels)
            (m.Project.name :: opened)
        | _ -> ())
      m.Project.refs
  in
  List.iter
    (fun (m : Project.module_info) ->
      if not (String.starts_with ~prefix:"test/" m.Project.ml_path) then
        index_source m)
    p.Project.modules;
  (* one exported value: dead, or live with unpassed optional
     parameters *)
  let value_findings (m : Project.module_info) mli_path
      (vd : Parsetree.value_description) =
    let name = vd.Parsetree.pval_name.txt in
    let mname = m.Project.name in
    if
      name = ""
      || (not (is_lower_start name.[0]))
      || not (String.for_all is_ident_char name)
    then []
    else if
      (not (Hashtbl.mem fully_used mname))
      && not
           (List.exists
              (fun path -> path <> m.Project.ml_path)
              (Hashtbl.find_all uses (mname, name)))
    then
      [
        Codes.diag ~file:mli_path ~line:(Ast.line_of vd.Parsetree.pval_loc)
          Codes.s505
          "%s.%s is exported but never referenced outside its module and \
           test/ — drop it from the interface or delete the dead code"
          mname name;
      ]
    else
      List.filter_map
        (fun (label, line) ->
          if Hashtbl.mem uses (mname, name ^ "?" ^ label) then None
          else
            Some
              (Codes.diag ~file:mli_path ~line Codes.s505
                 "%s.%s ?%s is passed by no call outside test/ — make it a \
                  constant, or keep it as a seam whose allowlist entry names \
                  the test"
                 mname name label))
        (optional_params vd.Parsetree.pval_type)
  in
  (* exported values per lib module with a parsable .mli *)
  List.concat_map
    (fun (m : Project.module_info) ->
      match m.Project.mli_path with
      | None -> []
      | Some mli_path -> (
        match Source.load ~root:p.Project.root mli_path with
        | exception Sys_error _ -> []
        | mli_src -> (
          match Ast.parse_intf ~path:mli_path (Source.text mli_src) with
          | Error _ -> []
          | Ok signature ->
            List.concat_map
              (fun (item : Parsetree.signature_item) ->
                match item.psig_desc with
                | Parsetree.Psig_value vd -> value_findings m mli_path vd
                | _ -> [])
              signature)))
    (List.filter
       (fun (m : Project.module_info) -> m.Project.owner <> None)
       p.Project.modules)

(* --- entry point --- *)

let run (p : Project.t) =
  let ctx = make_ctx p in
  let lookup key = (summary ctx key).Flow.resources in
  rule_lock_release ctx
  @ rule_check_then_act ctx
  @ rule_blocking_under_lock ctx
  @ rule_dead_api ctx
  @ Resource.run ctx.graph lookup
  @ Typestate.run ctx.graph
  @ rule_parse_skips p
