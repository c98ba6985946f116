(* Resource-lifecycle analysis: the S601/S602 rule family.

   A resource is anything acquired by one call and owed a matching
   release: a Unix fd or socket, an in/out channel, the temp file of
   an atomic-write pattern. The walk tracks every let-bound
   acquisition through the statements of its scope and classifies the
   paths: released everywhere (clean), released on some branches but
   not others (S601 with the witness branch), released only after a
   statement that can raise (S601 on the exception path), released
   twice (S602), or handed off — returned, stored, passed to an
   unknown call — in which case tracking stops (ownership moved; the
   interprocedural tier follows it where it can). A release from
   another kind's pair is a type error, so the compiler reports it.

   Interprocedural: per-function summaries seed a callgraph fixpoint
   of derived releasers (a function that releases (a field of) its
   n-th parameter, like [close_link l = Unix.close l.fd]) and derived
   acquirers (a function whose tail is a fresh acquisition), so the
   walk credits [close_link l] as a release of [l] and tracks
   [let c = connect addr in …] when [connect]'s result is a raw fd.

   Window-slot and in-flight accounting (Router.acquire_slot/
   release_slot, Bounded_queue admission counters) have no value to
   track — they are counter-shaped and owned by the S605 counter-
   balance rule in Typestate, over the pair list exported here. *)

open Parsetree
module Diagnostic = Msoc_check.Diagnostic
module Codes = Msoc_check.Codes

(* --- the kind catalog --- *)

type kind = {
  kind_name : string;
  acquires : string list;  (* dotted call paths whose result is the resource *)
  releases : string list;  (* calls that consume it (first positional arg) *)
  observers : string list;
      (* calls that take it first-positional without consuming it *)
}

let kinds =
  [
    {
      kind_name = "unix-fd";
      acquires = [ "Unix.socket"; "Unix.openfile"; "Unix.accept" ];
      releases = [ "Unix.close" ];
      observers =
        [
          "Unix.connect"; "Unix.bind"; "Unix.listen"; "Unix.accept";
          "Unix.read"; "Unix.write"; "Unix.single_write"; "Unix.select";
          "Unix.setsockopt"; "Unix.setsockopt_optint"; "Unix.setsockopt_int";
          "Unix.setsockopt_float"; "Unix.getsockopt_error"; "Unix.shutdown";
          "Unix.set_nonblock"; "Unix.clear_nonblock"; "Unix.set_close_on_exec";
          "Unix.getsockname"; "Unix.getpeername"; "Unix.recv"; "Unix.send";
          "Unix.recvfrom"; "Unix.sendto"; "Unix.lseek"; "Unix.fstat";
        ];
    };
    {
      kind_name = "in-channel";
      acquires =
        [ "open_in"; "open_in_bin"; "In_channel.open_text"; "In_channel.open_bin" ];
      releases = [ "close_in"; "close_in_noerr"; "In_channel.close" ];
      observers =
        [
          "input_line"; "really_input_string"; "really_input"; "input";
          "input_value"; "input_char"; "input_byte"; "in_channel_length";
          "pos_in"; "seek_in"; "set_binary_mode_in"; "In_channel.input_line";
          "In_channel.input_all"; "Unix.descr_of_in_channel";
        ];
    };
    {
      kind_name = "out-channel";
      acquires =
        [ "open_out"; "open_out_bin"; "Out_channel.open_text"; "Out_channel.open_bin" ];
      releases = [ "close_out"; "close_out_noerr"; "Out_channel.close" ];
      observers =
        [
          "output_string"; "output_bytes"; "output_value"; "output_char";
          "output_byte"; "output"; "flush"; "seek_out"; "pos_out";
          "out_channel_length"; "set_binary_mode_out"; "Printf.fprintf";
          "Format.fprintf"; "Unix.descr_of_out_channel";
        ];
    };
    {
      kind_name = "temp-file";
      acquires = [ "Filename.temp_file" ];
      releases = [ "Sys.remove"; "Sys.rename" ];
      observers =
        [ "open_out"; "open_out_bin"; "open_in"; "open_in_bin"; "Unix.openfile" ];
    };
  ]

(* Balanced counter pairs — consumed by the Typestate S605 rule; kept
   here because they are the counter-shaped resources of the catalog
   (Router window slots, fleet in-flight/queued accounting). A [full]
   pair matches the whole dotted path, otherwise the last component
   matches (project helpers are called unqualified or through
   aliases). *)
type counter_pair = { inc : string; dec : string; full : bool }

let counter_pairs =
  [
    { inc = "Atomic.incr"; dec = "Atomic.decr"; full = true };
    { inc = "acquire_slot"; dec = "release_slot"; full = false };
    { inc = "in_flight_incr"; dec = "in_flight_decr"; full = false };
    { inc = "queued_incr"; dec = "queued_decr"; full = false };
  ]

let kind_acquiring path =
  List.find_opt (fun k -> List.mem path k.acquires) kinds

let is_release path = List.exists (fun k -> List.mem path k.releases) kinds

(* --- per-function summary (embedded in Flow.summary) --- *)

type summary = {
  acquires : (string * string * int) list;
      (* (kind, bound name, line) of every let-bound acquisition *)
  released_params : int list;
      (* positional parameter indices this function base-releases *)
  param_calls : (Longident.t * (int * int) list) list;
      (* calls forwarding parameters: callee and [(arg_idx, param_idx)] *)
  returns_kind : string option;
      (* a tail of the body is a fresh base acquisition of this kind *)
  tail_calls : Longident.t list;  (* calls in tail position *)
}

let empty =
  {
    acquires = [];
    released_params = [];
    param_calls = [];
    returns_kind = None;
    tail_calls = [];
  }

(* Positional parameters of a [fun p1 -> fun p2 -> …] chain. *)
let fun_params e =
  let rec go acc e =
    match e.pexp_desc with
    | Pexp_fun (Asttypes.Nolabel, _, p, body) -> (
      match p.ppat_desc with
      | Ppat_var { txt; _ } -> go (txt :: acc) body
      | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
        go (txt :: acc) body
      | _ -> go ("" :: acc) body)
    | Pexp_fun (_, _, _, body) -> go acc body
    | _ -> (List.rev acc, e)
  in
  go [] e

let chain_root chain =
  match String.index_opt chain '.' with
  | Some i -> String.sub chain 0 i
  | None -> chain

(* First bound variable of a let pattern: plain var, constrained var,
   or the first var of a tuple ([let fd, _ = Unix.accept l]). *)
let rec pattern_root p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (inner, _) -> pattern_root inner
  | Ppat_tuple ps -> List.find_map pattern_root ps
  | _ -> None

let summarize body =
  let params, inner = fun_params body in
  let param_idx name =
    let rec go i = function
      | [] -> None
      | p :: _ when p = name && p <> "" -> Some i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 params
  in
  let acquires = ref [] in
  let released = ref [] in
  let param_calls = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_let (_, vbs, _) ->
            List.iter
              (fun vb ->
                match (pattern_root vb.pvb_pat, Syntax.apply_path vb.pvb_expr) with
                | Some name, Some (path, _, _) -> (
                  match kind_acquiring path with
                  | Some k ->
                    acquires :=
                      (k.kind_name, name, Syntax.line_of vb.pvb_expr)
                      :: !acquires
                  | None -> ())
                | _ -> ())
              vbs
          | _ -> ());
          (match Syntax.apply_path ex with
          | Some (path, lid, args) -> (
            let pos = Syntax.positional args in
            (match pos with
            | first :: _ when is_release path -> (
              match Syntax.ident_chain first with
              | Some chain -> (
                match param_idx (chain_root chain) with
                | Some i -> released := i :: !released
                | None -> ())
              | None -> ())
            | _ -> ());
            if (not (is_release path)) && kind_acquiring path = None then
              let forwarded =
                List.mapi
                  (fun arg_idx a ->
                    match Syntax.ident_chain a with
                    | Some chain -> (
                      match param_idx (chain_root chain) with
                      | Some p when chain = chain_root chain ->
                        (* whole param passed, not just a field *)
                        Some (arg_idx, p)
                      | _ -> None)
                    | None -> None)
                  pos
                |> List.filter_map Fun.id
              in
              if forwarded <> [] then
                param_calls := (lid, forwarded) :: !param_calls)
          | None -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it body;
  let tail_exprs = Syntax.tails inner in
  let returns_kind =
    List.find_map
      (fun t ->
        match Syntax.apply_path t with
        | Some (path, _, _) ->
          Option.map (fun k -> k.kind_name) (kind_acquiring path)
        | None -> None)
      tail_exprs
  in
  let tail_calls =
    List.filter_map
      (fun t ->
        match Syntax.apply_path t with Some (_, lid, _) -> Some lid | None -> None)
      tail_exprs
  in
  {
    acquires = List.rev !acquires;
    released_params = List.sort_uniq compare !released;
    param_calls = List.rev !param_calls;
    returns_kind;
    tail_calls;
  }

(* --- interprocedural fixpoint: derived releasers and acquirers --- *)

type derived = {
  releasers : (string, int list) Hashtbl.t;  (* def key -> released arg idxs *)
  acquirers : (string, string) Hashtbl.t;  (* def key -> kind name *)
}

let fixpoint graph (lookup : string -> summary) =
  let releasers = Hashtbl.create 64 in
  let acquirers = Hashtbl.create 64 in
  let defs = Callgraph.defs graph in
  List.iter
    (fun (d : Callgraph.def) ->
      let s = lookup d.Callgraph.key in
      if s.released_params <> [] then
        Hashtbl.replace releasers d.Callgraph.key s.released_params;
      match s.returns_kind with
      | Some k -> Hashtbl.replace acquirers d.Callgraph.key k
      | None -> ())
    defs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (d : Callgraph.def) ->
        let s = lookup d.Callgraph.key in
        (* a param forwarded into a released position is released here *)
        let current =
          Option.value
            (Hashtbl.find_opt releasers d.Callgraph.key)
            ~default:[]
        in
        let extra =
          List.concat_map
            (fun (lid, pairs) ->
              List.concat_map
                (fun (c : Callgraph.def) ->
                  match Hashtbl.find_opt releasers c.Callgraph.key with
                  | Some idxs ->
                    List.filter_map
                      (fun (arg_idx, param_idx) ->
                        if List.mem arg_idx idxs then Some param_idx else None)
                      pairs
                  | None -> [])
                (Callgraph.resolve_call graph d lid))
            s.param_calls
        in
        let merged = List.sort_uniq compare (current @ extra) in
        if merged <> current then begin
          Hashtbl.replace releasers d.Callgraph.key merged;
          changed := true
        end;
        (* a tail call to an acquirer makes this def an acquirer *)
        if not (Hashtbl.mem acquirers d.Callgraph.key) then
          match
            List.find_map
              (fun lid ->
                List.find_map
                  (fun (c : Callgraph.def) ->
                    Hashtbl.find_opt acquirers c.Callgraph.key)
                  (Callgraph.resolve_call graph d lid))
              s.tail_calls
          with
          | Some k ->
            Hashtbl.replace acquirers d.Callgraph.key k;
            changed := true
          | None -> ())
      defs
  done;
  { releasers; acquirers }

(* --- the per-definition path walk --- *)

(* A statement with its binding pattern kept (Flow linearizes patterns
   away; the resource walk needs the bound name). *)
type stmt = { pat : pattern option; exp : expression }

let rec stmts e =
  match e.pexp_desc with
  | Pexp_sequence (a, b) -> { pat = None; exp = a } :: stmts b
  | Pexp_let (_, vbs, body) ->
    List.map (fun vb -> { pat = Some vb.pvb_pat; exp = vb.pvb_expr }) vbs
    @ stmts body
  | _ -> [ { pat = None; exp = e } ]

(* Does [e] mention the ident [x] anywhere? Chains rooted at [x]
   count ([x.fd]). Conservative about shadowing. *)
let mentions x e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt = Longident.Lident n; _ } when n = x ->
            found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !found

(* [try release x with _ -> ()] is still a release. *)
let strip_try e =
  match e.pexp_desc with Pexp_try (body, _) -> body | _ -> e

(* Classification of one statement with respect to tracked name [x]. *)
type stmt_class =
  | Release of int  (* line *)
  | Observe
  | Untouched

let first_positional_is x args =
  match Syntax.positional args with
  | first :: _ -> Syntax.ident_chain first = Some x
  | [] -> false

type walk_ctx = {
  graph : Callgraph.t;
  def : Callgraph.def;
  derived : derived;
  emit : Diagnostic.t -> unit;
}

(* An [Untouched] statement that mentions [x] is for the caller to
   judge: a branch, or an escape. *)
let classify_stmt ctx x (k : kind) e =
  let e = strip_try e in
  match Syntax.apply_path e with
  | Some (path, lid, args) ->
    if is_release path && first_positional_is x args then
      Release (Syntax.line_of e)
    else if List.mem path k.observers && first_positional_is x args then Observe
    else if
      (* derived releaser: x passed at a released arg position *)
      List.exists
        (fun (c : Callgraph.def) ->
          match Hashtbl.find_opt ctx.derived.releasers c.Callgraph.key with
          | Some idxs ->
            List.exists
              (fun i ->
                match List.nth_opt (Syntax.positional args) i with
                | Some a -> Syntax.ident_chain a = Some x
                | None -> false)
              idxs
          | None -> false)
        (Callgraph.resolve_call ctx.graph ctx.def lid)
    then Release (Syntax.line_of e)
    else Untouched
  | None -> Untouched

(* All release applications of [x] inside [e], with whether each sits
   under a conditional (an [if] or a multi-case [match]). Conditional
   cleanup ([if Sys.file_exists tmp then Sys.remove tmp] in a
   [~finally]) never counts toward S602. *)
let releases_in x e =
  let out = ref [] in
  let rec go ~cond e =
    let e' = strip_try e in
    (match Syntax.apply_path e' with
    | Some (path, _, args) when is_release path && first_positional_is x args ->
      out := (Syntax.line_of e', cond) :: !out
    | _ -> ());
    match e.pexp_desc with
    | Pexp_sequence (a, b) ->
      go ~cond a;
      go ~cond b
    | Pexp_let (_, vbs, body) ->
      List.iter (fun vb -> go ~cond vb.pvb_expr) vbs;
      go ~cond body
    | Pexp_ifthenelse (c, t, f) ->
      go ~cond c;
      go ~cond:true t;
      Option.iter (go ~cond:true) f
    | Pexp_match (scrut, cases) ->
      go ~cond scrut;
      let branch_cond = cond || List.length cases > 1 in
      List.iter (fun c -> go ~cond:branch_cond c.pc_rhs) cases
    | Pexp_try (body, cases) ->
      go ~cond body;
      List.iter (fun c -> go ~cond:true c.pc_rhs) cases
    | Pexp_fun (_, _, _, body) -> go ~cond body
    | Pexp_apply _ -> (
      match Syntax.normalize_apply e with
      | Some (_, args) -> List.iter (fun (_, a) -> go ~cond a) args
      | None -> ())
    | _ -> ()
  in
  go ~cond:false e;
  List.rev !out

(* Fun.protect with respect to [x]: does the ~finally release it? *)
let protect_finally_release x e =
  match Syntax.apply_path e with
  | Some (("Fun.protect" | "Mutex.protect"), _, args) -> (
    match Syntax.labelled "finally" args with
    | Some fin -> (
      match releases_in x (Syntax.thunk_body fin) with
      | [] -> None
      | rels -> Some (rels, Syntax.positional args))
    | None -> None)
  | _ -> None

type status =
  | Live  (* still tracked and unreleased at the end of the block *)
  | Released
  | Escaped

(* Walk the scope of one acquisition. [risky] is the line of the first
   statement since the acquisition that can raise while the resource
   is live (None if the prefix is exception-free).

   No tree has ever fired S602. It stays because a realistic mutant is
   caught by it and by no test: a second [Unix.close fd] in the
   protected body of [Supervisor.ping] fails only the runs of the
   analyzer itself. *)
let rec track ctx ~x ~(k : kind) ~acq_line ~risky block =
  let file = ctx.def.Callgraph.ml_path in
  let emit = ctx.emit in
  let rec go risky released_at = function
    | [] -> if released_at <> None then Released else Live
    | s :: rest -> (
      let e = s.exp in
      match released_at with
      | Some first_line -> (
        (* already released: later unconditional releases are S602 *)
        match classify_stmt ctx x k e with
        | Release line ->
          emit
            (Codes.diag ~file ~line Codes.s602
               "%s '%s' (acquired at line %d) was already released at line \
                %d — double release"
               k.kind_name x acq_line first_line);
          go risky released_at rest
        | _ -> go risky released_at rest)
      | None -> (
        match protect_finally_release x e with
        | Some (fin_rels, bodies) ->
          (* finally releases x. An unconditional finally release plus
             an unconditional release in the protected body is a
             double release. *)
          let fin_unconditional =
            List.exists (fun (_, cond) -> not cond) fin_rels
          in
          (if fin_unconditional then
             List.iter
               (fun body ->
                 match
                   List.filter
                     (fun (_, cond) -> not cond)
                     (releases_in x (Syntax.thunk_body body))
                 with
                 | (line, _) :: _ ->
                   let fin_line, _ = List.hd fin_rels in
                   emit
                     (Codes.diag ~file ~line:fin_line Codes.s602
                        "%s '%s' is released in the protected body (line %d) \
                         and again unconditionally in ~finally — double \
                         release"
                        k.kind_name x line)
                 | [] -> ())
               bodies);
          go risky (Some (Syntax.line_of e)) rest
        | None -> (
          match classify_stmt ctx x k e with
          | Release line ->
            (match risky with
            | Some raise_line ->
              emit
                (Codes.diag ~file ~line:acq_line Codes.s601
                   "%s '%s' is released at line %d, but line %d can raise \
                    first — the resource leaks on that exception path (wrap \
                    in Fun.protect ~finally)"
                   k.kind_name x line raise_line)
            | None -> ());
            go risky (Some line) rest
          | Observe ->
            let risky =
              match risky with
              | Some _ -> risky
              | None ->
                if Syntax.may_raise e then Some (Syntax.line_of e) else None
            in
            go risky None rest
          | Untouched ->
            if mentions x e then branch_or_escape risky e rest
            else
              let risky =
                match risky with
                | Some _ -> risky
                | None ->
                  if Syntax.may_raise e then Some (Syntax.line_of e) else None
              in
              go risky None rest)))
  and branch_or_escape risky e rest =
    (* A branching construct mentioning x: classify each branch. Any
       other mention is an escape — ownership moved, stop tracking. *)
    let branches =
      match e.pexp_desc with
      | Pexp_ifthenelse (c, t, f) ->
        let virtual_else =
          (* [if c then cleanup x] without else: the else path keeps
             x live *)
          match f with Some f -> [ f ] | None -> []
        in
        Some (c, (t :: virtual_else), f = None)
      | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        Some (scrut, List.map (fun c -> c.pc_rhs) cases, false)
      | _ -> None
    in
    match branches with
    | None -> Escaped  (* returned, stored, captured, or unknown call *)
    | Some (scrut, bodies, if_no_else) -> (
      (* the scrutinee may only observe x *)
      let scrut_ok =
        (not (mentions x scrut))
        ||
        match classify_stmt ctx x k scrut with
        | Observe -> true
        | Release _ -> false (* release in scrutinee: odd, treat opaque *)
        | Untouched -> false
      in
      if not scrut_ok then Escaped
      else
        (* a [try] body or a [match … with exception] scrutinee has
           its raises caught right here — they are not a leak risk for
           the branches below *)
        let scrut_handled =
          match e.pexp_desc with
          | Pexp_try _ -> true
          | Pexp_match (_, cases) ->
            List.exists
              (fun c ->
                match c.pc_lhs.ppat_desc with
                | Ppat_exception _ -> true
                | _ -> false)
              cases
          | _ -> false
        in
        let scrut_risky =
          match risky with
          | Some _ -> risky
          | None ->
            if (not scrut_handled) && Syntax.may_raise scrut then
              Some (Syntax.line_of scrut)
            else None
        in
        let statuses =
          List.map
            (fun b ->
              ( Syntax.line_of b,
                track ctx ~x ~k ~acq_line ~risky:scrut_risky (stmts b) ))
            bodies
        in
        let statuses =
          if if_no_else then statuses @ [ (Syntax.line_of e, Live) ]
          else statuses
        in
        if List.exists (fun (_, st) -> st = Escaped) statuses then Escaped
        else if List.for_all (fun (_, st) -> st = Released) statuses then begin
          (* merged: released on every branch; continue for S602 *)
          match go scrut_risky (Some (Syntax.line_of e)) rest with
          | _ -> Released
        end
        else if List.for_all (fun (_, st) -> st = Live) statuses then
          go scrut_risky None rest
        else begin
          (* mixed: some branches release, some leave it live *)
          let rel_line =
            List.find_map
              (fun (l, st) -> if st = Released then Some l else None)
              statuses
          in
          let live_line =
            List.find_map
              (fun (l, st) -> if st = Live then Some l else None)
              statuses
          in
          (match (rel_line, live_line) with
          | Some rl, Some ll ->
            (* a later release in [rest] covers the live branches —
               then the released branches double-release there, which
               the Released-merge path reports; here report the leak
               only when nothing in the continuation releases x *)
            let later_release =
              List.exists
                (fun s ->
                  match classify_stmt ctx x k s.exp with
                  | Release _ -> true
                  | _ -> protect_finally_release x s.exp <> None)
                rest
            in
            if later_release then
              emit
                (Codes.diag ~file:ctx.def.Callgraph.ml_path ~line:rl Codes.s602
                   "%s '%s' is released on this branch and released again \
                    after the branch — double release on this path"
                   k.kind_name x)
            else
              emit
                (Codes.diag ~file:ctx.def.Callgraph.ml_path ~line:ll Codes.s601
                   "%s '%s' (acquired at line %d) is released on the branch \
                    at line %d but stays unreleased on this branch"
                   k.kind_name x acq_line rl)
          | _ -> ());
          (* stop tracking: the path split was reported once *)
          Released
        end)
  in
  go risky None block

(* --- finding acquisitions and walking every definition --- *)

let acquire_of ctx e =
  match Syntax.apply_path e with
  | Some (path, lid, _) -> (
    match kind_acquiring path with
    | Some k -> Some k
    | None ->
      List.find_map
        (fun (c : Callgraph.def) ->
          match Hashtbl.find_opt ctx.derived.acquirers c.Callgraph.key with
          | Some kn -> List.find_opt (fun k -> k.kind_name = kn) kinds
          | None -> None)
        (Callgraph.resolve_call ctx.graph ctx.def lid))
  | None -> None

let report_status ctx ~x ~(k : kind) ~acq_line status =
  match status with
  | Live ->
    ctx.emit
      (Codes.diag ~file:ctx.def.Callgraph.ml_path ~line:acq_line Codes.s601
         "%s '%s' acquired here is not released before the end of its \
          scope — release it on every path or hand it off explicitly"
         k.kind_name x)
  | Released | Escaped -> ()

let rec analyze_block ctx block =
  List.iteri
    (fun i s ->
      (match s.pat with
      | Some p -> (
        match (pattern_root p, acquire_of ctx s.exp) with
        | Some x, Some k ->
          let rest = List.filteri (fun j _ -> j > i) block in
          let status =
            track ctx ~x ~k ~acq_line:(Syntax.line_of s.exp) ~risky:None rest
          in
          report_status ctx ~x ~k ~acq_line:(Syntax.line_of s.exp) status
        | _ -> ())
      | None -> (
        (* [match acquire with x -> … | exception _ -> …] binds the
           resource per case *)
        match s.exp.pexp_desc with
        | Pexp_match (scrut, cases) -> (
          match acquire_of ctx scrut with
          | Some k ->
            List.iter
              (fun c ->
                match c.pc_lhs.ppat_desc with
                | Ppat_exception _ -> ()
                | _ -> (
                  match pattern_root c.pc_lhs with
                  | Some x ->
                    let acq_line = Syntax.line_of scrut in
                    let status =
                      track ctx ~x ~k ~acq_line ~risky:None (stmts c.pc_rhs)
                    in
                    report_status ctx ~x ~k ~acq_line status
                  | None -> ()))
              cases
          | None -> ())
        | _ -> ()));
      sub_blocks s.exp |> List.iter (fun e -> analyze_block ctx (stmts e)))
    block

(* Nested scopes that carry their own statements: branches, closure
   bodies, loop bodies, combinator arguments, and a [let] chain or
   sequence that is itself a statement (a binding's right-hand side),
   walked as its own block. *)
and sub_blocks e =
  match e.pexp_desc with
  | Pexp_let _ | Pexp_sequence _ -> [ e ]
  | Pexp_ifthenelse (c, t, f) ->
    [ c; t ] @ (match f with Some f -> [ f ] | None -> [])
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    scrut :: List.map (fun c -> c.pc_rhs) cases
  | Pexp_function cases -> List.map (fun c -> c.pc_rhs) cases
  | Pexp_fun (_, default, _, body) ->
    (match default with Some d -> [ d ] | None -> []) @ [ body ]
  | Pexp_while (c, body) -> [ c; body ]
  | Pexp_for (_, lo, hi, _, body) -> [ lo; hi; body ]
  | Pexp_apply _ -> (
    match Syntax.normalize_apply e with
    | Some (head, args) -> head :: List.map snd args
    | None -> [])
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> [ a ]
  | Pexp_tuple es | Pexp_array es -> es
  | Pexp_record (fields, base) ->
    List.map snd fields @ (match base with Some b -> [ b ] | None -> [])
  | Pexp_field (inner, _)
  | Pexp_constraint (inner, _)
  | Pexp_lazy inner
  | Pexp_newtype (_, inner)
  | Pexp_open (_, inner)
  | Pexp_assert inner ->
    [ inner ]
  | Pexp_setfield (r, _, v) -> [ r; v ]
  | Pexp_letmodule (_, _, body) -> [ body ]
  | _ -> []

(* --- entry point --- *)

let run graph (lookup : string -> summary) =
  let derived = fixpoint graph lookup in
  List.concat_map
    (fun (d : Callgraph.def) ->
      let acc = ref [] in
      let ctx = { graph; def = d; derived; emit = (fun x -> acc := x :: !acc) } in
      analyze_block ctx (stmts (snd (fun_params d.Callgraph.body)));
      List.rev !acc)
    (Callgraph.defs graph)
