(* Per-function control-flow-ish traversal of Parsetree expressions.

   One walk per top-level definition yields everything the S5xx rules
   need: every Mutex acquisition (with whether the critical section is
   released on all exception paths), every call made while locks are
   held, and the Atomic get/set/read-modify-write footprint — plus the
   resource summary (acquire/release pairs, forwarded parameters) the
   S6xx tier's interprocedural fixpoint consumes.

   Locks are identified syntactically: an ident or a field chain
   rooted in an ident ([m], [t.lock], [state.cache.lock]) renders to a
   stable string; anything else (array reads, function results) is
   opaque and excluded from cross-function reasoning. That keeps the
   analysis sound against renamings it can see and silent about
   aliases it cannot. The purely syntactic helpers (application
   normalization, chain rendering, may_raise) live in Syntax, shared
   with Resource and Typestate. *)

open Parsetree

type acquisition = {
  lock : string;
  line : int;
  released : bool;
      (* true when the critical section provably releases on all
         paths: Mutex.protect, lock;Fun.protect, an exception-free
         prefix closed by Mutex.unlock, or a bare acquire-wrapper
         (no continuation to leak from) *)
}

type held_call = {
  held : string list;  (* locks held at the call site, outermost first *)
  callee : Longident.t;
  call_line : int;
}

type summary = {
  acquisitions : acquisition list;
  held_calls : held_call list;
  check_then_act : (string * int) list;
      (* atomics with Atomic.get before Atomic.set and no RMW *)
  blocking_sites : (string * int) list;
      (* calls to blocking primitives anywhere in the body *)
  resources : Resource.summary;
      (* acquire/release/forwarding footprint for the S6xx fixpoint *)
}

(* Primitives that can block the calling thread: process-external I/O,
   joins and delays. [Condition.wait] is deliberately absent — it
   releases its mutex while waiting, which is the correct way to block
   under a lock. *)
let blocking_paths =
  [
    "Thread.delay"; "Thread.join"; "Domain.join"; "Event.sync";
    "Sys.command"; "Sys.remove"; "Sys.rename"; "Sys.readdir";
    "Sys.file_exists"; "Sys.is_directory"; "Filename.temp_file";
    "open_in"; "open_in_bin"; "open_out"; "open_out_bin"; "input_line";
    "really_input_string"; "really_input"; "input_value"; "output_string";
    "output_value"; "output_bytes"; "flush"; "close_in"; "close_out";
    "print_string"; "print_endline"; "Printf.printf"; "read_line";
    "Unix.mkdir";
  ]

let unix_nonblocking =
  [
    "Unix.gettimeofday"; "Unix.time"; "Unix.getpid"; "Unix.getppid";
    "Unix.getuid"; "Unix.getenv"; "Unix.environment"; "Unix.error_message";
    "Unix.string_of_inet_addr"; "Unix.inet_addr_of_string";
  ]

let is_blocking_path path =
  List.mem path blocking_paths
  || String.length path > 5
     && String.sub path 0 5 = "Unix."
     && not (List.mem path unix_nonblocking)

(* --- the traversal --- *)

type state = {
  mutable acqs : acquisition list;
  mutable calls : held_call list;
}

let record_acq st ~line ~released lock =
  st.acqs <- { lock; line; released } :: st.acqs

(* Walk [e] with [held] the stack of locks currently held. Sequencing
   constructs are linearized so a [Mutex.lock] sees its continuation:
   the statements that follow it up to the matching [Mutex.unlock] (or
   the protecting [Fun.protect]) form its critical section. *)
let rec walk st ~held e =
  match e.pexp_desc with
  | Pexp_sequence _ | Pexp_let _ ->
    walk_seq st ~held (Syntax.linearize e)
  | Pexp_apply _ -> walk_apply st ~held e
  | Pexp_ifthenelse (c, t, f) ->
    walk st ~held c;
    walk st ~held t;
    Option.iter (walk st ~held) f
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    walk st ~held scrut;
    List.iter (fun c -> walk st ~held c.pc_rhs) cases
  | Pexp_function cases -> List.iter (fun c -> walk st ~held c.pc_rhs) cases
  | Pexp_fun (_, default, _, body) ->
    Option.iter (walk st ~held) default;
    walk st ~held body
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
    Option.iter (walk st ~held) arg
  | Pexp_tuple es | Pexp_array es -> List.iter (walk st ~held) es
  | Pexp_record (fields, base) ->
    List.iter (fun (_, v) -> walk st ~held v) fields;
    Option.iter (walk st ~held) base
  | Pexp_field (inner, _) | Pexp_constraint (inner, _) | Pexp_lazy inner
  | Pexp_newtype (_, inner) | Pexp_open (_, inner) | Pexp_assert inner ->
    walk st ~held inner
  | Pexp_setfield (r, _, v) ->
    walk st ~held r;
    walk st ~held v
  | Pexp_while (c, body) ->
    walk st ~held c;
    walk st ~held body
  | Pexp_for (_, lo, hi, _, body) ->
    walk st ~held lo;
    walk st ~held hi;
    walk st ~held body
  | Pexp_letmodule (_, _, body) -> walk st ~held body
  | Pexp_ident { txt; _ } ->
    (* a bare reference can be a callback about to run under our locks *)
    if held <> [] then
      st.calls <-
        { held; callee = txt; call_line = Syntax.line_of e } :: st.calls
  | _ -> ()

and walk_seq st ~held = function
  | [] -> ()
  | stmt :: rest -> (
    match Syntax.apply_path stmt with
    | Some ("Mutex.lock", _, args) ->
      let lock =
        match Syntax.positional args with
        | [ m ] -> Option.value (Syntax.ident_chain m) ~default:"<opaque>"
        | _ -> "<opaque>"
      in
      let line = Syntax.line_of stmt in
      walk_critical st ~held ~lock ~line rest
    | _ ->
      walk_stmt st ~held stmt;
      walk_seq st ~held rest)

(* After [Mutex.lock lock], classify the continuation. *)
and walk_critical st ~held ~lock ~line rest =
  let held' = lock :: held in
  match rest with
  | [] ->
    (* acquire-wrapper idiom: nothing here can leak the lock *)
    record_acq st ~line ~released:true lock
  | guard :: after when is_protect guard ->
    record_acq st ~line ~released:true lock;
    walk_protect st ~held:held' guard;
    (* Fun.protect's finally released the lock *)
    walk_seq st ~held after
  | _ -> (
    (* scan for the matching unlock; the prefix is the critical
       section and must be exception-free *)
    match split_at_unlock lock rest with
    | Some (critical, after) ->
      let released = not (List.exists Syntax.may_raise critical) in
      record_acq st ~line ~released lock;
      List.iter (walk_stmt st ~held:held') critical;
      walk_seq st ~held after
    | None ->
      record_acq st ~line ~released:false lock;
      List.iter (walk_stmt st ~held:held') rest)

and is_protect e =
  match Syntax.apply_path e with
  | Some (("Fun.protect" | "Mutex.protect"), _, _) -> true
  | _ -> false

and split_at_unlock lock stmts =
  let rec go acc = function
    | [] -> None
    | stmt :: rest -> (
      match Syntax.apply_path stmt with
      | Some ("Mutex.unlock", _, args)
        when (match Syntax.positional args with
             | [ m ] -> Syntax.ident_chain m = Some lock
             | _ -> false) ->
        Some (List.rev acc, rest)
      | _ -> go (stmt :: acc) rest)
  in
  go [] stmts

and walk_stmt st ~held stmt =
  match Syntax.apply_path stmt with
  | Some _ -> walk_apply st ~held stmt
  | None -> walk st ~held stmt

and walk_apply st ~held e =
  match Syntax.apply_path e with
  | None -> (
    match Syntax.normalize_apply e with
    | Some (head, args) ->
      walk st ~held head;
      List.iter (fun (_, a) -> walk st ~held a) args
    | None -> ())
  | Some ("Mutex.protect", lid, args) -> (
    ignore lid;
    match Syntax.positional args with
    | [ m; body ] ->
      let lock = Option.value (Syntax.ident_chain m) ~default:"<opaque>" in
      record_acq st ~line:(Syntax.line_of e) ~released:true lock;
      walk st ~held:(lock :: held) (Syntax.thunk_body body)
    | _ -> List.iter (fun (_, a) -> walk st ~held a) args)
  | Some ("Mutex.lock", _, args) ->
    (* a lock outside statement position (e.g. a one-expression
       function body) is an acquire wrapper *)
    let lock =
      match Syntax.positional args with
      | [ m ] -> Option.value (Syntax.ident_chain m) ~default:"<opaque>"
      | _ -> "<opaque>"
    in
    record_acq st ~line:(Syntax.line_of e) ~released:true lock
  | Some ("Fun.protect", _, _) -> walk_protect st ~held e
  | Some (_, lid, args) ->
    if held <> [] then
      st.calls <-
        { held; callee = lid; call_line = Syntax.line_of e } :: st.calls;
    List.iter (fun (_, a) -> walk st ~held (Syntax.thunk_body a)) args

and walk_protect st ~held e =
  match Syntax.normalize_apply e with
  | Some (_, args) ->
    Option.iter
      (fun f -> walk st ~held (Syntax.thunk_body f))
      (Syntax.labelled "finally" args);
    List.iter
      (fun body -> walk st ~held (Syntax.thunk_body body))
      (Syntax.positional args)
  | None -> ()

(* --- Atomic check-then-act --- *)

(* A position is taken after the expression's children are visited,
   so in [Atomic.set a (Atomic.get a + 1)] the get, an argument of the
   set, comes first. *)
let atomic_footprint e =
  let gets = Hashtbl.create 4 and sets = Hashtbl.create 4 in
  let rmw = Hashtbl.create 4 in
  let pos = ref 0 in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          Ast_iterator.default_iterator.expr self ex;
          incr pos;
          match Syntax.apply_path ex with
          | Some (path, _, args) -> (
            let atom =
              match Syntax.positional args with
              | m :: _ -> Syntax.ident_chain m
              | [] -> None
            in
            match (path, atom) with
            | "Atomic.get", Some a ->
              if not (Hashtbl.mem gets a) then
                Hashtbl.replace gets a (!pos, Ast.line_of ex.pexp_loc)
            | "Atomic.set", Some a ->
              Hashtbl.replace sets a (!pos, Ast.line_of ex.pexp_loc)
            | ( ( "Atomic.compare_and_set" | "Atomic.exchange"
                | "Atomic.fetch_and_add" | "Atomic.incr" | "Atomic.decr" ),
                Some a ) ->
              Hashtbl.replace rmw a ()
            | _ -> ())
          | None -> ());
    }
  in
  it.expr it e;
  Hashtbl.fold
    (fun atom (get_pos, _) acc ->
      match Hashtbl.find_opt sets atom with
      | Some (set_pos, set_line)
        when set_pos > get_pos && not (Hashtbl.mem rmw atom) ->
        (atom, set_line) :: acc
      | _ -> acc)
    gets []

(* --- blocking-call sites --- *)

let blocking_footprint e =
  let sites = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt; _ } ->
            let path = Ast.path_string txt in
            if is_blocking_path path then
              sites := (path, Ast.line_of ex.pexp_loc) :: !sites
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  List.rev !sites

(* --- entry point --- *)

let summarize e =
  let st = { acqs = []; calls = [] } in
  walk st ~held:[] e;
  {
    acquisitions = List.rev st.acqs;
    held_calls = List.rev st.calls;
    check_then_act = List.sort compare (atomic_footprint e);
    blocking_sites = blocking_footprint e;
    resources = Resource.summarize e;
  }
