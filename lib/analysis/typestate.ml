(* Protocol-state (typestate) analysis: the S604/S605 rule family.

   S604 — reply obligation. A request-dispatch point is a [match]
   whose scrutinee parses a request ([Protocol.request_of_line] and
   friends). Every non-exception case of that match must be able to
   send exactly one envelope: a reply primitive ([send],
   [send_client], [job.reply], [write_line]), a hand-off that moves
   the obligation to another thread ([Bounded_queue.try_push], the
   router's [forward]), or a call that transitively reaches one (the
   may-reply closure, Callgraph.close). A case that cannot reply at all is
   the lost-envelope bug; a straight path through two definite reply
   calls is the double-envelope bug — both from PR 8's review, by
   hand then, statically now.

   S605 — counter balance. Paired counters (Resource.counter_pairs:
   Atomic incr/decr, router window slots, fleet in-flight/queued
   accounting) must net the same delta on every branch of a function
   that uses both halves of a pair. The walk computes per-counter
   (min, max) net deltas over a sum/branch lattice; sibling branches
   whose nets differ are reported with both witness lines. Closure
   bodies are separate balance regions (they run elsewhere, possibly
   n times); functions using only one half of a pair are exempt
   (incr-only metrics are not accounting). *)

open Parsetree
module Codes = Msoc_check.Codes

(* --- S604: reply obligation --- *)

(* Calls whose scrutinized result marks a dispatch point. *)
let request_paths = [ "request_of_line" ]

(* Reply primitives, matched on the last component of the applied
   path or field chain ([send conn r], [st.send_client c env],
   [job.reply r], [write_line oc l]). *)
let reply_paths = [ "send"; "send_client"; "reply"; "write_line" ]

(* Calls that take over the obligation: enqueueing hands the job (and
   its reply closure) to the dispatch thread; the router's forward
   registers the pending entry a worker response will answer. *)
let transfer_paths = [ "try_push"; "push"; "forward" ]

let chain_last e =
  match Syntax.apply_chain e with
  | Some (path, args) -> Some (Syntax.last_component path, args)
  | None -> None

let contains_request_call e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match chain_last ex with
          | Some (last, _) when List.mem last request_paths -> found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !found

(* A def's own body sends or hands off an envelope: the one-element
   seed of the may-reply closure. *)
let direct_may_reply body =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match chain_last ex with
          | Some (last, _)
            when List.mem last reply_paths || List.mem last transfer_paths ->
            found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it body;
  !found

(* Can this case body discharge the reply obligation anywhere within
   (directly, by transfer, or through a may-reply callee)? *)
let can_reply graph may_reply (d : Callgraph.def) e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match chain_last ex with
          | Some (last, _)
            when List.mem last reply_paths || List.mem last transfer_paths ->
            found := true
          | _ ->
            (match Syntax.apply_path ex with
            | Some (_, lid, _) ->
              if
                List.exists
                  (fun (c : Callgraph.def) -> may_reply c.Callgraph.key)
                  (Callgraph.resolve_call graph d lid)
              then found := true
            | None -> ()));
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !found

(* Lines of definite (unconditionally executed) direct reply calls on
   the longest straight path: sequences concatenate, branches keep the
   longest alternative, loop and closure bodies count for nothing
   (deferred or repeated — not this path). *)
let rec definite_replies e =
  match e.pexp_desc with
  | Pexp_sequence (a, b) -> definite_replies a @ definite_replies b
  | Pexp_let (_, vbs, body) ->
    List.concat_map (fun vb -> definite_replies vb.pvb_expr) vbs
    @ definite_replies body
  | Pexp_ifthenelse (c, t, f) ->
    let arms =
      definite_replies t :: (match f with Some f -> [ definite_replies f ] | None -> [ [] ])
    in
    definite_replies c
    @ List.fold_left
        (fun best arm -> if List.length arm > List.length best then arm else best)
        [] arms
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    definite_replies scrut
    @ List.fold_left
        (fun best c ->
          let arm = definite_replies c.pc_rhs in
          if List.length arm > List.length best then arm else best)
        [] cases
  | Pexp_fun _ | Pexp_function _ | Pexp_while _ | Pexp_for _ -> []
  | Pexp_apply _ -> (
    let from_args =
      match Syntax.normalize_apply e with
      | Some (_, args) -> List.concat_map (fun (_, a) -> definite_replies a) args
      | None -> []
    in
    match chain_last e with
    | Some (last, _) when List.mem last reply_paths ->
      from_args @ [ Syntax.line_of e ]
    | _ -> from_args)
  | Pexp_constraint (inner, _) | Pexp_open (_, inner) -> definite_replies inner
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> definite_replies a
  | Pexp_tuple es | Pexp_array es -> List.concat_map definite_replies es
  | _ -> []

(* The reply obligation holds in serving code. A test or bench that
   matches [request_of_line] to assert on the parse is not a dispatch
   handler — nobody is waiting on the wire. *)
let serving_path path =
  String.length path > 4
  && (String.sub path 0 4 = "lib/" || String.sub path 0 4 = "bin/")

let rule_reply_obligation graph may_reply (d : Callgraph.def) =
  let out = ref [] in
  let file = d.Callgraph.ml_path in
  if not (serving_path file) then []
  else begin
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_match (scrut, cases) when contains_request_call scrut ->
            List.iter
              (fun c ->
                match c.pc_lhs.ppat_desc with
                | Ppat_exception _ -> ()
                | _ ->
                  let line = Ast.line_of c.pc_lhs.ppat_loc in
                  if not (can_reply graph may_reply d c.pc_rhs) then
                    out :=
                      Codes.diag ~file ~line Codes.s604
                        "request-dispatch branch in %s sends no reply on any \
                         path — every parsed request must be answered or \
                         handed off exactly once"
                        d.Callgraph.name
                      :: !out
                  else begin
                    match definite_replies c.pc_rhs with
                    | _ :: (second :: _ as tail) ->
                      let last = List.nth tail (List.length tail - 1) in
                      ignore last;
                      out :=
                        Codes.diag ~file ~line:second Codes.s604
                          "request-dispatch branch in %s can send %d replies \
                           on one path — the second envelope is sent here"
                          d.Callgraph.name
                          (1 + List.length tail)
                        :: !out
                    | _ -> ()
                  end)
              cases
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
    it.expr it d.Callgraph.body;
    List.rev !out
  end

(* --- S605: counter balance --- *)

type op = Inc | Dec

(* [counter_op e] recognizes one half of a configured pair and renders
   the counter identity from the positional arguments. *)
let counter_op e =
  match Syntax.apply_chain e with
  | None -> None
  | Some (path, args) ->
    let last = Syntax.last_component path in
    List.find_map
      (fun (p : Resource.counter_pair) ->
        let matches name = if p.Resource.full then path = name else last = Syntax.last_component name in
        let op =
          if matches p.Resource.inc then Some Inc
          else if matches p.Resource.dec then Some Dec
          else None
        in
        match op with
        | None -> None
        | Some op ->
          let identity =
            Syntax.positional args
            |> List.map (fun a ->
                   match Syntax.ident_chain a with
                   | Some c -> c
                   | None -> "<opaque>")
            |> String.concat ","
          in
          Some (p.Resource.inc ^ "/" ^ p.Resource.dec ^ " " ^ identity, op))
      Resource.counter_pairs

module SMap = Map.Make (String)

type net = { lo : int; hi : int }

let zero = { lo = 0; hi = 0 }

let add_net a b = { lo = a.lo + b.lo; hi = a.hi + b.hi }

let union_keys maps =
  List.fold_left
    (fun acc m -> SMap.fold (fun k _ acc -> SMap.add k () acc) m acc)
    SMap.empty maps

(* Evaluate net deltas; divergent sibling branches are reported into
   [witness]: (key, (line_a, net_a), (line_b, net_b)). *)
let rec eval ~witness e =
  match e.pexp_desc with
  | Pexp_sequence (a, b) -> merge_add (eval ~witness a) (eval ~witness b)
  | Pexp_let (_, vbs, body) ->
    List.fold_left
      (fun acc vb -> merge_add acc (eval ~witness vb.pvb_expr))
      SMap.empty vbs
    |> fun acc -> merge_add acc (eval ~witness body)
  | Pexp_ifthenelse (c, t, f) ->
    let arms =
      [ (Syntax.line_of t, eval ~witness t) ]
      @
      match f with
      | Some f -> [ (Syntax.line_of f, eval ~witness f) ]
      | None -> [ (Syntax.line_of e, SMap.empty) ]
    in
    merge_add (eval ~witness c) (branch_merge ~witness arms)
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    let arms =
      List.map
        (fun c -> (Ast.line_of c.pc_lhs.ppat_loc, eval ~witness c.pc_rhs))
        cases
    in
    merge_add (eval ~witness scrut) (branch_merge ~witness arms)
  | Pexp_apply _ -> (
    let base =
      match counter_op e with
      | Some (key, Inc) -> SMap.singleton key { lo = 1; hi = 1 }
      | Some (key, Dec) -> SMap.singleton key { lo = -1; hi = -1 }
      | None -> SMap.empty
    in
    match Syntax.normalize_apply e with
    | Some (_, args) ->
      List.fold_left
        (fun acc (_, a) ->
          match a.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> acc (* separate region *)
          | _ -> merge_add acc (eval ~witness a))
        base args
    | None -> base)
  | Pexp_fun _ | Pexp_function _ | Pexp_while _ | Pexp_for _ ->
    SMap.empty (* separate balance regions, walked independently *)
  | Pexp_constraint (inner, _) | Pexp_open (_, inner) -> eval ~witness inner
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> eval ~witness a
  | Pexp_tuple es | Pexp_array es ->
    List.fold_left (fun acc x -> merge_add acc (eval ~witness x)) SMap.empty es
  | Pexp_setfield (r, _, v) -> merge_add (eval ~witness r) (eval ~witness v)
  | Pexp_field (inner, _) | Pexp_lazy inner | Pexp_assert inner ->
    eval ~witness inner
  | _ -> SMap.empty

and merge_add a b =
  SMap.merge
    (fun _ x y ->
      Some (add_net (Option.value x ~default:zero) (Option.value y ~default:zero)))
    a b

and branch_merge ~witness arms =
  match arms with
  | [] -> SMap.empty
  | _ ->
    let keys = union_keys (List.map snd arms) in
    SMap.fold
      (fun key () acc ->
        let nets =
          List.map
            (fun (line, m) ->
              (line, Option.value (SMap.find_opt key m) ~default:zero))
            arms
        in
        let lo = List.fold_left (fun a (_, n) -> min a n.lo) max_int nets in
        let hi = List.fold_left (fun a (_, n) -> max a n.hi) min_int nets in
        (match nets with
        | (l0, n0) :: rest -> (
          match List.find_opt (fun (_, n) -> n.lo <> n0.lo || n.hi <> n0.hi) rest with
          | Some (l1, n1) ->
            witness := (key, (l0, n0), (l1, n1)) :: !witness
          | None -> ())
        | [] -> ());
        SMap.add key { lo; hi } acc)
      keys SMap.empty

(* Balance regions of a definition: the body past its fun chain, plus
   every closure/loop body (they execute elsewhere or repeatedly). *)
let regions body =
  let out = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_fun (_, _, _, b) -> (
            match b.pexp_desc with
            | Pexp_fun _ -> () (* middle of a chain; wait for the last *)
            | _ -> out := b :: !out)
          | Pexp_function cases ->
            List.iter (fun c -> out := c.pc_rhs :: !out) cases
          | Pexp_while (_, b) -> out := b :: !out
          | Pexp_for (_, _, _, _, b) -> out := b :: !out
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it body;
  match !out with
  | [] -> [ body ]
  | rs -> List.rev rs

(* A region is disciplined for a pair when it uses both halves; only
   then is imbalance a finding (incr-only metrics are not pair
   accounting). Discipline is per identity-key: both an Inc and a Dec
   of the same counter identity. *)
let disciplined_keys region =
  let incs = Hashtbl.create 4 and decs = Hashtbl.create 4 in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match counter_op ex with
          | Some (key, Inc) -> Hashtbl.replace incs key ()
          | Some (key, Dec) -> Hashtbl.replace decs key ()
          | None -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it region;
  Hashtbl.fold
    (fun key () acc -> if Hashtbl.mem decs key then key :: acc else acc)
    incs []

let rule_counter_balance (d : Callgraph.def) =
  let file = d.Callgraph.ml_path in
  List.concat_map
    (fun region ->
      let keys = disciplined_keys region in
      if keys = [] then []
      else begin
        let witness = ref [] in
        let nets = eval ~witness region in
        List.filter_map
          (fun key ->
            match SMap.find_opt key nets with
            | Some n when n.lo <> n.hi ->
              Some
                (match
                   List.find_opt (fun (k, _, _) -> k = key) (List.rev !witness)
                 with
                | Some (_, (l0, n0), (l1, n1)) ->
                  Codes.diag ~file ~line:l1 Codes.s605
                    "counter %s in %s is unbalanced: the branch at line %d \
                     nets %+d but this branch nets %+d — balance the pair \
                     on every path"
                    key d.Callgraph.name l0 n0.lo n1.lo
                | None ->
                  Codes.diag ~file ~line:d.Callgraph.line Codes.s605
                    "counter %s in %s nets between %+d and %+d depending on \
                     the path — balance the pair on every path"
                    key d.Callgraph.name n.lo n.hi)
            | _ -> None)
          keys
      end)
    (regions d.Callgraph.body)

(* --- entry point --- *)

module StringSet = Set.Make (String)

let run graph =
  (* a def may reply when its own body does or some callee may *)
  let replies =
    Callgraph.close graph (fun (d : Callgraph.def) ->
        if direct_may_reply d.Callgraph.body then StringSet.singleton "reply"
        else StringSet.empty)
  in
  let may_reply key = not (StringSet.is_empty (replies key)) in
  List.concat_map
    (fun (d : Callgraph.def) ->
      rule_reply_obligation graph may_reply d @ rule_counter_balance d)
    (Callgraph.defs graph)
