type test = Scan.test = { index : int; scan_use : bool; tam_use : bool; patterns : int }

type module_ = {
  id : int;
  level : int;
  name : string;
  inputs : int;
  outputs : int;
  bidirs : int;
  scan_chains : int list;
  tests : test list;
}

type t = { name : string; modules : module_ list }

(* --- validation --- *)

(* The first structural fault in module order: the module's position,
   the position of its test when a test is at fault, and why. *)
let fault t =
  let ids = Hashtbl.create 16 in
  let rec go i prev = function
    | [] -> None
    | m :: rest -> (
      let at test fmt = Printf.ksprintf (fun why -> Some (i, test, why)) fmt in
      if Hashtbl.mem ids m.id then at None "duplicate module id %d" m.id
      else if m.tests = [] then at None "module %d has no tests" m.id
      else if m.level > prev + 1 then
        if i = 0 then at None "first module deeper than level 1"
        else at None "module %d skips a hierarchy level" m.id
      else
        match List.find_index (fun (x : test) -> x.patterns < 1) m.tests with
        | Some j -> at (Some j) "module %d has a test with no patterns" m.id
        | None ->
          Hashtbl.replace ids m.id ();
          go (i + 1) m.level rest)
  in
  go 0 0 t.modules

let find_module t ~id =
  match List.find_opt (fun m -> m.id = id) t.modules with
  | Some m -> m
  | None -> raise Not_found

let parent t ~id =
  let target = find_module t ~id in
  if target.level <= 1 then None
  else
    (* nearest preceding module at level - 1 *)
    let rec scan best = function
      | [] -> best
      | m :: rest ->
        if m.id = id then best
        else scan (if m.level = target.level - 1 then Some m else best) rest
    in
    scan None t.modules

(* --- text --- *)

let of_string text =
  let s = Scan.scan ~hierarchical:true text in
  Scan.check s;
  (* no fatal finding: every field read and is in range *)
  let v = Option.get in
  let module_ (m : Scan.module_) =
    {
      id = v m.id;
      level = v m.level;
      name = v m.name;
      inputs = v m.inputs;
      outputs = v m.outputs;
      bidirs = v m.bidirs;
      scan_chains = m.chains;
      tests = List.map snd m.tests;
    }
  in
  let t = { name = v s.soc_name; modules = List.map module_ s.modules } in
  match fault t with
  | None -> t
  | Some (i, test, why) ->
    let m = List.nth s.modules i in
    Scan.fail (match test with None -> m.line | Some j -> fst (List.nth m.tests j)) why

(* --- flat view --- *)

let flatten t =
  let cores = ref [] in
  let next_id = ref 1 in
  List.iter
    (fun (m : module_) ->
      List.iter
        (fun (test : test) ->
          if test.tam_use then begin
            let core =
              Types.core ~id:!next_id
                ~name:(Printf.sprintf "%s/t%d" m.name test.index)
                ~inputs:m.inputs ~outputs:m.outputs ~bidirs:m.bidirs
                ~scan_chains:(if test.scan_use then m.scan_chains else [])
                ~patterns:test.patterns
            in
            incr next_id;
            cores := core :: !cores
          end)
        m.tests)
    t.modules;
  if !cores = [] then invalid_arg "Full.flatten: no TAM-using tests";
  Types.soc ~name:t.name ~cores:(List.rev !cores)
