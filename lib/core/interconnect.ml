module Types = Msoc_itc02.Types
module Job = Msoc_tam.Job

type link = { from_core : string; to_core : string; patterns : int }

let link ~from_core ~to_core ~patterns =
  if patterns < 1 then invalid_arg "Interconnect.link: patterns >= 1";
  if from_core = to_core then invalid_arg "Interconnect.link: self-link";
  { from_core; to_core; patterns }

let find_core (soc : Types.soc) name =
  match
    List.find_opt (fun (c : Types.core) -> c.Types.name = name) soc.Types.cores
  with
  | Some c -> c
  | None -> raise Not_found

let job soc ~max_width l =
  let src = find_core soc l.from_core in
  let dst = find_core soc l.to_core in
  (* The EXTEST path as a virtual combinational core: stimulus cells
     are the source's output boundary cells, response cells the
     sink's input cells; bidirs on either side join the path. *)
  let virtual_core =
    Types.core ~id:1
      ~name:(Printf.sprintf "link:%s->%s" l.from_core l.to_core)
      ~inputs:(src.Types.outputs + src.Types.bidirs)
      ~outputs:(dst.Types.inputs + dst.Types.bidirs)
      ~bidirs:0 ~scan_chains:[] ~patterns:l.patterns
  in
  Job.with_conflicts
    (Job.of_core virtual_core ~max_width)
    [ l.from_core; l.to_core ]

let jobs soc ~max_width links =
  let keys = List.map (fun l -> (l.from_core, l.to_core)) links in
  if List.length (List.sort_uniq compare keys) <> List.length keys then
    invalid_arg "Interconnect.jobs: duplicate link";
  List.map (job soc ~max_width) links
