module Schedule = Msoc_tam.Schedule

let code : Schedule.violation -> string = function
  | Schedule.Wire_conflict _ -> Codes.e101
  | Schedule.Capacity_exceeded _ -> Codes.e102
  | Schedule.Degenerate_rectangle _ -> Codes.e103
  | Schedule.Wider_than_tam _ -> Codes.e104
  | Schedule.Wire_out_of_range _ | Schedule.Wrong_wire_count _ | Schedule.Duplicate_wire _ ->
    Codes.e105
  | Schedule.Exclusion_overlap _ -> Codes.e106
  | Schedule.Duplicate_job _ -> Codes.e107
  | Schedule.Missing_job _ -> Codes.e108
  | Schedule.Unexpected_job _ -> Codes.e109
  | Schedule.Bad_operating_point _ -> Codes.e110
  | Schedule.Precedence_violation _ | Schedule.Missing_predecessor _ -> Codes.e111
  | Schedule.Conflict_overlap _ -> Codes.e113
  | Schedule.Power_exceeded _ -> Codes.e114

let run ?expected ?reported_makespan (s : Schedule.t) =
  let error code fmt = Diagnostic.makef ~code ~severity:Diagnostic.Error fmt in
  let violations =
    List.map
      (fun v -> error (code v) "%a" Schedule.pp_violation v)
      (Schedule.check ?expected s)
  in
  let makespan =
    match reported_makespan with
    | Some reported when reported <> Schedule.makespan s ->
      [ error Codes.e112 "reported makespan %d, recomputed %d" reported (Schedule.makespan s) ]
    | Some _ | None -> []
  in
  let empty =
    if s.Schedule.placements = [] && Option.value expected ~default:[] = [] then
      [ Diagnostic.make ~code:Codes.w101 ~severity:Diagnostic.Warning "schedule has no placements" ]
    else []
  in
  violations @ makespan @ empty
