(* One schedule check, cross-checked against the two-checker design it
   replaced.

   [Ref.run] below is the verifier's pass before [Schedule.check]
   became the one structural check, copied verbatim: a per-placement
   pass, a pairwise loop over every two placements with [List.mem] on
   their wire lists, and an event sweep for the capacity and power
   sums. [Schedule_check.run] now maps [Schedule.check]'s violations
   to codes; the property asks both for the same set of codes on
   packer schedules of generated strips (multi-point staircases,
   exclusion groups, power budgets, predecessors and conflicts), clean
   and with one fact corrupted, and asks the sweep never to raise. *)

module Job = Msoc_tam.Job
module Schedule = Msoc_tam.Schedule
module Registry = Msoc_tam.Packer_registry
module Pareto = Msoc_wrapper.Pareto
module Diagnostic = Msoc_check.Diagnostic
module Codes = Msoc_check.Codes
module Schedule_check = Msoc_check.Schedule_check
module Rng = Msoc_util.Rng

module Ref = struct
  let finish (p : Schedule.placement) = p.Schedule.start + p.Schedule.time

  let overlaps a b = a.Schedule.start < finish b && b.Schedule.start < finish a

  (* Sweep a piecewise-constant load: [placements] weighted by [load],
     report the first instant where the total exceeds [limit]. Frees are
     applied before allocations at equal instants because intervals are
     half-open. *)
  let sweep_excess ~load ~limit placements =
    let events =
      List.concat_map
        (fun p ->
          let l = load p in
          if l = 0 || p.Schedule.time <= 0 then []
          else [ (p.Schedule.start, l); (finish p, -l) ])
        placements
      |> List.sort compare
    in
    let rec scan running = function
      | [] -> None
      | (t, delta) :: rest ->
        let running = running + delta in
        if running > limit then Some (t, running) else scan running rest
    in
    scan 0 events

  let run ?expected ?reported_makespan (s : Schedule.t) =
    let diags = ref [] in
    let note d = diags := d :: !diags in
    let err code fmt =
      Format.kasprintf
        (fun m -> note (Diagnostic.make ~code ~severity:Diagnostic.Error m))
        fmt
    in
    let warn code fmt =
      Format.kasprintf
        (fun m -> note (Diagnostic.make ~code ~severity:Diagnostic.Warning m))
        fmt
    in
    let width = s.Schedule.total_width in
    let label (p : Schedule.placement) = p.Schedule.job.Job.label in
    (* per-rectangle shape *)
    List.iter
      (fun (p : Schedule.placement) ->
        if p.Schedule.width <= 0 || p.Schedule.time <= 0 || p.Schedule.start < 0 then
          err Codes.e103
            "test %s occupies a degenerate rectangle (start %d, width %d, time %d)"
            (label p) p.Schedule.start p.Schedule.width p.Schedule.time;
        if p.Schedule.width > width then
          err Codes.e104 "test %s is %d wires wide on a %d-wire TAM" (label p)
            p.Schedule.width width;
        let wires = p.Schedule.wires in
        if List.length wires <> p.Schedule.width then
          err Codes.e105 "test %s is assigned %d wires for a width-%d rectangle"
            (label p) (List.length wires) p.Schedule.width;
        if List.length (List.sort_uniq compare wires) <> List.length wires then
          err Codes.e105 "test %s lists the same wire twice" (label p);
        List.iter
          (fun w ->
            if w < 0 || w >= width then
              err Codes.e105 "test %s uses out-of-range wire %d (TAM has %d)"
                (label p) w width)
          wires;
        (* operating point on the job's own staircase *)
        let on_staircase =
          Pareto.points p.Schedule.job.Job.staircase
          |> List.exists (fun (pt : Pareto.point) ->
                 pt.Pareto.width = p.Schedule.width && pt.Pareto.time = p.Schedule.time)
        in
        if not on_staircase then
          err Codes.e110 "test %s runs at (%d wires, %d cycles), not on its staircase"
            (label p) p.Schedule.width p.Schedule.time;
        (* precedences *)
        List.iter
          (fun pred ->
            match
              List.find_opt (fun q -> label q = pred) s.Schedule.placements
            with
            | None ->
              err Codes.e111 "test %s depends on %s, which is not scheduled"
                (label p) pred
            | Some q ->
              if finish q > p.Schedule.start then
                err Codes.e111 "test %s starts at %d before predecessor %s finishes at %d"
                  (label p) p.Schedule.start pred (finish q))
          p.Schedule.job.Job.predecessors)
      s.Schedule.placements;
    (* pairwise temporal checks *)
    let rec pairwise = function
      | [] -> ()
      | p :: rest ->
        List.iter
          (fun q ->
            if overlaps p q then begin
              (match
                 List.find_opt (fun w -> List.mem w q.Schedule.wires) p.Schedule.wires
               with
              | Some wire ->
                err Codes.e101 "wire %d carries both %s and %s at once" wire (label p)
                  (label q)
              | None -> ());
              (match (p.Schedule.job.Job.exclusion, q.Schedule.job.Job.exclusion) with
              | Some g1, Some g2 when g1 = g2 ->
                err Codes.e106
                  "tests %s and %s share analog wrapper %d but overlap in time"
                  (label p) (label q) g1
              | _ -> ());
              if
                List.mem (label q) p.Schedule.job.Job.conflicts
                || List.mem (label p) q.Schedule.job.Job.conflicts
              then
                err Codes.e113 "declared-conflict tests %s and %s overlap" (label p)
                  (label q)
            end)
          rest;
        pairwise rest
    in
    pairwise s.Schedule.placements;
    (* capacity, independent of the recorded wire lists *)
    (match
       sweep_excess ~load:(fun p -> p.Schedule.width) ~limit:width
         s.Schedule.placements
     with
    | Some (t, busy) ->
      err Codes.e102 "at cycle %d, %d wires are busy on a %d-wire TAM" t busy width
    | None -> ());
    (* power budget *)
    (match s.Schedule.power_budget with
    | None -> ()
    | Some budget -> (
      match
        sweep_excess ~load:(fun p -> p.Schedule.job.Job.power) ~limit:budget
          s.Schedule.placements
      with
      | Some (t, power) ->
        err Codes.e114 "at cycle %d, power %d exceeds the budget %d" t power budget
      | None -> ()));
    (* exactly-once coverage against the expected job set *)
    (match expected with
    | None -> ()
    | Some jobs ->
      let scheduled = Hashtbl.create 16 in
      List.iter
        (fun p ->
          let l = label p in
          let n = Option.value (Hashtbl.find_opt scheduled l) ~default:0 in
          Hashtbl.replace scheduled l (n + 1))
        s.Schedule.placements;
      let expected_labels = Hashtbl.create 16 in
      List.iter (fun j -> Hashtbl.replace expected_labels j.Job.label ()) jobs;
      List.iter
        (fun j ->
          match Option.value (Hashtbl.find_opt scheduled j.Job.label) ~default:0 with
          | 0 -> err Codes.e108 "test %s is never scheduled" j.Job.label
          | 1 -> ()
          | n -> err Codes.e107 "test %s is scheduled %d times" j.Job.label n)
        jobs;
      List.iter
        (fun p ->
          if not (Hashtbl.mem expected_labels (label p)) then
            err Codes.e109 "scheduled test %s is not in the expected job set" (label p))
        s.Schedule.placements);
    (* makespan cross-check *)
    (match reported_makespan with
    | None -> ()
    | Some reported ->
      let recomputed =
        List.fold_left (fun acc p -> max acc (finish p)) 0 s.Schedule.placements
      in
      if reported <> recomputed then
        err Codes.e112 "reported makespan %d, recomputed %d" reported recomputed);
    if s.Schedule.placements = [] && Option.value expected ~default:[] = [] then
      warn Codes.w101 "schedule has no placements";
    List.rev !diags
end

(* --- one fact corrupted ------------------------------------------------ *)

type corruption =
  | Start_onto  (* a start moved onto another placement's start *)
  | Start_inside  (* ... or strictly inside its interval *)
  | Wire_replaced
  | Wire_dropped
  | Wire_shifted
  | Width of int
  | Time of int
  | Time_zero
  | Predecessor_added
  | Conflict_added
  | Budget_under_peak
  | Reversed
  | Tam_width_zero

let corruptions =
  [
    Start_onto; Start_inside; Wire_replaced; Wire_dropped; Wire_shifted; Width 1;
    Width (-1); Time 1; Time (-1); Time_zero; Predecessor_added; Conflict_added;
    Budget_under_peak; Reversed; Tam_width_zero;
  ]

let name = function
  | Start_onto -> "start onto"
  | Start_inside -> "start inside"
  | Wire_replaced -> "wire replaced"
  | Wire_dropped -> "wire dropped"
  | Wire_shifted -> "wire shifted"
  | Width d -> Printf.sprintf "width %+d" d
  | Time d -> Printf.sprintf "time %+d" d
  | Time_zero -> "time 0"
  | Predecessor_added -> "predecessor added"
  | Conflict_added -> "conflict added"
  | Budget_under_peak -> "budget under peak"
  | Reversed -> "reversed"
  | Tam_width_zero -> "TAM width 0"

(* [corrupt rng c (s, expected)]: the schedule and the expected job set
   with one fact changed; a job gains a predecessor or a conflict in
   its placement and in [expected] alike. *)
let corrupt rng c ((s : Schedule.t), expected) =
  let ps = Array.of_list s.Schedule.placements in
  let n = Array.length ps in
  let a = Rng.int rng ~bound:n and b = Rng.int rng ~bound:n in
  let pa = ps.(a) and pb = ps.(b) in
  let with_a (p : Schedule.placement) =
    ps.(a) <- p;
    ({ s with Schedule.placements = Array.to_list ps }, expected)
  in
  let some_wire () = Rng.int rng ~bound:(max 1 (List.length pa.Schedule.wires)) in
  let map_wire f =
    with_a
      { pa with
        Schedule.wires =
          (let k = some_wire () in
           List.concat (List.mapi (fun i w -> if i = k then f w else [ w ]) pa.Schedule.wires));
      }
  in
  let with_job (f : Job.t -> Job.t) =
    let job = f pa.Schedule.job in
    ps.(a) <- { pa with Schedule.job };
    ( { s with Schedule.placements = Array.to_list ps },
      List.map (fun (j : Job.t) -> if j.Job.label = job.Job.label then job else j) expected )
  in
  let other = pb.Schedule.job.Job.label in
  match c with
  | Start_onto -> with_a { pa with Schedule.start = pb.Schedule.start }
  | Start_inside ->
    with_a
      { pa with
        Schedule.start =
          pb.Schedule.start + Rng.int_in rng ~lo:1 ~hi:(max 1 (pb.Schedule.time - 1));
      }
  | Wire_replaced ->
    map_wire (fun _ -> [ Rng.int_in rng ~lo:(-1) ~hi:s.Schedule.total_width ])
  | Wire_dropped -> map_wire (fun _ -> [])
  | Wire_shifted -> map_wire (fun w -> [ (if Rng.bool rng then w + 1 else w - 1) ])
  | Width d -> with_a { pa with Schedule.width = pa.Schedule.width + d }
  | Time d -> with_a { pa with Schedule.time = pa.Schedule.time + d }
  | Time_zero -> with_a { pa with Schedule.time = 0 }
  | Predecessor_added ->
    with_job (fun j -> Job.with_predecessors j (other :: j.Job.predecessors))
  | Conflict_added -> with_job (fun j -> Job.with_conflicts j (other :: j.Job.conflicts))
  | Budget_under_peak ->
    ({ s with Schedule.power_budget = Some (Schedule.peak_power s - 1) }, expected)
  | Reversed -> ({ s with Schedule.placements = List.rev s.Schedule.placements }, expected)
  | Tam_width_zero -> ({ s with Schedule.total_width = 0 }, expected)

let code_set ds = List.sort_uniq compare (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) ds)

(* Clean, then once per corruption: the same codes as [Ref.run]. *)
let same_codes (inst : Test_packer_ref.instance) =
  let rng = Rng.create ~seed:inst.Test_packer_ref.seed in
  let packer = Rng.pick rng (Array.of_list Registry.all) in
  let s =
    Registry.pack packer ?power_budget:inst.Test_packer_ref.power_budget
      ~width:inst.Test_packer_ref.width inst.Test_packer_ref.jobs
  in
  let reported_makespan = Schedule.makespan s in
  let agree what (s, expected) =
    let want = code_set (Ref.run ~expected ~reported_makespan s) in
    match code_set (Schedule_check.run ~expected ~reported_makespan s) with
    | got when got = want -> true
    | got ->
      QCheck.Test.fail_reportf "%s (%s): sweep {%s}, reference {%s}" what
        (Registry.name packer) (String.concat " " got) (String.concat " " want)
    | exception e ->
      QCheck.Test.fail_reportf "%s: the sweep raised %s" what (Printexc.to_string e)
  in
  let clean = (s, inst.Test_packer_ref.jobs) in
  agree "clean" clean
  && List.for_all (fun c -> agree (name c) (corrupt rng c clean)) corruptions

let suites =
  [
    ( "schedule-ref.property",
      [
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~name:"check codes = reference on clean and corrupted schedules"
             ~count:400 Test_packer_ref.instance_arb same_codes);
      ] );
  ]
