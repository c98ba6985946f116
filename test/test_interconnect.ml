(* Tests for EXTEST interconnect scheduling: conflict semantics in the
   packer/checker and the link-job generator. *)

module Types = Msoc_itc02.Types
module Job = Msoc_tam.Job
module Schedule = Msoc_tam.Schedule
module Packer = Msoc_tam.Packer
module Interconnect = Msoc_testplan.Interconnect

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- raw conflict semantics --- *)

let fixed ~label ~width ~time = Fixtures.digital_job ~label (Msoc_wrapper.Pareto.fixed ~width ~time)

let test_conflicts_serialize () =
  let a = fixed ~label:"a" ~width:2 ~time:100 in
  let b = fixed ~label:"b" ~width:2 ~time:100 in
  let x = Job.with_conflicts (fixed ~label:"x" ~width:1 ~time:50) [ "a"; "b" ] in
  let s = Packer.pack ~width:8 [ a; b; x ] in
  checki "valid" 0 (List.length (Schedule.check s));
  let find l =
    List.find (fun (p : Schedule.placement) -> p.Schedule.job.Job.label = l)
      s.Schedule.placements
  in
  let overlap p q =
    p.Schedule.start < Schedule.finish q && q.Schedule.start < Schedule.finish p
  in
  checkb "x avoids a" false (overlap (find "x") (find "a"));
  checkb "x avoids b" false (overlap (find "x") (find "b"));
  (* a and b themselves are free to overlap *)
  checkb "a and b parallel" true (overlap (find "a") (find "b"))

let test_conflicts_symmetric_direction () =
  (* the conflicting job placed FIRST must still block the later one *)
  let long = Job.with_conflicts (fixed ~label:"long" ~width:1 ~time:1_000) [ "short" ] in
  let short = fixed ~label:"short" ~width:1 ~time:10 in
  (* long has the larger min_time, so LPT places it first *)
  let s = Packer.pack ~width:8 [ long; short ] in
  checki "valid (checker sees symmetric conflict)" 0 (List.length (Schedule.check s))

let test_checker_catches_conflict_overlap () =
  let x = Job.with_conflicts (fixed ~label:"x" ~width:1 ~time:100) [ "y" ] in
  let y = fixed ~label:"y" ~width:1 ~time:100 in
  let s =
    {
      Schedule.total_width = 4;
      power_budget = None;
      placements =
        [
          { Schedule.job = x; start = 0; width = 1; time = 100; wires = [ 0 ] };
          { Schedule.job = y; start = 50; width = 1; time = 100; wires = [ 1 ] };
        ];
    }
  in
  checkb "conflict flagged" true
    (List.exists
       (function Schedule.Conflict_overlap _ -> true | _ -> false)
       (Schedule.check s))

(* --- link jobs --- *)

let soc = Msoc_itc02.Synthetic.d281s ()

let core_name i = (List.find (fun (c : Types.core) -> c.Types.id = i) soc.Types.cores).Types.name

let test_link_job_shape () =
  let l =
    Interconnect.link ~from_core:(core_name 1) ~to_core:(core_name 2) ~patterns:50
  in
  let j = List.hd (Interconnect.jobs soc ~max_width:8 [ l ]) in
  checkb "label" true
    (j.Job.label = Printf.sprintf "link:%s->%s" (core_name 1) (core_name 2));
  Alcotest.(check (list string)) "conflicts both ends"
    [ core_name 1; core_name 2 ] j.Job.conflicts;
  checkb "positive time" true (Job.min_time j > 0)

let test_link_validation () =
  (match Interconnect.link ~from_core:"a" ~to_core:"a" ~patterns:5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self-link accepted");
  (match Interconnect.link ~from_core:"a" ~to_core:"b" ~patterns:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 patterns accepted");
  (match
     Interconnect.jobs soc ~max_width:8
       [ Interconnect.link ~from_core:"ghost" ~to_core:(core_name 1) ~patterns:5 ]
   with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown core accepted");
  let l = Interconnect.link ~from_core:(core_name 1) ~to_core:(core_name 2) ~patterns:5 in
  match Interconnect.jobs soc ~max_width:8 [ l; l ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate link accepted"

let test_neighbor_chain () =
  let links = Fixtures.neighbor_chain soc ~patterns:40 in
  checki "n-1 links" 7 (List.length links);
  List.iter
    (fun (l : Interconnect.link) ->
      checkb "distinct endpoints" true (l.Interconnect.from_core <> l.Interconnect.to_core))
    links

let test_full_soc_with_interconnect () =
  let width = 16 in
  let core_jobs = List.map (Job.of_core ~max_width:width) soc.Types.cores in
  let link_jobs =
    Interconnect.jobs soc ~max_width:width
      (Fixtures.neighbor_chain soc ~patterns:60)
  in
  let s = Packer.pack ~width (core_jobs @ link_jobs) in
  checki "valid schedule with links" 0 (List.length (Schedule.check s));
  checki "all jobs placed" (8 + 7) (List.length s.Schedule.placements);
  (* interconnect stretches the SOC test no more than serially *)
  let core_only = Schedule.makespan (Packer.pack ~width core_jobs) in
  checkb "links cost something" true (Schedule.makespan s >= core_only)

(* Random neighbour-chain link sets schedule validly with the cores. *)
let test_interconnect_qcheck =
  QCheck.Test.make ~name:"random link sets" ~count:25
    QCheck.(pair (int_range 1 500) (int_range 2 12))
    (fun (patterns, width) ->
      let core_jobs = List.map (Job.of_core ~max_width:width) soc.Types.cores in
      let link_jobs =
        Interconnect.jobs soc ~max_width:width
          (Fixtures.neighbor_chain soc ~patterns)
      in
      let s = Packer.pack ~width (core_jobs @ link_jobs) in
      Schedule.check s = [])

let suites =
  [
    ( "interconnect",
      [
        Alcotest.test_case "conflicts serialize" `Quick test_conflicts_serialize;
        Alcotest.test_case "symmetric direction" `Quick test_conflicts_symmetric_direction;
        Alcotest.test_case "checker catches overlap" `Quick test_checker_catches_conflict_overlap;
        Alcotest.test_case "link job shape" `Quick test_link_job_shape;
        Alcotest.test_case "validation" `Quick test_link_validation;
        Alcotest.test_case "neighbor chain" `Quick test_neighbor_chain;
        Alcotest.test_case "full SOC with links" `Quick test_full_soc_with_interconnect;
        QCheck_alcotest.to_alcotest ~speed_level:`Quick test_interconnect_qcheck;
      ] );
  ]
