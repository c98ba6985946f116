(* Tests for Msoc_tam: jobs, schedule validity checking and the
   rectangle packer (feasibility, quality vs lower bound, exclusion
   groups). *)

module Types = Msoc_itc02.Types
module Pareto = Msoc_wrapper.Pareto
module Job = Msoc_tam.Job
module Schedule = Msoc_tam.Schedule
module Packer = Msoc_tam.Packer

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let digital_core id patterns chains =
  Types.core ~id ~name:(Printf.sprintf "d%d" id) ~inputs:20 ~outputs:15 ~bidirs:0
    ~scan_chains:chains ~patterns

let small_jobs () =
  [
    Job.of_core (digital_core 1 100 [ 50; 50 ]) ~max_width:8;
    Job.of_core (digital_core 2 200 [ 80 ]) ~max_width:8;
    Job.of_core (digital_core 3 50 []) ~max_width:8;
    Job.analog ~label:"X:t1" ~width:2 ~time:5_000 ~group:0;
    Job.analog ~label:"X:t2" ~width:1 ~time:3_000 ~group:0;
    Job.analog ~label:"Y:t1" ~width:3 ~time:4_000 ~group:0;
  ]

(* --- Job --- *)

let test_job_analog () =
  let j = Job.analog ~label:"a" ~width:3 ~time:100 ~group:7 in
  checki "min width" 3 (Job.min_width j);
  checki "min time" 100 (Job.min_time j);
  checki "area" 300 (Job.area j);
  checkb "exclusion" true (j.Job.exclusion = Some 7)

let test_job_of_core () =
  let j = Job.of_core (digital_core 1 100 [ 60; 60 ]) ~max_width:8 in
  checkb "no exclusion" true (j.Job.exclusion = None);
  let narrow = Pareto.min_width j.Job.staircase in
  checkb "area <= narrowest point's product" true
    (Job.area j <= narrow * Pareto.time_at j.Job.staircase ~width:narrow);
  checkb "area positive" true (Job.area j > 0)

(* --- Schedule.check --- *)

let placement ?(group = None) ~label ~start ~width ~time ~wires () =
  let job =
    match group with
    | None -> Fixtures.digital_job ~label (Pareto.fixed ~width ~time)
    | Some g -> Job.analog ~label ~width ~time ~group:g
  in
  { Schedule.job; start; width; time; wires }

let test_check_accepts_valid () =
  let s =
    {
      Schedule.total_width = 4;
      power_budget = None;
      placements =
        [
          placement ~label:"a" ~start:0 ~width:2 ~time:10 ~wires:[ 0; 1 ] ();
          placement ~label:"b" ~start:0 ~width:2 ~time:10 ~wires:[ 2; 3 ] ();
          placement ~label:"c" ~start:10 ~width:4 ~time:5 ~wires:[ 0; 1; 2; 3 ] ();
        ];
    }
  in
  checki "no violations" 0 (List.length (Schedule.check s))

let test_check_detects_wire_conflict () =
  let s =
    {
      Schedule.total_width = 2;
      power_budget = None;
      placements =
        [
          placement ~label:"a" ~start:0 ~width:1 ~time:10 ~wires:[ 0 ] ();
          placement ~label:"b" ~start:5 ~width:1 ~time:10 ~wires:[ 0 ] ();
        ];
    }
  in
  checkb "conflict found" true
    (List.exists
       (function Schedule.Wire_conflict _ -> true | _ -> false)
       (Schedule.check s))

let test_check_detects_exclusion_overlap () =
  let s =
    {
      Schedule.total_width = 4;
      power_budget = None;
      placements =
        [
          placement ~group:(Some 1) ~label:"a" ~start:0 ~width:1 ~time:10 ~wires:[ 0 ] ();
          placement ~group:(Some 1) ~label:"b" ~start:5 ~width:1 ~time:10 ~wires:[ 1 ] ();
        ];
    }
  in
  checkb "exclusion violation found" true
    (List.exists
       (function Schedule.Exclusion_overlap _ -> true | _ -> false)
       (Schedule.check s))

let test_check_detects_bad_wires () =
  let s =
    {
      Schedule.total_width = 2;
      power_budget = None;
      placements =
        [ placement ~label:"a" ~start:0 ~width:2 ~time:10 ~wires:[ 0; 5 ] () ];
    }
  in
  let violations = Schedule.check s in
  checkb "out of range flagged" true
    (List.exists
       (function Schedule.Wire_out_of_range _ -> true | _ -> false)
       violations)

let test_check_detects_wrong_wire_count () =
  let s =
    {
      Schedule.total_width = 4;
      power_budget = None;
      placements =
        [ placement ~label:"a" ~start:0 ~width:3 ~time:10 ~wires:[ 0 ] () ];
    }
  in
  checkb "wrong count flagged" true
    (List.exists
       (function Schedule.Wrong_wire_count _ -> true | _ -> false)
       (Schedule.check s))

let test_check_detects_off_staircase () =
  let job = Fixtures.digital_job ~label:"a" (Pareto.fixed ~width:2 ~time:10) in
  let s =
    {
      Schedule.total_width = 4;
      power_budget = None;
      placements = [ { Schedule.job; start = 0; width = 2; time = 99; wires = [ 0; 1 ] } ];
    }
  in
  checkb "off-staircase flagged" true
    (List.exists
       (function Schedule.Bad_operating_point _ -> true | _ -> false)
       (Schedule.check s))

let test_schedule_metrics () =
  let s =
    {
      Schedule.total_width = 2;
      power_budget = None;
      placements =
        [
          placement ~label:"a" ~start:0 ~width:1 ~time:10 ~wires:[ 0 ] ();
          placement ~label:"b" ~start:0 ~width:1 ~time:20 ~wires:[ 1 ] ();
        ];
    }
  in
  checki "makespan" 20 (Schedule.makespan s);
  checkb "efficiency 0.75" true
    (Msoc_util.Numeric.close (Schedule.efficiency s) 0.75)

(* --- Packer --- *)

let test_pack_feasible () =
  let schedule = Packer.pack ~width:8 (small_jobs ()) in
  checki "all jobs placed" 6 (List.length schedule.Schedule.placements);
  checki "valid" 0 (List.length (Schedule.check schedule))

let test_pack_exclusion_serialized () =
  let schedule = Packer.pack ~width:8 (small_jobs ()) in
  let analog =
    List.filter
      (fun (p : Schedule.placement) -> p.Schedule.job.Job.exclusion = Some 0)
      schedule.Schedule.placements
  in
  checki "analog total serial time"
    (5_000 + 3_000 + 4_000)
    (List.fold_left (fun acc (p : Schedule.placement) -> acc + p.Schedule.time) 0 analog);
  (* serialized: sorted by start, each begins after the previous ends *)
  let sorted =
    List.sort (fun (a : Schedule.placement) b -> compare a.Schedule.start b.Schedule.start) analog
  in
  let rec serial = function
    | (a : Schedule.placement) :: (b : Schedule.placement) :: rest ->
      checkb "no overlap" true (Schedule.finish a <= b.Schedule.start);
      serial (b :: rest)
    | [ _ ] | [] -> ()
  in
  serial sorted

let test_pack_respects_lower_bound () =
  let jobs = small_jobs () in
  let schedule = Packer.pack ~width:8 jobs in
  checkb "makespan >= LB" true
    (Schedule.makespan schedule >= Packer.lower_bound ~width:8 jobs)

let test_pack_infeasible_width () =
  let jobs = [ Job.analog ~label:"wide" ~width:10 ~time:100 ~group:0 ] in
  match Packer.pack ~width:4 jobs with
  | exception Packer.Infeasible _ -> ()
  | _ -> Alcotest.fail "infeasible width accepted"

let test_pack_zero_width_rejected () =
  match Packer.pack ~width:0 [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width 0 accepted"

let test_pack_single_job_starts_at_zero () =
  let jobs = [ Job.analog ~label:"only" ~width:2 ~time:100 ~group:0 ] in
  let s = Packer.pack ~width:4 jobs in
  match s.Schedule.placements with
  | [ p ] ->
    checki "starts at 0" 0 p.Schedule.start;
    checki "makespan = its time" 100 (Schedule.makespan s)
  | _ -> Alcotest.fail "expected one placement"

let test_pack_makespan_decreases_with_width () =
  let soc = Msoc_itc02.Synthetic.d281s () in
  let jobs w = List.map (Job.of_core ~max_width:w) soc.Types.cores in
  let m8 = Schedule.makespan (Packer.pack ~width:8 (jobs 8)) in
  let m16 = Schedule.makespan (Packer.pack ~width:16 (jobs 16)) in
  let m32 = Schedule.makespan (Packer.pack ~width:32 (jobs 32)) in
  checkb "W=16 no slower than W=8" true (m16 <= m8);
  checkb "W=32 no slower than W=16" true (m32 <= m16)

let test_pack_quality_on_benchmark () =
  (* The packer promises makespans within a modest factor of the lower
     bound on the calibrated benchmark (it reaches ~1.1x in practice;
     1.35 leaves headroom against generator tweaks). *)
  let soc = Msoc_itc02.Synthetic.p93791s () in
  List.iter
    (fun w ->
      let jobs = List.map (Job.of_core ~max_width:w) soc.Types.cores in
      let schedule = Packer.pack ~width:w jobs in
      checki (Printf.sprintf "valid at W=%d" w) 0 (List.length (Schedule.check schedule));
      let lb = Packer.lower_bound ~width:w jobs in
      let ratio = float_of_int (Schedule.makespan schedule) /. float_of_int lb in
      checkb (Printf.sprintf "ratio %.3f <= 1.35 at W=%d" ratio w) true (ratio <= 1.35))
    [ 16; 32; 64 ]

let test_lower_bound_components () =
  let jobs =
    [
      Job.analog ~label:"a" ~width:1 ~time:100 ~group:0;
      Job.analog ~label:"b" ~width:1 ~time:150 ~group:0;
      Job.analog ~label:"c" ~width:1 ~time:60 ~group:1;
    ]
  in
  (* group 0 serial time dominates *)
  checki "group bound" 250 (Packer.lower_bound ~width:32 jobs);
  (* with tiny width, area bound dominates: total area 310 wires*cycles *)
  checki "area bound" 310 (Packer.lower_bound ~width:1 jobs)

(* The bound validates its strip like [Packer.pack]: a zero or
   negative width or budget is an [Invalid_argument] with pack's
   message, from every registry variant, and positive strips keep
   their bounds. *)
let test_lower_bound_strip_validation () =
  let jobs =
    [
      Job.with_power (Job.analog ~label:"a" ~width:1 ~time:100 ~group:0) 2;
      Job.with_power (Job.analog ~label:"b" ~width:1 ~time:150 ~group:0) 1;
      Job.with_power (Job.analog ~label:"c" ~width:1 ~time:60 ~group:1) 3;
    ]
  in
  let width_msg = Invalid_argument "Packer.pack: width must be positive" in
  let budget_msg = Invalid_argument "Packer.pack: power_budget must be positive" in
  let bounds =
    ("packer", fun power_budget width -> Packer.lower_bound ?power_budget ~width jobs)
    :: List.map
         (fun p ->
           ( Msoc_tam.Packer_registry.name p,
             fun power_budget width ->
               Msoc_tam.Packer_registry.lower_bound p ?power_budget ~width jobs ))
         Msoc_tam.Packer_registry.all
  in
  List.iter
    (fun (name, bound) ->
      Alcotest.check_raises (name ^ " width 0") width_msg (fun () ->
          ignore (bound None 0));
      Alcotest.check_raises (name ^ " width -3") width_msg (fun () ->
          ignore (bound None (-3)));
      Alcotest.check_raises (name ^ " budget 0") budget_msg (fun () ->
          ignore (bound (Some 0) 4));
      Alcotest.check_raises (name ^ " budget -1") budget_msg (fun () ->
          ignore (bound (Some (-1)) 4));
      checki (name ^ " area bound") 310 (bound None 1);
      checki (name ^ " group bound") 250 (bound None 2);
      checki (name ^ " energy bound") 265 (bound (Some 2) 2);
      checki (name ^ " loose budget") 250 (bound (Some 50) 32))
    bounds

(* --- Intervals: touching stretches coalesce on insert --- *)

let test_intervals_coalesce () =
  let open Packer.Intervals in
  let t = add empty ~start:0 ~finish:10 in
  let t = add t ~start:20 ~finish:30 in
  checkb "disjoint kept apart" true (to_list t = [ (0, 10); (20, 30) ]);
  let t = add t ~start:10 ~finish:20 in
  checkb "bridging window merges both sides" true (to_list t = [ (0, 30) ]);
  let t = add t ~start:40 ~finish:50 in
  let t = add t ~start:30 ~finish:35 in
  checkb "left-touching window absorbed" true (to_list t = [ (0, 35); (40, 50) ]);
  checkb "gap still free" true (free_during t ~start:35 ~finish:40);
  checkb "busy stretch not free" false (free_during t ~start:34 ~finish:36);
  checkb "ends_after sees merged ends" true (ends_after t ~time:35 = [ 35; 50 ])

let test_intervals_coalescing_preserves_schedules () =
  (* the paper-table instance: coalescing must not move a single
     rectangle (the candidate-start argument in packer.mli) *)
  let jobs = small_jobs () in
  List.iter
    (fun width ->
      let s = Packer.pack ~width jobs in
      checki "still valid" 0 (List.length (Schedule.check s)))
    [ 4; 6; 8 ]

(* --- pack_optimized: promotion ranks (newest promotion leads) --- *)

let fixed_job l t = Fixtures.digital_job ~label:l (Pareto.fixed ~width:2 ~time:t)

let test_pack_optimized_never_worse () =
  let jobs = small_jobs () in
  List.iter
    (fun width ->
      let base = Schedule.makespan (Packer.pack ~width jobs) in
      let refined = Packer.pack_optimized ~width jobs in
      checki "valid" 0 (List.length (Schedule.check refined));
      checkb "pack_optimized <= pack" true (Schedule.makespan refined <= base))
    [ 4; 8 ]

(* --- respect_precedences: duplicate labels rejected --- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_duplicate_label_rejected () =
  let jobs = [ fixed_job "a" 10; fixed_job "b" 20; fixed_job "a" 30 ] in
  match Packer.pack ~width:4 jobs with
  | exception Packer.Infeasible msg ->
    checkb "names the duplicate" true
      (contains msg "duplicate" && contains msg "a")
  | _ -> Alcotest.fail "duplicate label accepted"

let qcheck_tests =
  let open QCheck in
  let jobs_arb =
    make
      (let open Gen in
       let* n_digital = int_range 1 8 in
       let* n_analog = int_range 0 6 in
       let* groups = int_range 1 3 in
       let* seeds = list_repeat (n_digital + n_analog) (int_range 1 10_000) in
       let digital =
         List.filteri (fun i _ -> i < n_digital) seeds
         |> List.mapi (fun i seed ->
                let rng = Msoc_util.Rng.create ~seed in
                let chains =
                  List.init
                    (Msoc_util.Rng.int rng ~bound:5)
                    (fun _ -> Msoc_util.Rng.int_in rng ~lo:10 ~hi:200)
                in
                Job.of_core
                  (digital_core (i + 1) (Msoc_util.Rng.int_in rng ~lo:1 ~hi:300) chains)
                  ~max_width:6)
       in
       let analog =
         List.filteri (fun i _ -> i >= n_digital) seeds
         |> List.mapi (fun i seed ->
                let rng = Msoc_util.Rng.create ~seed in
                Job.analog
                  ~label:(Printf.sprintf "an%d" i)
                  ~width:(Msoc_util.Rng.int_in rng ~lo:1 ~hi:4)
                  ~time:(Msoc_util.Rng.int_in rng ~lo:10 ~hi:5_000)
                  ~group:(Msoc_util.Rng.int rng ~bound:groups))
       in
       return (digital @ analog))
  in
  [
    Test.make ~name:"packer output always passes Schedule.check" ~count:150 jobs_arb
      (fun jobs ->
        let s = Packer.pack ~width:6 jobs in
        Schedule.check s = []);
    Test.make ~name:"packer places every job exactly once" ~count:150 jobs_arb
      (fun jobs ->
        let s = Packer.pack ~width:6 jobs in
        let placed =
          List.map (fun (p : Schedule.placement) -> p.Schedule.job.Job.label)
            s.Schedule.placements
          |> List.sort compare
        in
        placed = List.sort compare (List.map (fun j -> j.Job.label) jobs));
    Test.make ~name:"makespan >= lower bound" ~count:150 jobs_arb
      (fun jobs ->
        let s = Packer.pack ~width:6 jobs in
        Schedule.makespan s >= Packer.lower_bound ~width:6 jobs);
  ]
  |> List.map (fun t -> QCheck_alcotest.to_alcotest t)

let suites =
  [
    ( "tam.job",
      [
        Alcotest.test_case "analog job" `Quick test_job_analog;
        Alcotest.test_case "of_core" `Quick test_job_of_core;
      ] );
    ( "tam.schedule",
      [
        Alcotest.test_case "accepts valid" `Quick test_check_accepts_valid;
        Alcotest.test_case "wire conflict" `Quick test_check_detects_wire_conflict;
        Alcotest.test_case "exclusion overlap" `Quick test_check_detects_exclusion_overlap;
        Alcotest.test_case "bad wires" `Quick test_check_detects_bad_wires;
        Alcotest.test_case "wrong wire count" `Quick test_check_detects_wrong_wire_count;
        Alcotest.test_case "off staircase" `Quick test_check_detects_off_staircase;
        Alcotest.test_case "metrics" `Quick test_schedule_metrics;
      ] );
    ( "tam.packer",
      [
        Alcotest.test_case "feasible" `Quick test_pack_feasible;
        Alcotest.test_case "exclusion serialized" `Quick test_pack_exclusion_serialized;
        Alcotest.test_case "respects lower bound" `Quick test_pack_respects_lower_bound;
        Alcotest.test_case "infeasible width" `Quick test_pack_infeasible_width;
        Alcotest.test_case "zero width rejected" `Quick test_pack_zero_width_rejected;
        Alcotest.test_case "single job at zero" `Quick test_pack_single_job_starts_at_zero;
        Alcotest.test_case "makespan vs width" `Quick test_pack_makespan_decreases_with_width;
        Alcotest.test_case "quality on benchmark" `Slow test_pack_quality_on_benchmark;
        Alcotest.test_case "lower bound components" `Quick test_lower_bound_components;
        Alcotest.test_case "lower bound strip validation" `Quick
          test_lower_bound_strip_validation;
        Alcotest.test_case "intervals coalesce" `Quick test_intervals_coalesce;
        Alcotest.test_case "coalescing preserves schedules" `Quick
          test_intervals_coalescing_preserves_schedules;
        Alcotest.test_case "pack_optimized never worse" `Quick
          test_pack_optimized_never_worse;
        Alcotest.test_case "duplicate label rejected" `Quick
          test_duplicate_label_rejected;
      ] );
    ("tam.properties", qcheck_tests);
  ]
