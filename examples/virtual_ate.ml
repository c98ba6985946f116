(* Virtual ATE session: from plan to executed measurements.

   The planner decides *when* each analog test runs and on *which*
   shared wrapper; the co-simulation knows *how* to run it. This
   example closes the loop: it plans a small mixed-signal SOC, then
   walks the schedule, executing every analog test as the testbench
   program its name maps to, at the test's own sampling rate and
   resolution (the path `msoc_plan cosim --calibrate` takes), and
   prints an ATE-style session log with scheduled times, measured
   values and the TAM cycles the co-simulated record took.

     dune exec examples/virtual_ate.exe *)

module Spec = Msoc_analog.Spec
module Catalog = Msoc_analog.Catalog
module Sharing = Msoc_analog.Sharing
module Schedule = Msoc_tam.Schedule
module Job = Msoc_tam.Job
module Plan = Msoc_testplan.Plan
module Testbench = Msoc_cosim.Testbench
module Calibrate = Msoc_cosim.Calibrate

let analog_cores = [ Catalog.core_c; Catalog.core_d; Catalog.core_e ]

(* the SOC's TAM clock, which sets each test's wrapper divide ratio *)
let system_clock_hz = 78.0e6

let () =
  let problem =
    Msoc_testplan.Problem.make ~soc:(Msoc_itc02.Synthetic.d281s ()) ~analog_cores
      ~tam_width:24 ~weight_time:0.5 ()
  in
  let plan = Plan.run problem in
  Printf.printf "Plan: sharing %s, makespan %s cycles\n\n"
    (Sharing.short_name (Plan.sharing plan))
    (Msoc_util.Ascii_table.int_cell (Plan.makespan plan));
  (* one co-simulated run per analog test, keyed by its job label *)
  let measured =
    List.concat_map
      (fun core ->
        List.map
          (fun (m : Calibrate.measured) -> (core.Spec.label ^ ":" ^ m.Calibrate.test.Spec.name, m))
          (Calibrate.measure_core ~system_clock_hz core))
      analog_cores
  in
  let schedule = plan.Plan.best.Msoc_testplan.Evaluate.schedule in
  let analog_placements =
    schedule.Schedule.placements
    |> List.filter (fun (p : Schedule.placement) ->
           p.Schedule.job.Job.exclusion <> None)
    |> List.sort (fun (a : Schedule.placement) b ->
           compare a.Schedule.start b.Schedule.start)
  in
  Printf.printf "%-10s %-10s %-8s %-7s %12s %14s %14s\n" "start" "finish" "test" "program"
    "wrapped" "err vs direct" "co-sim cycles";
  List.iter
    (fun (p : Schedule.placement) ->
      let label = p.Schedule.job.Job.label in
      match List.assoc_opt label measured with
      | Some m ->
        Printf.printf "%-10d %-10d %-8s %-7s %12.5g %13.2f%% %14d\n" p.Schedule.start
          (Schedule.finish p) label
          (Testbench.spec_name m.Calibrate.spec)
          m.Calibrate.value m.Calibrate.error_pct m.Calibrate.measured_cycles
      | None -> ())
    analog_placements;
  Printf.printf
    "\nEvery analog measurement above ran as digital stimulus/response \
     through its wrapper's converters, at the test's own sampling rate; \
     the TAM schedule reserved the catalog's cycles for it.\n"
