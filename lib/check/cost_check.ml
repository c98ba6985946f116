module Problem = Msoc_testplan.Problem
module Evaluate = Msoc_testplan.Evaluate
module Schedule = Msoc_tam.Schedule
module Area = Msoc_analog.Area
module Sharing = Msoc_analog.Sharing
module Spec = Msoc_analog.Spec

(* Relative: loose enough for float re-association, far tighter than
   any real divergence. *)
let tol = 1e-6

let close a b =
  Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let evaluation ~(problem : Problem.t) ~reference_makespan
    (ev : Evaluate.evaluation) =
  let diags = ref [] in
  let err code fmt =
    Format.kasprintf
      (fun m -> diags := Diagnostic.make ~code ~severity:Diagnostic.Error m :: !diags)
      fmt
  in
  let warn code fmt =
    Format.kasprintf
      (fun m ->
        diags := Diagnostic.make ~code ~severity:Diagnostic.Warning m :: !diags)
      fmt
  in
  (* the combination must partition exactly the problem's analog cores *)
  let combination_labels =
    List.concat_map (List.map (fun c -> c.Spec.label)) ev.Evaluate.combination.Sharing.groups
    |> List.sort compare
  in
  let problem_labels =
    List.map (fun c -> c.Spec.label) problem.Problem.analog_cores |> List.sort compare
  in
  if combination_labels <> problem_labels then
    err Codes.e205 "combination covers {%s}, problem has {%s}"
      (String.concat "," combination_labels)
      (String.concat "," problem_labels);
  (* reported makespan vs the schedule it came with *)
  let recomputed_makespan = Schedule.makespan ev.Evaluate.schedule in
  if ev.Evaluate.makespan <> recomputed_makespan then
    err Codes.e204 "evaluation reports makespan %d, its schedule spans %d"
      ev.Evaluate.makespan recomputed_makespan;
  (* Equation 1 *)
  let c_a =
    Area.cost_ca ~model:problem.Problem.area_model ev.Evaluate.combination
  in
  if not (close c_a ev.Evaluate.c_a) then
    err Codes.e201 "C_A reported %.9g, Equation 1 recomputes %.9g" ev.Evaluate.c_a
      c_a;
  (* C_T normalization (zero reference prices C_T as 0 by convention) *)
  if reference_makespan = 0 then
    warn Codes.w201 "reference makespan is 0; C_T priced as 0 by convention";
  let c_t =
    Msoc_util.Numeric.percent_of_or ~default:0.0
      (float_of_int recomputed_makespan)
      (float_of_int reference_makespan)
  in
  if not (close c_t ev.Evaluate.c_t) then
    err Codes.e202 "C_T reported %.9g, recomputed %.9g (makespan %d / reference %d)"
      ev.Evaluate.c_t c_t recomputed_makespan reference_makespan;
  (* weighted total *)
  let cost =
    (problem.Problem.weight_time *. c_t) +. (problem.Problem.weight_area *. c_a)
  in
  if not (close cost ev.Evaluate.cost) then
    err Codes.e203 "cost reported %.9g, recomputed %.9g = %.3g*C_T + %.3g*C_A"
      ev.Evaluate.cost cost problem.Problem.weight_time problem.Problem.weight_area;
  List.rev !diags
