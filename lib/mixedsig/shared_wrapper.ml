module Spec = Msoc_analog.Spec

type run = {
  core_label : string;
  test_name : string;
  start_cycle : int;
  finish_cycle : int;
}

type t = {
  member_cores : Spec.core list;
  requirement : Spec.requirement;
  wrapper : Wrapper.t;
  crosstalk : float;
  system_clock_hz : float;
  mutable clock : int;
  mutable runs : run list;
  mutable reconfig_count : int;
}

let create ?(crosstalk = 1.0e-3) ?(system_clock_hz = 50.0e6) member_cores =
  if member_cores = [] then invalid_arg "Shared_wrapper.create: no member cores";
  let requirement =
    match List.map Spec.requirement member_cores with
    | [] -> assert false
    | r :: rest -> List.fold_left Spec.merge_requirements r rest
  in
  if requirement.Spec.f_sample_max_hz > system_clock_hz then
    invalid_arg "Shared_wrapper.create: member needs sampling above the system clock";
  (* Converters must have even resolution (modular architecture). *)
  let bits = requirement.Spec.bits + (requirement.Spec.bits land 1) in
  {
    member_cores;
    requirement;
    wrapper = Wrapper.create ~bits ();
    crosstalk;
    system_clock_hz;
    clock = 0;
    runs = [];
    reconfig_count = 0;
  }


let requirement t = t.requirement

let bits t = Wrapper.bits t.wrapper

let run_test t ~core_label ~core ~test ~stimulus =
  if not (List.exists (fun c -> c.Spec.label = core_label) t.member_cores) then
    invalid_arg
      (Printf.sprintf "Shared_wrapper.run_test: core %s is not a member" core_label);
  let configured =
    Wrapper.configure_for_test t.wrapper ~system_clock_hz:t.system_clock_hz test
  in
  t.reconfig_count <- t.reconfig_count + 1;
  (* Mux parasitics: a small deterministic interferer added on the
     analog path between DAC and core. *)
  let fs = Wrapper.sample_rate_hz configured ~system_clock_hz:t.system_clock_hz in
  let noisy_core samples =
    let interferer_hz = fs /. 7.3 in
    let polluted =
      Array.mapi
        (fun i v ->
          v
          +. t.crosstalk
             *. Float.sin (2.0 *. Float.pi *. interferer_hz *. float_of_int i /. fs))
        samples
    in
    core polluted
  in
  let response = Wrapper.apply_core_test configured ~core:noisy_core ~stimulus in
  let duration = Wrapper.test_cycles configured ~samples:(Array.length stimulus) in
  let start_cycle = t.clock in
  let finish_cycle = start_cycle + duration in
  t.clock <- finish_cycle;
  t.runs <-
    { core_label; test_name = test.Spec.name; start_cycle; finish_cycle } :: t.runs;
  response

let schedule t = List.rev t.runs

let usage_cycles t = t.clock

let reconfigurations t = t.reconfig_count
