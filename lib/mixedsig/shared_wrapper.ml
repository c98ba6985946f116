module Spec = Msoc_analog.Spec

type t = {
  member_cores : Spec.core list;
  wrapper : Wrapper.t;
  crosstalk : float;
  system_clock_hz : float;
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
  { member_cores; wrapper = Wrapper.create ~bits (); crosstalk; system_clock_hz }

let run_test t ~core_label ~core ~test ~stimulus =
  if not (List.exists (fun c -> c.Spec.label = core_label) t.member_cores) then
    invalid_arg
      (Printf.sprintf "Shared_wrapper.run_test: core %s is not a member" core_label);
  let configured =
    Wrapper.configure_for_test t.wrapper ~system_clock_hz:t.system_clock_hz test
  in
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
  Wrapper.apply_core_test configured ~core:noisy_core ~stimulus
