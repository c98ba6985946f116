module Wrapper = Msoc_mixedsig.Wrapper

type trace = {
  samples : int;
  tam_cycles : int;
  scheduler : Scheduler.stats;
  response : int array;
}

let check_stimulus n = if n = 0 then invalid_arg "Engine.run: empty stimulus"

(* The record's counts in closed form, around its response codes. *)
let trace_of wrapper response =
  let n = Array.length response in
  {
    samples = n;
    tam_cycles = Wrapper.test_cycles wrapper ~samples:n;
    scheduler = { Scheduler.processed = (5 * n) + 1; peak_queue = n };
    response;
  }

let run ~wrapper ~dut ~stimulus_codes =
  let core = Dut.batch dut in
  check_stimulus (Array.length stimulus_codes);
  trace_of wrapper (Wrapper.apply_core_test wrapper ~core ~stimulus:stimulus_codes)

let run_core ~wrapper ~core ~codes ~samples =
  check_stimulus (Array.length codes);
  Wrapper.apply_core_test_into wrapper ~core ~codes ~samples;
  trace_of wrapper codes
