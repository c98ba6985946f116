module Wrapper = Msoc_mixedsig.Wrapper

type trace = {
  samples : int;
  tam_cycles : int;
  scheduler : Scheduler.stats;
  response : int array;
}

let run_core ~wrapper ~core ~stimulus_codes =
  let n = Array.length stimulus_codes in
  if n = 0 then invalid_arg "Engine.run: empty stimulus";
  let response = Wrapper.apply_core_test wrapper ~core ~stimulus:stimulus_codes in
  {
    samples = n;
    tam_cycles = Wrapper.test_cycles wrapper ~samples:n;
    scheduler = { Scheduler.processed = (5 * n) + 1; peak_queue = n };
    response;
  }

let run ~wrapper ~dut ~stimulus_codes =
  run_core ~wrapper ~core:(Dut.batch dut) ~stimulus_codes
