(** Table-2 specification tests as reusable co-simulation programs.

    Each spec builds a digital stimulus, runs it through the wrapped
    path (the DAC → DUT → ADC chain {!Engine.run} models) against a
    behavioral DUT (what a digital ATE measures through the paper's
    wrapper), runs the same stimulus
    through the bare analog model (the direct path — a bench
    instrument probing the core), applies the same DSP extraction to
    both, and reports the pair with their relative error. The
    die-independent part is a {!program}, built once; each die is a
    trial through it ({!run_program}, or {!run_trial} through a reused
    {!workspace}). The [Fc] program with the
    default configuration is the Fig. 5 closed loop: a 61 kHz
    second-order Butterworth core measured through an 8-bit wrapper
    with realistic converter mismatch lands within the paper's ~5 % of
    the direct measurement. *)

type spec = Gain | Fc | Thd | Iip3 | Dc_offset | Slew | Dr

val specs : spec list
(** All seven, in declaration order. *)

val spec_names : string list
(** ["gain"; "fc"; "thd"; "iip3"; "offset"; "slew"; "dr"] — the CLI
    and protocol vocabulary. *)

val spec_name : spec -> string

val spec_of_name : string -> spec option
(** Case-insensitive. *)

val min_samples : spec -> int
(** The shortest record the spec's extraction resolves: 16 samples,
    and 65 for [Iip3], whose two tones land on one bin of a 64-point
    FFT (the FFT pads to the next power of two). *)

val max_samples : int
(** [2^20]: the longest record a request may ask for. A longer one is
    rejected before any array is allocated; the record, every DUT
    stage and the next-power-of-two FFT pad are each a float array of
    about that length. *)

type config = {
  variation : Msoc_mixedsig.Variation.t;
      (** converter resolution/mismatch and DUT process variation *)
  fs : float;  (** wrapper sampling rate for the test *)
  samples : int;  (** record length *)
  bias : float;  (** operating point *)
  fc_nominal : float;  (** the DUT's design cut-off (Fig. 5: 61 kHz) *)
  gain_nominal : float;  (** the DUT's design pass-band gain *)
}

val default : config
(** The Fig. 5 regime: 8-bit wrapper with untrimmed-converter
    mismatch (2 % resistors, 0.5 LSB comparators), fs = 1.7 MHz,
    4551 samples, 2 V bias, 61 kHz / unit-gain core, no process
    variation. *)

val ideal : config
(** {!default} with ideal converters — isolates pure quantization. *)

val with_variation : Msoc_mixedsig.Variation.t -> config -> config
(** Replace the variation (one Monte-Carlo trial's config). *)

val dut_for : config -> spec -> Dut.t
(** The behavioral core each spec probes (gain + low-pass for the
    frequency tests, third-order polynomial for THD/IIP3, rate
    limiter for SR, ...), with the config's process variation and
    noise applied. The SR limit is 0.5 V/us at a 61 kHz [fc_nominal]
    and scales with it. *)

type reading = {
  measured : float;  (** wrapped-path value *)
  direct : float;  (** direct analog measurement of the same DUT *)
  error_pct : float;  (** 100·|measured − direct| / |direct| *)
  pass : bool;  (** [error_pct] within the program's tolerance *)
}
(** A trial's verdict without its trace ({!run_trial}): the fields of
    {!result} a Monte-Carlo sweep keeps. *)

type result = {
  spec : spec;
  measured : float;  (** wrapped-path value *)
  direct : float;  (** direct analog measurement of the same DUT *)
  unit_label : string;  (** "kHz", "V/V", "ratio", "V", "V/us", "dB" *)
  error_pct : float;  (** 100·|measured − direct| / |direct| *)
  tolerance_pct : float;
  pass : bool;  (** [error_pct <= tolerance_pct] *)
  trace : Engine.trace;
}

(** {2 Programs and trials}

    A spec test splits into a {e program}, everything that does not
    depend on the die, and a {e trial}, one die through it. The
    program holds the stimulus (samples and tones), the readout with
    its window coefficients for the record length, and the Fc
    program's input spectrum. A trial writes a {!workspace}: it builds
    the die's DUT model once ({!Dut.batch_into}, its noise drawn once
    into the workspace), runs the direct path and the wrapped path
    (DAC → DUT → ADC, {!Msoc_mixedsig.Wrapper.apply_core_test_into})
    through that one model in the workspace's buffers, and reads both
    out. A Monte-Carlo run builds one program and runs every die from
    it, through one workspace per domain. *)

(** A program's stimulus: [tones] in Hz, each moved to the record's
    coherent grid, at [amplitude] volts peak around the bias. For
    [Slew] there are no tones and [amplitude] is the step; [Dc_offset]
    holds the bias (no tones, amplitude 0). Each spec's own, at the
    default 1.7 MS/s and scaled with [fs]: 1 V at 20 kHz ([Gain],
    [Dr]), 0.6 V at 20, 60 and 150 kHz ([Fc], Fig. 5), 1.2 V at 10 kHz
    ([Thd]), 0.7 V at 45 and 55 kHz ([Iip3]) and a 1.5 V step. *)
type stimulus = { tones : float list; amplitude : float }

type program
(** Immutable once built: trials only read it, so the domains of a
    {!Msoc_util.Pool} may share one without a lock. *)

val program : ?tolerance_pct:float -> ?stimulus:stimulus -> config -> spec -> program
(** The spec's program for the config's rate, record length, bias and
    nominal core. The config's variation is not read: each trial
    brings its own die. [tolerance_pct] defaults to the spec's own
    (5 % for gain and fc, 20 % slew, 25 % DR, 40 % THD and IIP3, 50 %
    DC offset), [stimulus] to the spec's own.
    @raise Invalid_argument if [config.samples] is outside
    [min_samples spec .. max_samples], or if the readout cannot use
    [stimulus]: a tone count other than one ([Gain], [Thd], [Dr]), two
    ([Iip3]), two or more ([Fc]) or none, a tone not in [(0, fs/2)] on
    the grid, [Iip3] tones on one bin or with an IMD3 product outside
    the band, an amplitude that is not positive and finite, or any
    for [Dc_offset]. The message names the spec. *)

val program_spec : program -> spec
(** The spec a program tests. *)

val run_program : program -> Msoc_mixedsig.Variation.t -> result
(** One trial: the die's converters, resolution, noise and process
    shifts through the program, in a fresh {!workspace}, so the
    result's [trace.response] is an array of its own. Bit-identical to
    running the whole spec test for that die. *)

type workspace
(** The buffers a trial of one program writes, allocated once and
    reused by every trial run through it: the die's noise draws, one
    sample buffer (the direct path's response; then the DAC's output,
    which the DUT overwrites in place and the ADC reads; then the
    decoded response), the code buffer (the stimulus codes the DAC
    reads, then the response codes the ADC writes) and, for a
    spectral readout, the FFT's split real and imaginary buffers,
    which the readout reads its bins from, and the magnitudes a
    whole-spectrum readout fills, taken when it first fills them
    ({!Msoc_signal.Spectrum.scratch}), built by the first trial that
    reads a spectrum.

    Ownership: a workspace belongs to the one domain that runs trials
    through it, one trial at a time; nothing holds it in a
    process-wide or domain-local table, and nothing backed by it
    leaves its trial ({!run_trial} returns a {!reading} of floats).
    Every trial overwrites every buffer before it reads it, so a
    trial's outputs do not depend on what ran through the workspace
    before. *)

val workspace : program -> workspace
(** Fresh buffers sized for the program's record and FFT length. *)

val run_trial : workspace -> Msoc_mixedsig.Variation.t -> reading
(** {!run_program} through the workspace, without the trace: the
    same [measured], [direct], [error_pct] and [pass], bit for bit,
    whatever trials ran through the workspace before. Through a warm
    workspace the trial allocates no record-sized array, only the
    die's converters, DUT stages and readout values: an fc trial of
    the default program puts no word on the major heap. *)

(** The spectra one trial's readouts read: of the stimulus, the bare
    core's response and the wrapped path's decoded response ([Dr]'s
    with each record's mean removed), and the tones on the grid. *)
type spectra = {
  tones : float list;
  input : Msoc_signal.Spectrum.t;
  direct_spectrum : Msoc_signal.Spectrum.t;
  wrapped_spectrum : Msoc_signal.Spectrum.t;
}

val spectra : program -> Msoc_mixedsig.Variation.t -> result * spectra
(** {!run_program} for a program read from spectra ([Fc], [Thd],
    [Iip3], [Dr]), with the spectra it read: the same two paths, run
    once, and a bit-identical result. Each spectrum is computed in a
    scratch of its own, so all three own their arrays. The [Fc]
    program's are Fig. 5. The trial's other buffers are a fresh
    {!workspace}'s, whose own FFT buffers it never builds.
    @raise Invalid_argument, naming the spec, for the others. *)

val run :
  ?tolerance_pct:float ->
  ?stimulus:stimulus -> ?config:config -> spec -> result
(** Execute the spec's program for the config's own die:
    [run_program (program ?tolerance_pct ?stimulus config spec)
    config.variation].
    @raise Invalid_argument as {!program}. *)

val result_json : result -> Msoc_testplan.Export.json

val pp_result : Format.formatter -> result -> unit
