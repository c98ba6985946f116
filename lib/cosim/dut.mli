(** Device-under-test models as declarative stage pipelines.

    A DUT is a list of stages around an operating point; {!batch}
    instantiates it as a record-at-once
    {!Msoc_mixedsig.Analog_models.t}, computed in place in one buffer
    per record (the model {!Engine.run} runs), and {!batch_into} as
    the same stages over a buffer of the caller's, the model both
    paths of a testbench trial run. *)

type stage =
  | Gain of float
  | Dc_offset of float
  | Lowpass of { order : int; fc : float }
      (** Butterworth low-pass at the pipeline's sampling rate *)
  | Polynomial of { a1 : float; a2 : float; a3 : float }
  | Slew_limited of { max_slew_v_per_s : float }
  | Noise of { sigma : float; seed : int }
      (** deterministic Gaussian noise; the stream restarts at every
          record *)

type t = { stages : stage list; fs : float; bias : float }
(** A pipeline running at [fs], AC-coupled around [bias] (the wrapper
    operating point): the stages process the component around [bias],
    exactly like {!Msoc_mixedsig.Analog_models.biased}. *)

val make : ?bias:float -> fs:float -> stage list -> t
(** Default bias 2 V (mid-rail of the 0..4 V wrapper supply).
    @raise Invalid_argument on an [fs] that is not positive and finite
    (NaN included), or a [bias] that is not finite. *)

val batch : t -> Msoc_mixedsig.Analog_models.t
(** The record-at-once model. Applied to a record, it allocates one
    buffer and runs {!batch_into}'s stages over it: the bias comes off
    into the buffer ({!Msoc_mixedsig.Analog_models.remove_bias_into}),
    each stage's in-place kernel
    ({!Msoc_mixedsig.Analog_models.gain_in_place} and its siblings)
    overwrites the buffer in stage order, and
    {!Msoc_mixedsig.Analog_models.dc_offset_in_place} puts the bias
    back. Every sample sees the float operations of
    {!Msoc_mixedsig.Analog_models.biased} over the composed stage
    models, in their order, so the output is bit-identical to theirs.
    Filter and slew state start afresh and the noise stream restarts
    at every record it is applied to
    ({!Msoc_mixedsig.Analog_models.additive_noise_in_place}). The
    model writes only its own buffer: it can be applied from any
    domain. *)

val batch_into :
  draws:float array -> t -> float array -> into:float array -> unit
(** {!batch}'s model, written into a buffer of the caller's instead
    of a fresh one and with the noise drawn once, into [draws]:
    building the model ([batch_into ~draws t]) overwrites [draws] with
    the noise stage's values
    ({!Msoc_mixedsig.Analog_models.gaussian_draws_into}), the values
    the restarted stream draws, and every record adds them
    ({!Msoc_mixedsig.Analog_models.add_draws_in_place}). On records of
    at most [Array.length draws] samples the output is bit-identical
    to {!batch}'s. Applying the model to a record writes the output
    into [into], which may be the record itself. Nothing is allocated
    per record. A
    testbench trial builds it once, over its workspace's draws, and
    runs both paths through it: the direct path from the program's
    record into the sample buffer, the wrapped path in place on the
    DAC's output. The model reads [draws] on every record, so the
    buffer must not be refilled while the model is in use.
    @raise Invalid_argument, when built, if [t] has more than one
    noise stage, and, when applied, if [into]'s length differs from
    the record's or the record is longer than [draws] (with a noise
    stage). *)
