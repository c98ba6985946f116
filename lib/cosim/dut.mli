(** Device-under-test models as declarative stage pipelines.

    A DUT is a list of stages around an operating point; {!batch}
    instantiates it as a record-at-once
    {!Msoc_mixedsig.Analog_models.t}, the model both the wrapped path
    ({!Engine.run}) and the testbench's direct path run, computed in
    place in one buffer per record. *)

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

val batch : ?samples:int -> t -> Msoc_mixedsig.Analog_models.t
(** The record-at-once model. Applied to a record, it allocates one
    buffer: {!Msoc_mixedsig.Analog_models.remove_bias} copies the
    record with the bias off, each stage's in-place kernel
    ({!Msoc_mixedsig.Analog_models.gain_in_place} and its siblings)
    overwrites the buffer in stage order, and
    {!Msoc_mixedsig.Analog_models.dc_offset_in_place} puts the bias
    back. Every sample sees the float operations of
    {!Msoc_mixedsig.Analog_models.biased} over the composed stage
    models, in their order, so the output is bit-identical to theirs.
    Filter and slew state start afresh and the noise stream restarts
    at every record it is applied to.

    With [samples], the noise stage's Gaussian values for a record of
    that length are drawn once, when the model is built
    ({!Msoc_mixedsig.Analog_models.gaussian_draws}), and every record
    adds them ({!Msoc_mixedsig.Analog_models.add_draws_in_place}).
    They are the values the restarted stream draws, so on records of
    at most [samples] the model is bit-identical to the one without
    it; a longer record raises [Invalid_argument]. A testbench trial
    builds it once and runs both its paths through it, drawing the
    noise once instead of twice. The model only reads the draws and
    writes only its own buffer: it can be applied from any domain. *)
