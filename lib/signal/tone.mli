(** Multi-tone stimulus generation.

    The paper's cut-off frequency test applies a multi-tone signal
    ("an input with only three frequencies") and reads the cut-off
    from the spectrum of the response. *)

type t = { freq_hz : float; amplitude : float }
(** A sine of phase 0 at [t = 0]. *)

val tone : ?amplitude:float -> float -> t
(** [tone f] with amplitude 1 by default.
    @raise Invalid_argument on a frequency that is not positive or an
    amplitude that is negative, NaN included. *)

val sample : tones:t list -> fs:float -> n:int -> float array
(** [sample ~tones ~fs ~n] sums the tones at [n] instants spaced
    [1/fs]. *)

val coherent_freq : fs:float -> n:int -> float -> float
(** Nearest frequency to [f] that completes an integer number of
    periods in an [n]-sample record — placing tones on-bin avoids
    spectral leakage, mirroring the coherent sampling an ATE would
    use. *)
