(** Window functions for spectral analysis. *)

type t = Rectangular | Hann | Hamming | Blackman

val coefficients : t -> int -> float array
(** [coefficients w n] is the length-[n] window.
    @raise Invalid_argument if [n <= 0]. *)

val coherent_gain : t -> float
(** Mean window value — divides spectral magnitudes to recover tone
    amplitudes. *)
