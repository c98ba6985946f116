(** Boundary-crossing counts of one wrapped record.

    A record of [n] samples crosses the analog/digital boundary five
    times per sample — stimulus word in over the TAM, DAC conversion,
    one DUT step, ADC conversion one sample period later, response
    word out over the TAM — and is closed by one DSP extraction. All
    [n] stimulus words are due before the first capture, so at most
    [n] crossings are ever pending. *)

type stats = {
  processed : int;  (** boundary crossings: [5·n + 1] *)
  peak_queue : int;  (** most crossings pending at once: [n] *)
}
