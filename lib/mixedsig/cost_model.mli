(** Hardware cost of the analog test wrapper (paper §5).

    Counts the dominant components of both converter architectures and
    anchors silicon area to the paper's measured data point: the
    full 8-bit modular wrapper occupies 0.02 mm² in the 0.5 µm AMI
    process. Analog area scales roughly linearly with feature size
    (matching and noise, not lithography, set device sizes), which
    reproduces the paper's "≤ 1/30 of the core in the same technology"
    expectation. *)

val flash_comparators : bits:int -> int
(** 2^n − 1 (the paper quotes ≈ 2^n = 256 at 8 bits). *)

val modular_comparators : bits:int -> int
(** 2·(2^(n/2) − 1); the paper quotes ≈ 32 at 8 bits. *)

val string_dac_resistors : bits:int -> int

val modular_dac_resistors : bits:int -> int

val comparator_reduction : bits:int -> float
(** flash / modular comparator ratio — ≈ 8× at 8 bits. *)

val wrapper_area_mm2 : ?bits:int -> tech_um:float -> unit -> float
(** Area of a [bits]-bit (default 8) wrapper in a [tech_um] process:
    the reference area, scaled linearly by [tech/0.5] and by the
    comparator-count ratio against the 8-bit reference. *)
