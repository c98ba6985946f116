(** Ready-made problem instances.

    [p93791m] is the paper's experimental SOC: the p93791-class
    digital benchmark augmented with the five analog cores of Table 2
    (the "m" is the paper's naming). *)

val p93791m :
  ?weight_time:float -> tam_width:int -> unit -> Problem.t
(** Default weights (0.5, 0.5). *)

val scaled_analog : n:int -> Msoc_analog.Spec.core list
(** [n] analog cores (4 <= n <= 26, single-letter labels A..Z) for the
    scaling experiments — past the exhaustive enumeration limit
    (Bell(11) > 200_000) only the {!Msoc_search} strategies can plan
    them:
    cycles through the Table 2 cores, relabelling duplicates (F, G, …)
    and perturbing their test lengths so the copies are not
    identical. *)

val with_analog :
  ?weight_time:float ->
  tam_width:int ->
  analog_cores:Msoc_analog.Spec.core list ->
  unit ->
  Problem.t
(** p93791s digital SOC with a custom analog complement. *)
