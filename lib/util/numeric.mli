(** Small numeric helpers shared across the libraries. *)

val close : ?rel:float -> ?abs_tol:float -> float -> float -> bool
(** [close a b] holds when [a] and [b] agree within a relative
    tolerance (default 1e-9) or an absolute tolerance (default 1e-12).
    Used throughout the test suites for float comparison. *)

val percent_of : float -> float -> float
(** [percent_of part whole] is [100 * part / whole].
    @raise Invalid_argument if [whole = 0]. *)

val percent_of_or : default:float -> float -> float -> float
(** [percent_of_or ~default part whole] is {!percent_of}, except a
    zero (or NaN) [whole] yields [default] instead of raising — for
    normalizations whose base can legitimately be empty (e.g. a cost
    normalized to a reference makespan of 0 jobs). Never NaN as long
    as [part] and [default] are not. *)

val clamp_int : lo:int -> hi:int -> int -> int
(** Clamp into [\[lo, hi\]] with [Int.min]/[Int.max]: an integer compare,
    not the polymorphic one (every converter sample goes through it). *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is ⌈a/b⌉ for positive [b]. *)

val db : float -> float
(** [db x] is [20 log10 x] — amplitude ratio in decibels. [db 0.] is
    [neg_infinity]. *)

val sum_int : int list -> int

val max_int_list : int list -> int
(** @raise Invalid_argument on the empty list. *)
