(** Evaluation/time budgets for the anytime search strategies.

    A budget caps the number of full TAM-optimizer evaluations and/or
    imposes an absolute deadline on the monotonic clock. Strategies
    poll it and return their best-so-far incumbent when it runs out, so
    a search over an astronomically large sharing space still answers
    within a service deadline (the serve layer passes its per-request
    deadline straight through). Every strategy guarantees at least one
    evaluation — the no-sharing fallback — even under an already
    expired deadline, so a result always exists. *)

type t = {
  max_evals : int option;  (** cap on full evaluations; [None] = no cap *)
  deadline : float option;
      (** absolute {!Msoc_util.Clock.now} instant (monotonic); [None] =
          no deadline *)
}

val unlimited : t

val make :
  ?max_evals:int -> ?time_limit_s:float -> ?deadline:float -> unit -> t
(** [time_limit_s] is relative to now; when both it and [deadline] are
    given the earlier instant wins.
    @raise Invalid_argument if [max_evals < 1], [time_limit_s] is not
    [> 0] (NaN included) or [deadline] is NaN — a NaN instant would
    never expire. *)

val expired : t -> bool
(** The deadline (if any) has passed. *)

val exhausted : t -> evals:int -> bool
(** [evals] evaluations already spent exceed the cap, or the deadline
    has passed. *)
