(** Registry of the compiled-in packer heuristics.

    Three variants today (see DESIGN.md §12 for the heuristics table):

    - [best_fit] — {!Packer.pack}'s portfolio of group-urgency /
      area / width priority rules (the default);
    - [diagonal] — diagonal-length priority (arXiv:1008.4446) over
      each job's most compact operating point, group-aware;
    - [constrained] — placement-exclusion aware (arXiv:1008.4448):
      jobs with the most conflict / exclusion / precedence relations
      place first.

    [diagonal] and [constrained] extend the [best_fit] portfolio with
    their specialty orders, so a registered variant's verified
    makespan is never worse than [best_fit] on any instance — the
    packer-matrix bench gates on exactly that invariant.

    Every schedule returned through {!pack} is certified by one
    [Schedule.check ~expected:jobs] call — every invariant, and
    each requested job placed exactly once — before it reaches the
    caller. *)

module Best_fit : Packer_intf.S
module Diagonal : Packer_intf.S
module Constrained : Packer_intf.S

type packer = (module Packer_intf.S)

val all : packer list
(** Registration order: [best_fit], [diagonal], [constrained]. *)

val default : packer
(** [best_fit] — the variant every legacy entry point uses, so cache
    keys and schedules are unchanged when no packer is named. *)

val name : packer -> string

val names : string list
(** Valid [--packer] / protocol spellings, in registration order. *)

val find : string -> packer option
(** Case-insensitive, whitespace-trimmed lookup by {!name}. *)

val pack :
  packer -> ?power_budget:int -> width:int -> Job.t list -> Schedule.t
(** Pack with the variant and certify the result.
    @raise Packer.Infeasible on infeasible inputs, and also if the
    variant produced a schedule violating [Schedule.check ~expected:jobs]
    (a packer bug surfaced, never silently returned), with the first
    violation's {!Schedule.pp_violation} message. *)

val lower_bound :
  packer -> ?power_budget:int -> width:int -> Job.t list -> int
