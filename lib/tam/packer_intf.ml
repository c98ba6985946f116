(** The first-class packer interface.

    A packer is a priority heuristic over the shared placement
    machinery of {!Packer}: it contributes the list of candidate
    priority orders; {!Packer.pack_with_orders} turns each order into
    a schedule and keeps the best. Variants implementing this
    signature are registered in {!Packer_registry} and selectable end
    to end ([msoc_plan --packer <name>], the serve protocol's [packer]
    param). *)

module type S = sig
  val name : string
  (** Registry key, also the CLI / protocol spelling (lowercase). *)

  val orders : Job.t list -> Job.t list list
  (** Candidate priority orders, each a permutation of the input.
      Precedences are {e not} yet applied — {!Packer.pack_with_orders}
      moves predecessors ahead of their dependents in every order.
      Must return at least one order. *)

  val pack : ?power_budget:int -> width:int -> Job.t list -> Schedule.t
  (** Pack under this heuristic; semantics and error behavior of
      {!Packer.pack}. Equals
      [Packer.pack_with_orders ~orders] for every registered
      variant. *)

  val lower_bound : ?power_budget:int -> width:int -> Job.t list -> int
  (** Heuristic-independent certificate; every registered variant
      uses {!Packer.lower_bound}. *)
end
