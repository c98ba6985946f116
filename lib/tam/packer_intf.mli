(** The first-class packer interface (see the module types in the
    implementation — this module only declares {!module-type-S}). *)

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
      {!Packer.pack}. Equals [Packer.pack_with_orders ~orders] for
      every registered variant. *)

  val lower_bound : ?power_budget:int -> width:int -> Job.t list -> int
  (** Heuristic-independent certificate; every registered variant
      uses {!Packer.lower_bound}. *)
end
