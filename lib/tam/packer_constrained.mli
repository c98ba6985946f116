(** Placement-exclusion aware packing (arXiv:1008.4448): jobs with
    the most placement-exclusion relations — declared conflicts,
    exclusion-group peers, precedence edges — place first, before
    their placement freedom evaporates; the [best_fit] rules stay in
    the portfolio as fallback orders. Registered as ["constrained"]
    in {!Packer_registry}. *)

include Packer_intf.S
