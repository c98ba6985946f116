(** Diagonal-length priority packing (arXiv:1008.4446): rectangles
    place in decreasing diagonal length of their most compact
    operating point, exclusion groups by the sum of member diagonals;
    the [best_fit] rules stay in the portfolio as fallback orders.
    Registered as ["diagonal"] in {!Packer_registry}. *)

include Packer_intf.S
