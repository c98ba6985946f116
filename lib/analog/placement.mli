(** Die placement of analog cores — the refinement the paper lists as
    future work ("refining the cost measure based on the knowledge of
    core placement").

    Positions feed {!Area.routing}'s [Placed] mode: a shared wrapper
    connecting cores that sit far apart pays routing overhead
    proportional to the group's mean pairwise distance, so a
    placement-aware optimizer stops pairing cores across the die even
    when their wrapper requirements match. *)

type t
(** Immutable map from core label to (x, y) die coordinates in mm. *)

val create : (string * (float * float)) list -> t
(** @raise Invalid_argument on duplicate labels. *)

val area_model : ?k_per_mm:float -> t -> Area.model
(** {!Area.default_model} with this placement's routing. *)

val spread : die_mm:float -> Spec.core list -> t
(** Deterministic floorplan: cores evenly placed on a circle of
    diameter [0.7·die_mm] centered on the die — the neutral layout
    used by benches when no real floorplan exists. *)

val clustered :
  die_mm:float -> groups:string list list -> Spec.core list -> t
(** Floorplan with functional clusters: listed groups are placed
    tightly together (0.5 mm pitch) at well-separated cluster sites;
    unlisted cores spread over the remaining area. Mirrors the paper's
    remark that analog cores' proximity follows functional proximity.
    @raise Invalid_argument if a grouped label is not among the
    cores. *)
