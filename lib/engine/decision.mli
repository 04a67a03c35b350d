(** The BGP decision process shared by every protocol engine in this
    repository: higher local preference (prefer-customer), then shorter AS
    path, then lowest next-hop vertex. Matches {!Static_route.better}. *)

val better : Route.t -> Route.t -> bool
(** [better a b] iff [a] beats [b]. Total and antisymmetric for routes with
    distinct next hops; the origin route beats everything. *)

val select : Route.t list -> Route.t option
(** Best route of a candidate list ([None] on the empty list). *)

val select_by :
  ?keep:('a -> bool) -> ('a -> 'a -> bool) -> 'a option array -> 'a option
(** [select_by ?keep better rib] is the [better]-maximal entry among the
    filled slots of a RIB held by neighbour slot that [keep] (default: all)
    accepts — the RIB's own [Some] cell, so nothing is allocated — or
    [None]. When [better] is a strict total order over the entries, the
    result does not depend on the slot order. *)

val select_rib : Route.t option array -> Route.t option
(** [select_by better]: the best route of an Adj-RIB-In. {!better} is a
    strict total order over routes from distinct neighbours. *)
