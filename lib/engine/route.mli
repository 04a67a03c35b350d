(** Routes as stored in a router's Adj-RIB-In.

    A route held by router [v] and learned from neighbour [u] has
    [as_path = u :: ... :: dest]; its [cls] is the business relationship of
    [u] as seen from [v], which determines local preference
    (prefer-customer). The destination's own route has an empty path and
    class [Customer]. *)

type t = {
  as_path : Topology.vertex list;
      (** first element is the neighbour the route was learned from; last
          is the destination; empty only for the destination's own route *)
  cls : Relationship.t;
      (** relationship of the first path element as seen from the route's
          owner; [Customer] for a self-originated route *)
}

val origin : t
(** The destination's route to itself: empty path, customer class. *)

val learned_from : t -> Topology.vertex option
(** Head of the path; [None] for the origin route. *)

val via : t -> Topology.vertex -> bool
(** [via r v] iff [r] was learned from [v] ([learned_from r = Some v]),
    without allocating. *)

val same_neighbor : t -> t -> bool
(** [learned_from a = learned_from b], without allocating. *)

val equal : t -> t -> bool
(** Structural equality, monomorphic. *)

val same_path : t -> t -> bool
(** Equal AS paths (what an announcement of the route carries). *)

val length : t -> int
(** AS-path length. *)

val contains : t -> Topology.vertex -> bool
(** Loop check: whether a vertex appears in the path. *)

val pp : Format.formatter -> t -> unit
