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

(** {1 Alternate picks}

    R-BGP's failover path and the hybrid's blue table pick, besides the
    best route, the RIB entry that [keep] accepts with the lowest [score]
    (fewest hops shared with the best path), ties to {!better} — a strict
    total order, so the pick does not depend on the slot order
    ({!select_by} with that comparator is the reference). Each candidate
    is scored once, and a cached pick is re-scanned only when the RIB
    change that follows it could move it. *)

type pick
(** A cached pick: the lowest-scoring kept RIB entry's slot, its score and
    the best route it was picked against. *)

val fresh_pick : unit -> pick
(** A pick made against no best route and holding nothing. *)

val no_change : int
(** [changed] for a RIB that did not change since the last {!repick}. *)

val several : int
(** [changed] for a RIB in which several slots changed. *)

val repick :
  pick ->
  best:Route.t option ->
  changed:int ->
  keep:(Route.t -> bool) ->
  score:(Route.t -> int) ->
  Route.t option array ->
  Route.t option
(** The lowest-scoring kept entry of the RIB now (the RIB's own cell),
    ties to {!better}, or [None] when no entry is kept; [pick], made
    before the RIB's last changes, is brought up to date. [changed] is the
    one slot that changed since then, {!no_change} or {!several}; [keep]
    and [score] may depend only on [best]. The RIB is re-scanned only
    when [best] is not (physically) the route of the last pick, several
    slots changed, or the changed slot held the pick; otherwise the new
    entry at the changed slot, if kept, replaces the pick when it beats
    it. *)

val pick_agrees :
  pick ->
  best:Route.t option ->
  keep:(Route.t -> bool) ->
  score:(Route.t -> int) ->
  Route.t option array ->
  bool
(** Cross-check of a pick the RIB has not changed since: when it was made
    against [best], whether it holds the very entry that {!select_by}
    finds with the comparator "lower [score], ties to {!better}" (scoring
    both sides of every comparison); [true] when it was made against
    another best route, as the next {!repick} re-scans anyway. *)
