(** R-BGP (Kushman et al., NSDI 2007) — the comparison baseline of the
    paper's Figures 2 and 3 — with the root-cause-information (RCI)
    mechanism switchable on and off.

    Two mechanisms are layered on top of the standard BGP engine semantics
    (same decision process, export policy, MRAI, delays):

    - {b Failover paths}: every router advertises, to the neighbour that is
      the next hop of its best path, the most disjoint alternate path from
      its RIB. A router that has lost its route deflects packets back to a
      neighbour that advertised a failover path; the deflected packet is
      then pinned to that path (virtual-interface semantics), so it is
      delivered iff every link of the path is up.
    - {b RCI}: updates triggered by a failure carry the root cause (the
      failed link or node). Receivers immediately purge every RIB entry
      whose path traverses the failed element and reject such paths in
      later updates, suppressing the exploration of stale paths. With
      [~rci:false] the purge is disabled and R-BGP degrades accordingly
      (the "R-BGP without RCI" bars of the paper).

    Implementation: the {!Path_vector} skeleton plus hooks — updates
    carry the root cause as their tag, failover paths travel as extra
    messages and are re-evaluated after every decision, session and
    policy change, received causes purge and reject stale paths, and the
    last withdrawn route is kept for forwarding — and its own deflection
    walk.

    Simplifications relative to the full NSDI protocol are documented in
    DESIGN.md (design decision 8). *)

type t

val create :
  rci:bool ->
  Sim.t ->
  Topology.t ->
  dest:Topology.vertex ->
  Engine.config ->
  t
(** Build routers and channels ({!Session_core}); [rci] switches the
    root-cause purge on. Nothing is announced until {!start}. *)

val no_rci : (module Engine.S)
(** Registered under ["R-BGP without RCI"]. *)

val rci : (module Engine.S)
(** Registered under ["R-BGP"]. *)

include Engine.NET with type t := t
(** {!Path_vector.Make} semantics, plus: routers adjacent to a failure
    learn its root cause (and, with RCI, propagate it); a recovered link's
    or node's cause is cleared everywhere, and a recovered router restarts
    with no known causes. *)

val best : t -> Topology.vertex -> Route.t option

val failover_choices : t -> Topology.vertex -> Topology.vertex list list
(** The failover paths currently stored at an AS (each starts at the
    advertising neighbour), in the deterministic order the forwarding plane
    tries them. Exposed for tests. *)

val stale_picks : t -> Topology.vertex list
(** Cross-check of the cached failover picks: the ASes, in vertex order,
    whose cached pick differs from a full {!Decision.select_by} rescan of
    their RIB (see {!Path_vector.alternate_agrees}). Always empty unless
    the cache is broken. *)

val walk_all : t -> Fwd_walk.status array
(** Forwarding status of every AS under R-BGP forwarding: primary next hop
    when available, then the withdrawn route's, otherwise deflection onto
    a stored failover path. *)

val to_table : t -> Static_route.table
