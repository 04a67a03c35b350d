(** Partial STAMP deployment in the event-driven simulator (the dynamic
    counterpart of Section 6.3's tier-1-only analysis).

    Design: below full deployment, STAMP's coordinated announcement rules
    cannot run end to end — a locked blue chain breaks at the first legacy
    hop, and any deviation of the advertised routes from plain BGP turns
    out to inject extra convergence churn into the legacy region (we
    measured this; see DESIGN.md). What a partially deployed AS {e can}
    soundly do is exactly what the paper's Section 5 requires of routers:
    keep a second, maximally downhill-disjoint route from its RIB as a
    local {e blue table}, detect that its primary is disturbed, and
    re-colour packets onto the backup — at most once per packet. The
    control plane stays byte-for-byte plain BGP (so partial deployment can
    never make routing worse), and the backup candidates are ordinary
    advertised routes, so forwarding through legacy neighbours follows the
    very paths they advertised.

    Implementation: the {!Path_vector} skeleton (so the control plane is
    literally BGP's) plus one hook — the blue table is recomputed after
    every decision — and its own 2-state forwarding walk.

    An upgraded AS therefore provides the protection the static analysis
    counts — "two downhill node-disjoint paths" — whenever its RIB holds a
    disjoint alternate, which for tier-1 ASes is the paper's ≈ 75 % of
    destinations. *)

type t

val create :
  deployed:(Topology.vertex -> bool) ->
  Sim.t ->
  Topology.t ->
  dest:Topology.vertex ->
  Engine.config ->
  t
(** Build routers and channels ({!Session_core}); STAMP's blue table runs
    at the ASes satisfying [deployed]. *)

val engine :
  ?name:string ->
  deployed:(Topology.vertex -> bool) ->
  unit ->
  (module Engine.S)
(** The hybrid at the given deployment as an engine (not registered);
    [name] defaults to ["STAMP-BGP hybrid"]. *)

val full : (module Engine.S)
(** Full deployment, registered under
    ["STAMP-BGP hybrid (full deployment)"]. *)

include Engine.NET with type t := t
(** Plain BGP semantics ({!Path_vector.Make}); the backup tables refresh
    as the RIBs change and clear with a failed router. *)

val best : t -> Topology.vertex -> Route.t option
(** The (plain BGP) best route of an AS. *)

val backup : t -> Topology.vertex -> Route.t option
(** The blue table of an upgraded AS: the RIB route most downhill-disjoint
    from the best, restricted to the top local-pref class. [None] at
    legacy ASes, at failed ones and when no alternate exists. *)

val has_disjoint_backup : t -> Topology.vertex -> bool
(** Whether the AS currently holds a backup whose downhill portion is
    node-disjoint from its best route's (except the destination) — the
    protection unit the Section 6.3 analysis counts. *)

val stale_picks : t -> Topology.vertex list
(** Cross-check of the cached blue-table picks: the upgraded ASes, in
    vertex order, whose cached pick differs from a full
    {!Decision.select_by} rescan of their RIB (see
    {!Path_vector.alternate_agrees}). Always empty unless the cache is
    broken. *)

val walk_all : t -> Fwd_walk.status array
(** Packets follow best routes; an upgraded AS whose best is missing or
    physically broken re-colours the packet onto its backup. From there
    the packet follows best routes again (the backup is an advertised
    route of the deflection neighbour, so its hops are the downstream best
    chain; following other ASes' local backups would compose unrelated
    picks and can loop). One re-colouring per packet, as in Section 5. *)
