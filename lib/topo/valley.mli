(** Valley-free path theory: step classification, uphill/downhill
    decomposition and downhill node-disjointness (Section 3.2 of the
    paper).

    A {e path} is a list of vertices in forwarding order, from the source AS
    (included) to the destination AS (included). Every consecutive pair must
    be linked in the topology. *)

type step =
  | Up  (** customer → provider link *)
  | Flat  (** peer – peer link *)
  | Down  (** provider → customer link *)
  | Side  (** sibling link (transparent for valley-freeness) *)

val steps : Topology.t -> Topology.vertex list -> step list
(** Classify each hop of a path.
    @raise Invalid_argument if two consecutive vertices are not linked. *)

val is_valley_free : Topology.t -> Topology.vertex list -> bool
(** Whether the path matches the valley-free pattern
    [Up* Flat? Down*] (sibling steps permitted anywhere). Paths of length
    0 or 1 are vacuously valley-free. *)

val decompose :
  Topology.t ->
  Topology.vertex list ->
  Topology.vertex list * Topology.vertex list
(** [decompose t path] splits a valley-free path into
    [(uphill_portion, downhill_portion)]: the downhill portion is the
    maximal suffix of provider→customer links together with the ASes at
    both ends of each such link; the uphill portion is the rest of the path
    (possibly including a peer link at the top). Either portion may be
    empty. When both are non-empty they share no vertex.
    @raise Invalid_argument if the path is not valley-free. *)

val downhill_or_whole : Topology.t -> Topology.vertex list -> Topology.vertex list
(** The downhill portion of {!decompose} — a suffix of the path itself,
    so nothing is allocated — or the whole path when it is not a
    valley-free path of [t] (where {!decompose} raises). *)

val downhill_nodes : Topology.t -> Topology.vertex list -> unit -> int list
(** [downhill_nodes t path ()] is the vertex set (as a sorted list) of the
    downhill portion of a valley-free path — the quantity over which STAMP
    requires disjointness.
    @raise Invalid_argument if the path is not valley-free. *)

val exists_path :
  ?avoid:(Topology.vertex -> bool) ->
  Topology.t ->
  src:Topology.vertex ->
  dst:Topology.vertex ->
  bool
(** Whether any valley-free path from [src] to [dst] exists that traverses
    no vertex satisfying [avoid] (endpoints are exempt). Computed by BFS
    over the (vertex × phase) product graph with phases uphill / after-peer
    / downhill. Used to identify {e unavoidable} ASes — those whose loss no
    routing scheme, STAMP included, can route around. *)

val downhill_disjoint :
  Topology.t -> Topology.vertex list -> Topology.vertex list -> bool
(** [downhill_disjoint t p1 p2] holds when the downhill portions of the two
    valley-free paths share no vertex other than their common source and
    destination — the paper's complementary-path condition.
    @raise Invalid_argument if either path is not valley-free, or the two
    paths do not share source and destination. *)
