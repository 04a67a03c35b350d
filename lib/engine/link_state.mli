(** Failure overlay over an immutable topology: the set of links and nodes
    currently down. Shared by every protocol engine; the topology itself is
    never mutated. A failed link is one down bit per direction, indexed by
    directed edge id ({!Topology.edge}). *)

type t

val create : Topology.t -> t
(** Everything up. *)

val fail_link : t -> Topology.vertex -> Topology.vertex -> unit
val recover_link : t -> Topology.vertex -> Topology.vertex -> unit
(** Mark a link down (up), both directions.
    @raise Invalid_argument ["Link_state.fail_link: vertices not
    adjacent"] (["recover_link"] likewise) when the pair shares no link. *)

val fail_node : t -> Topology.vertex -> unit
val recover_node : t -> Topology.vertex -> unit

val link_up : t -> Topology.vertex -> Topology.vertex -> bool
(** Whether a link is usable: neither endpoint down, link not failed. A
    pair that shares no link has no down bit: it is "up" iff both
    endpoints are. *)

val edge_up : t -> src:Topology.vertex -> dst:Topology.vertex -> int -> bool
(** {!link_up} for an adjacent pair whose directed edge id ([src -> dst])
    the caller already holds. *)

val node_up : t -> Topology.vertex -> bool

val failed_links : t -> (Topology.vertex * Topology.vertex) list
(** Currently failed links (canonical order, smaller vertex first). *)
