(** Event-driven standard-BGP network for a single destination prefix: the
    {!Path_vector} skeleton with no hooks, registered in the
    {!Engine.Registry} under ["BGP"].

    One router per AS, one ordered {!Channel} per directed link, delays
    uniform in [10 ms, 20 ms], per-peer MRAI of 30 s × U[0.75, 1.0] applied
    to announcements (withdrawals are immediate). Policies are the paper's:
    prefer-customer selection ({!Decision}) and valley-free export
    ({!Export}), which make the protocol safe (Gao–Rexford), so every run
    terminates with a drained event queue.

    Failures are injected through {!fail_link} / {!fail_node}; adjacent
    routers react after the config's [detect_delay] (session reset: RIB
    entries from the peer are flushed and in-flight messages on the link
    are lost). *)

type t

include Engine.S with type t := t
(** [probe] walks on the engine's incremental monitor; [walk_all] is the
    same forwarding plane from a full walk: each AS forwards along its
    current best route; a hop over a failed link or into a failed node
    drops the packet. *)

val best : t -> Topology.vertex -> Route.t option
(** Current best route of an AS ([Some Route.origin] at the destination). *)

val next_hop : t -> Topology.vertex -> Topology.vertex option

val to_table : t -> Static_route.table
(** Snapshot of all current best routes in the oracle's table format, for
    direct comparison with {!Static_route.compute}. *)
