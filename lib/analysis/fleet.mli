(** Any-to-any data plane: per-AS forwarding tables (FIBs) over real IPv4
    prefixes, built from the stable routing towards {e every} destination.

    Routing under Gao–Rexford policies is independent per prefix, so the
    converged state for all destinations is the per-destination
    {!Static_route} fixed point; this module assembles those into
    longest-prefix-match FIBs ({!Lpm}) and routes packets through them —
    the substrate for the packet-forwarding example and for any experiment
    needing full reachability. Each AS originates the /24 assigned by
    {!Prefix.of_asn}. *)

type t

val build : ?validate:Staticcheck.validate -> Topology.t -> t
(** Compute the stable routing for every destination AS with the
    {!Static_route} oracle and assemble the FIBs. O(vertices × links) time,
    O(vertices²) space for the tables. [validate] (default [`Warn]) pre-flights the {e whole} topology with
    {!Staticcheck.analyze} — an any-to-any plane exercises every
    destination, so the per-origin checks sweep all ASes here.
    @raise Invalid_argument if some AS number exceeds 65535 (no prefix
    assignment), or under [`Strict] when the static analysis finds an
    error. *)

val topology : t -> Topology.t

val prefix_of : t -> Topology.vertex -> Prefix.t
(** The prefix an AS originates. *)

val origin_of : t -> int32 -> Topology.vertex option
(** The AS originating the longest matching prefix for an address. *)

val fib : t -> Topology.vertex -> Topology.vertex Lpm.t
(** The forwarding table of an AS: longest-prefix match to next-hop AS.
    The AS's own prefix is absent (delivery terminates there). *)

type trace = {
  hops : Topology.vertex list;  (** ASes traversed, source first *)
  outcome : [ `Delivered | `No_route ];
}

val route : t -> src:Topology.vertex -> int32 -> trace
(** Forward a packet hop by hop through the FIBs from [src] towards an
    address. On converged tables the walk always terminates (routes are
    loop-free). *)
