(** Forwarding outcomes, and a single-packet tracer.

    Given each AS's current forwarding behaviour — a step function mapping
    (vertex, packet state) to the next hop — a packet reaches the
    destination, loops, or is dropped. {!Fwd_monitor} computes this for
    every source AS at once, incrementally between probes; {!walk_one}
    follows one packet. *)

type status =
  | Delivered  (** the packet reaches the destination *)
  | Looped  (** the packet revisits a (vertex, state) pair *)
  | Blackholed  (** some AS on the way drops the packet *)

val equal_status : status -> status -> bool
val pp_status : Format.formatter -> status -> unit

val walk_one :
  dest:Topology.vertex ->
  start:'state ->
  step:
    (Topology.vertex ->
    'state ->
    [ `Forward of Topology.vertex * 'state | `Drop | `Deliver ]) ->
  src:Topology.vertex ->
  max_hops:int ->
  status
(** Walk a single packet without memoization (used by tests and examples to
    trace individual paths). [Looped] is reported after [max_hops] hops. *)
