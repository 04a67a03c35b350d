(** Forwarding outcomes.

    Given each AS's current forwarding behaviour — a step function mapping
    (vertex, packet state) to the next hop — a packet reaches the
    destination, loops, or is dropped. {!Fwd_monitor} computes this for
    every source AS at once, incrementally between probes. *)

type status =
  | Delivered  (** the packet reaches the destination *)
  | Looped  (** the packet revisits a (vertex, state) pair *)
  | Blackholed  (** some AS on the way drops the packet *)

val equal_status : status -> status -> bool
val pp_status : Format.formatter -> status -> unit
