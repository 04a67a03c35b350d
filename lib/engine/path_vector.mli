(** The path-vector router skeleton shared by BGP, R-BGP and the STAMP-BGP
    hybrid: one router per AS on top of {!Session_core}, the prefer-customer
    decision ({!Decision}), valley-free export ({!Export}), per-peer MRAI
    on announcements, immediate withdrawals, session resets on failure.

    A protocol is this skeleton plus a {!PROTOCOL} module: per-router
    extension state and a few named hooks, each called at a fixed point of
    the control plane. Every deviation from BGP is one of those hooks — not
    a diverging copy of the machinery — so BGP itself is {!Make} applied to
    {!Plain}'s no-op hooks. In the SRP vocabulary: [init] is the
    origin route, [trans] is export plus the own-AS loop discard, [merge]
    is {!Decision.select_rib}; the hooks only add state beside them.

    Reproducibility: hooks must not draw randomness except through
    {!Session_core.send}, whose draw order the skeleton's call order fixes
    (documented per hook). *)

type failure =
  | Link of Topology.vertex * Topology.vertex
  | Node of Topology.vertex
(** A failed (or recovered) element, as handed to {!PROTOCOL.lost} and
    {!PROTOCOL.restored}. *)

(** Wire messages: the BGP update carrying a protocol [tag] (R-BGP's root
    cause), plus protocol-specific [Extra] messages the skeleton does not
    interpret. *)
type ('tag, 'extra) msg =
  | Announce of { path : Topology.vertex list; tag : 'tag }
  | Withdraw of { tag : 'tag }
  | Extra of 'extra

(** A router. Its per-neighbour state is held in arrays indexed by the
    neighbour's slot ({!Topology.slot}: the index in
    [Topology.neighbors topo v]). *)
type 'ext router = {
  v : Topology.vertex;
  mutable best : Route.t option;
  adj_rib_in : Route.t option array;
      (** the route learned from each neighbour, if any *)
  rib_out : Route.t option array;
      (** the route each neighbour last heard from us (announced as
          [v :: as_path]) *)
  export_deny : bool array;
      (** neighbours this router's policy currently forbids exporting to *)
  mutable changed : int;
      (** the [adj_rib_in] slot that changed since the last {!alternate}:
          {!Decision.no_change}, a slot, or {!Decision.several} *)
  ext : 'ext;  (** the protocol's per-router state *)
}

type ('ext, 'tag, 'extra) net = {
  core : (('tag, 'extra) msg, Route.t) Session_core.t;
  topo : Topology.t;
  dest : Topology.vertex;
  routers : 'ext router array;
}

val rib_changed : 'ext router -> int -> unit
(** Note that the [adj_rib_in] entry at a slot changed. The skeleton
    notes every change it makes; a protocol that edits the RIB itself
    (R-BGP's root-cause purge) notes its own. *)

val alternate :
  'ext router ->
  Decision.pick ->
  keep:(Route.t -> bool) ->
  score:(Route.t -> int) ->
  Route.t option
(** The router's alternate route: {!Decision.repick} against its best
    route and the RIB changes noted since the last call, which it
    clears. *)

val alternate_agrees :
  'ext router ->
  Decision.pick ->
  keep:(Route.t -> bool) ->
  score:(Route.t -> int) ->
  bool
(** Cross-check of {!alternate}'s cache: [true] when the RIB changed since
    the last call (the next one re-decides), else
    {!Decision.pick_agrees}. *)

type step = [ `Forward of Topology.vertex * unit | `Drop | `Deliver ]
(** One hop of the single-state forwarding walk ({!Fwd_walk}). *)

val usable_next :
  Link_state.t -> Topology.vertex -> Route.t option -> Topology.vertex option
(** The next hop of a route if the link to it is up. *)

module type PROTOCOL = sig
  type ext
  type tag
  type extra
  type params  (** protocol arguments of [create] *)

  val who : string
  (** Engine id in traces and prefix of error messages (["Bgp_net"]). *)

  val init : params -> Topology.t -> Topology.vertex -> ext
  (** The protocol state of the router at a vertex. *)

  val announce : ext router -> Topology.vertex list -> (tag, extra) msg
  (** The announcement message of a path (the router's own AS first);
      called only when the message is sent. *)

  val withdraw : ext router -> (tag, extra) msg
  (** As {!announce}, for withdrawals. *)

  val received :
    (ext, tag, extra) net -> ext router -> slot:int -> (tag, extra) msg -> unit
  (** Runs first on every message delivered to an up router, before the
      skeleton updates the Adj-RIB-In ([Extra] messages are handled here
      only); [slot] is the sender's slot. *)

  val reject : ext router -> Topology.vertex list -> bool
  (** Whether an announced path is discarded like a looping one. *)

  val decided :
    (ext, tag, extra) net -> ext router -> old:Route.t option -> unit
  (** Runs after every decision, before any re-advertisement. [old] is the
      previous best: physically equal to [r.best] iff it did not change. *)

  val refresh : (ext, tag, extra) net -> ext router -> unit
  (** Re-evaluate protocol-specific advertisements. Runs at the end of
      every full re-advertisement, when a decision leaves the best
      unchanged, after the per-peer re-advertisements of a recovered
      session (each side in turn) and after an export-policy change. *)

  val drop_peer : ext router -> Topology.vertex -> slot:int -> unit
  (** Session with the peer (at [slot]) reset: drop per-peer state. *)

  val reset : ext router -> unit
  (** The router's node failed: drop all per-session state. *)

  val lost : (ext, tag, extra) net -> ext router -> failure -> unit
  (** An adjacent element failed; runs after the session reset and before
      the router's decision (for a link: on both ends, then both decide). *)

  val restored : (ext, tag, extra) net -> failure -> unit
  (** An element recovered; runs once, before anything is re-advertised. *)
end

type none = |

(** No-op hooks and untagged BGP messages: {!Make} over [Plain] (plus
    [ext] and [params]) is plain BGP. Include it and override the hooks
    the protocol changes. *)
module Plain : sig
  type tag = unit
  type extra = none

  val announce : 'r -> Topology.vertex list -> (tag, extra) msg
  val withdraw : 'r -> (tag, extra) msg
  val received : 'n -> 'r -> slot:int -> 'm -> unit
  val reject : 'r -> Topology.vertex list -> bool
  val decided : 'n -> 'r -> old:Route.t option -> unit
  val refresh : 'n -> 'r -> unit
  val drop_peer : 'r -> Topology.vertex -> slot:int -> unit
  val reset : 'r -> unit
  val lost : 'n -> 'r -> failure -> unit
  val restored : 'n -> failure -> unit
end

(** The skeleton over a protocol. Failures take effect at once in the data
    plane; after the config's [detect_delay] both ends of a failed link
    (every neighbour of a failed node) reset the session and re-decide;
    in-flight messages are lost. Recovered sessions re-advertise from
    both ends; a recovered node restarts with empty RIBs. A denied export
    withdraws at once; the link stays up. *)
module Make (P : PROTOCOL) : sig
  type t = (P.ext, P.tag, P.extra) net

  include Engine.NET with type t := t

  val create :
    P.params ->
    Sim.t ->
    Topology.t ->
    dest:Topology.vertex ->
    Engine.config ->
    t
  (** Build routers and the session core. Nothing is announced until
      [start].
      @raise Invalid_argument ["<who>.create: bad destination"]. *)

  val best : t -> Topology.vertex -> Route.t option
  (** Current best route of an AS ([Some Route.origin] at the destination). *)

  val next_hop : t -> Topology.vertex -> Topology.vertex option

  val to_table : t -> Static_route.table
  (** All current best routes in the oracle's table format. *)

  val walk :
    t ->
    fallback:(Topology.vertex -> step) ->
    Fwd_monitor.t ->
    Fwd_walk.status array
  (** Single-state forwarding on a monitor: each AS forwards along its
      best route when its next hop is up, and otherwise takes [fallback].
      A [fallback] may read only the stepping AS's state and link state
      (see {!Fwd_monitor}). *)

  val drop : Topology.vertex -> step
  (** Plain BGP's [fallback]: drop the packet. *)

  val probe : t -> Fwd_walk.status array
  (** {!walk} where a missing or broken best route drops the packet, on
      the engine's own monitor. *)

  val walk_all : t -> Fwd_walk.status array
  (** As {!probe}, on a fresh monitor ({!Session_core.fresh_monitor}): the
      reference full walk. *)

  val engine :
    name:string ->
    forwarding:(t -> Fwd_monitor.t -> Fwd_walk.status array) ->
    P.params ->
    (module Engine.S)
  (** The protocol packed as an engine under [name]: [forwarding] on the
      engine's own monitor is its [probe], on a fresh one its
      [walk_all]. *)
end
