(** The session substrate every protocol engine shares, implemented once:
    per-directed-link ordered {!Channel}s with U[10 ms, 20 ms] delays,
    per-peer (per-process) MRAI timers of 30 s × U[0.75, 1.0] with
    immediate withdrawals, session-reset semantics on failure (in-flight
    messages on a dead link are dropped and counted), link/node up-down
    bookkeeping ({!Link_state}) and the per-engine update {!Counters}.

    A protocol engine built on this core is reduced to its decision,
    export and attribute policy: it computes {e what} a neighbour should
    hear and hands the delta to {!advertise}; the core owns {e when} and
    {e whether} the message travels.

    Reproducibility contract: {!create} draws RNG floats in the exact
    historical order (channels and MRAI timers per directed link, in
    vertices × neighbors iteration order — which is directed edge id
    order, {!Topology.edge}; one draw per MRAI timer), and {!send} draws
    one float per message — so engines ported onto the core reproduce
    their previous runs bit for bit.

    Layout: channels live in an array indexed by directed edge id, MRAI
    timers in one indexed by [edge * procs + proc], and an engine keeps
    what each neighbour last heard in per-router arrays indexed by the
    neighbour's slot ({!Topology.slot}). Sending and advertising hash
    nothing and allocate nothing beyond the message itself (and a
    scheduled MRAI flush).

    The core also owns the engine's forwarding-plane monitor
    ({!Fwd_monitor}) and feeds it: {!note_decision} marks the deciding AS
    dirty, every link and node failure or recovery marks the whole plane
    dirty (every forwarding step reads link state, and R-BGP's pinned
    failover paths read links far from the stepping AS), and {!touch}
    covers an AS's other forwarding inputs. *)

type ('msg, 'adv) t
(** A session core carrying protocol messages of type ['msg], reconciling
    advertisements of type ['adv] ({!advertise}). *)

val create :
  ?procs:int ->
  who:string ->
  Engine.config ->
  Sim.t ->
  Topology.t ->
  ('msg, 'adv) t
(** Build channels and MRAI state for every directed link, from the
    config's [mrai_base], [detect_delay] and [trace]. Message delays are
    the paper's U[10 ms, 20 ms] ({!Channel}'s defaults). [procs] (default
    1) is the number of routing processes per router — each gets its own
    MRAI timer per directed link (STAMP runs two). A positive
    [detect_delay] postpones the control-plane reaction to every
    subsequent {!fail_link} while the data plane is already broken. The
    [trace] sink receives the session substrate's structured events —
    enqueue/deliver/drop per channel, MRAI deferrals and flushes, session
    resets and decisions ({!note_decision}) — stamped with [who] as engine
    id and locations in ASN space; with the null sink every emission site
    reduces to one branch, and traced runs are bit-identical to untraced
    ones (tracing draws no randomness and schedules nothing). [who]
    prefixes error messages (["Bgp_net.fail_link: vertices not
    adjacent"]).
    @raise Invalid_argument on a negative [detect_delay] or non-positive
    [procs]. *)

(** The engine's entry points, installed once ({!install}) so that no
    closure is built per message or per advertisement. *)
type ('msg, 'adv) hooks = {
  receive :
    src:Topology.vertex -> dst:Topology.vertex -> slot:int -> 'msg -> unit;
      (** a message delivered on a live link; [slot] is [src]'s slot at
          [dst] *)
  message : src:Topology.vertex -> proc:int -> 'adv option -> 'msg;
      (** the update {!advertise} sends from [src] on process [proc]: the
          announcement of [Some a], or the withdrawal for [None]; called
          only when the message is actually sent *)
  equal : 'adv -> 'adv -> bool;
      (** whether two advertisements announce the same thing (a
          neighbour that heard one need not hear the other) *)
  flush :
    src:Topology.vertex -> dst:Topology.vertex -> slot:int -> proc:int -> unit;
      (** a deferred MRAI flush fired: re-advertise to [dst] (at [slot] of
          [src]) on [proc], recomputing what it should hear *)
}

val install : ('msg, 'adv) t -> ('msg, 'adv) hooks -> unit
(** Install the engine's hooks. Must be called before the first message is
    delivered; kept separate from {!create} so the engine can close over
    its own state without perturbing construction order. *)

(** {1 Sending} *)

val send :
  ('msg, 'adv) t ->
  src:Topology.vertex ->
  dst:Topology.vertex ->
  kind:[ `Announce | `Withdraw ] ->
  'msg ->
  unit
(** Send one message on the directed link, bumping the matching counter.
    Used directly for updates outside the MRAI regime (R-BGP failover
    paths, STAMP's immediate policy withdrawals); regular best-route
    deltas go through {!advertise}.
    @raise Invalid_argument ["<who>.send: vertices not adjacent"] when the
    pair shares no link. *)

val advertise :
  ('msg, 'adv) t ->
  proc:int ->
  src:Topology.vertex ->
  dst:Topology.vertex ->
  slot:int ->
  rib_out:'adv option array ->
  'adv option ->
  unit
(** The shared advertisement skeleton: compare the desired advertisement
    (what [dst] should currently hear, [None] for nothing) against
    [rib_out]'s record of what it last heard — [src]'s per-neighbour
    array, indexed by [dst]'s [slot] at [src] — with the [equal] hook,
    then send the delta — withdrawals immediately, announcements under the
    [(src, dst, proc)] MRAI timer, deferring with a single scheduled flush
    (the [flush] hook) when the timer is not ready. No-op while the link
    is down. The link is found from [slot] without a search.
    @raise Invalid_argument ["<who>.advertise: vertices not adjacent"]
    when [dst] is not the neighbour at [slot] of [src]. *)

val flush_pending : ('msg, 'adv) t -> src:Topology.vertex -> bool
(** Whether an MRAI flush is scheduled on any of [src]'s out-links, on
    any process. *)

val flush_scheduled :
  ('msg, 'adv) t -> src:Topology.vertex -> slot:int -> proc:int -> bool
(** Whether the MRAI flush of [src]'s link at [slot] on [proc] is
    scheduled: what {!advertise} deferred there is still to be sent. *)

(** {1 Failure bookkeeping} *)

val fail_link :
  ('msg, 'adv) t ->
  Topology.vertex ->
  Topology.vertex ->
  react:(unit -> unit) ->
  unit
(** Mark the link down (data plane breaks now) and run [react] — the
    engine's session-reset logic — immediately, or after the core's
    [detect_delay] if positive.
    @raise Invalid_argument if the vertices are not adjacent. *)

val recover_link :
  ('msg, 'adv) t ->
  Topology.vertex ->
  Topology.vertex ->
  react:(unit -> unit) ->
  unit
(** Mark the link up and run [react] (session re-establishment) at once.
    @raise Invalid_argument if the vertices are not adjacent. *)

val fail_node : ('msg, 'adv) t -> Topology.vertex -> unit
val recover_node : ('msg, 'adv) t -> Topology.vertex -> unit
(** Mark the node down (up). Like {!fail_link} and {!recover_link}, these
    mark the monitor's whole plane dirty. *)

val check_adjacent :
  ('msg, 'adv) t -> op:string -> Topology.vertex -> Topology.vertex -> unit
(** Validation helper for engine operations on a vertex pair:
    @raise Invalid_argument ["<who>.<op>: vertices not adjacent"] when the
    pair shares no link. *)

(** {1 Observation} *)

val sim : ('msg, 'adv) t -> Sim.t
val links : ('msg, 'adv) t -> Link_state.t
val link_up : ('msg, 'adv) t -> Topology.vertex -> Topology.vertex -> bool
val node_up : ('msg, 'adv) t -> Topology.vertex -> bool

val counters : ('msg, 'adv) t -> Counters.t
(** Live counters (mutated as the engine runs); snapshot before storing. *)

val message_count : ('msg, 'adv) t -> int
(** Updates sent so far (announcements + withdrawals). *)

val last_change : ('msg, 'adv) t -> float
(** Time of the last best-route change ({!note_decision}): the
    convergence instant once the queue drains. *)

(** {1 Forwarding plane} *)

val monitor : ('msg, 'adv) t -> Fwd_monitor.t
(** The engine's forwarding-plane monitor: its probe goes through here. *)

val fresh_monitor : ('msg, 'adv) t -> Fwd_monitor.t
(** A new monitor over the same ASes, whole plane dirty: probing it is the
    reference full walk, and leaves {!monitor} untouched. *)

val touch : ('msg, 'adv) t -> Topology.vertex -> unit
(** AS [v]'s forwarding inputs other than its best route changed (R-BGP's
    failover RIB or withdrawn route, the hybrid's blue table): the next
    probe re-walks what depends on [v]. Best-route changes are covered by
    {!note_decision}. *)

(** {1 Tracing} *)

val trace_enabled : ('msg, 'adv) t -> bool

val note_decision :
  ('msg, 'adv) t ->
  node:Topology.vertex ->
  old_next:Topology.vertex option ->
  new_next:Topology.vertex option ->
  cause:string ->
  unit
(** Record a best-route change for {!last_change} and the monitor's dirty
    set, plus a
    {!Trace.Decision} event at the router (next hops are translated to ASN
    space; [None] = no route or the origin's own route). The timestamp side
    effect is unconditional, so engines can call this at every best-route
    change whether or not tracing is on. *)

val emit_node : ('msg, 'adv) t -> Topology.vertex -> Trace.kind -> unit
(** Emit an engine-specific event located at a router (ASN-translated),
    stamped with the core's [who] and the current virtual time. No-op when
    tracing is off — but build the kind under {!trace_enabled} if it
    allocates. *)
