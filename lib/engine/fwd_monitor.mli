(** The incremental forwarding-plane monitor: the one memoized walker.

    A probe answers, for {e every} source AS at once, whether a packet
    reaches the destination, loops or is dropped, given each AS's step
    function (vertex, packet state) → next hop. Packet state captures
    protocol-specific headers (the packet's colour and whether it was
    already re-coloured for STAMP, the deflection bit for the hybrid);
    plain BGP uses a single state.

    The monitor keeps its walk state between probes: every (AS, packet
    state) cell with its status and successor cell, the reverse successor
    links, a dirty-AS set and a whole-plane-dirty flag. The owner
    ({!Session_core}) marks what changed since the last probe:
    {!touch} when one AS's forwarding inputs change (its best route, a
    failover RIB, a blue table), {!touch_all} when something every step
    may read changes (a link or node going down or up). A probe then
    - walks everything when the whole plane is dirty (the first probe,
      and after {!touch_all}) — the full walk, O(ASes × states);
    - returns the previous status array, physically, when nothing is
      dirty;
    - otherwise clears only the cells whose successor chain reaches a
      dirty AS, re-derives the start state of the ASes whose status
      depended on a cleared cell (and of the dirty ones), and re-walks
      just those.

    Contract: a probe returns a fresh array only when some AS's status
    changed — the same (physical) array means no status changed — and it
    never mutates an array it has returned.

    Requirements on the owner: [step v _] and [start v] may read only AS
    [v]'s own forwarding state plus whatever {!touch_all} covers, and
    every change of AS [v]'s forwarding state must be followed by
    [touch m v] before the next probe. A fresh monitor ({!create}) probed
    once is the reference full walk. *)

type t

val create : int -> t
(** A monitor over [n] ASes, whole plane dirty. Its arrays are allocated
    at the first probe. *)

val touch : t -> Topology.vertex -> unit
(** AS [v]'s step or start state may have changed. *)

val touch_all : t -> unit
(** Every AS's step may have changed: the next probe walks everything. *)

val probe :
  t ->
  dest:Topology.vertex ->
  start:(Topology.vertex -> 'state) ->
  step:
    (Topology.vertex ->
    'state ->
    [ `Forward of Topology.vertex * 'state | `Drop | `Deliver ]) ->
  state_id:('state -> int) ->
  num_states:int ->
  Fwd_walk.status array
(** The status of every AS, walking from [start v] for each [v].
    [state_id] must injectively map states to [[0, num_states - 1]], and
    a monitor must always be probed with the same [num_states]. The
    destination is [Delivered] for every state by definition. A step may
    also resolve the walk directly: [`Deliver] asserts the packet reaches
    the destination from here (used for pinned source-routed failover
    paths, whose intermediate hops don't consult their own tables). A
    packet that revisits a (vertex, state) cell is [Looped].
    @raise Invalid_argument if [num_states] differs from the first
    probe's. *)
