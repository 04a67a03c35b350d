type ('msg, 'adv) hooks = {
  receive :
    src:Topology.vertex -> dst:Topology.vertex -> slot:int -> 'msg -> unit;
  message : src:Topology.vertex -> proc:int -> 'adv option -> 'msg;
  equal : 'adv -> 'adv -> bool;
  flush :
    src:Topology.vertex -> dst:Topology.vertex -> slot:int -> proc:int -> unit;
}

type ('msg, 'adv) t = {
  sim : Sim.t;
  topo : Topology.t;
  who : string;
  links : Link_state.t;
  counters : Counters.t;
  detect_delay : float;
  trace : Trace.sink;
  procs : int;
  mutable chans : 'msg Channel.t array;
      (* by directed edge id; set once in [create] (delivery closes over
         the core) *)
  mrais : Mrai.t array;  (* by [edge * procs + proc] *)
  flushes : int array;  (* scheduled MRAI flushes, by source vertex *)
  monitor : Fwd_monitor.t;
  mutable last_change : float;
  mutable hooks : ('msg, 'adv) hooks;
}

(* Trace emission helpers: every call is guarded by [Trace.enabled], so a
   Null-sink run performs one branch and no allocation per potential
   event — the zero-cost-when-off contract. Locations are emitted in ASN
   space (what trace consumers see), not vertex-index space. *)
let trace_link core u v kind =
  if Trace.enabled core.trace then
    Trace.emit core.trace ~vtime:(Sim.now core.sim) ~engine:core.who
      ~loc:(Trace.Link (Topology.asn core.topo u, Topology.asn core.topo v))
      kind

let trace_node core v kind =
  if Trace.enabled core.trace then
    Trace.emit core.trace ~vtime:(Sim.now core.sim) ~engine:core.who
      ~loc:(Trace.Node (Topology.asn core.topo v))
      kind

let create ?(procs = 1) ~who
    { Engine.mrai_base; detect_delay; trace; seed = _ } sim topo =
  if detect_delay < 0. || Float.is_nan detect_delay then
    invalid_arg (who ^ ".create: negative detect delay");
  if procs < 1 then invalid_arg (who ^ ".create: non-positive process count");
  let not_installed _ =
    invalid_arg (who ^ ": Session_core hooks not installed")
  in
  (* [procs] MRAI timers per directed link, in edge-id order — the fixed
     vertices × neighbors order every engine historically used. The order
     is part of the reproducibility contract: Mrai.create draws one RNG
     float per timer, so any reordering would shift every later draw and
     silently change all pinned experiment numbers. Channels draw
     nothing. *)
  let mrais =
    Array.init
      (Topology.num_edges topo * procs)
      (fun _ -> Mrai.create (Sim.rng sim) ~base:mrai_base ())
  in
  let core =
    {
      sim;
      topo;
      who;
      links = Link_state.create topo;
      counters = Counters.make ();
      detect_delay;
      trace;
      procs;
      chans = [||];
      mrais;
      flushes = Array.make (Topology.num_vertices topo) 0;
      monitor = Fwd_monitor.create (Topology.num_vertices topo);
      last_change = 0.;
      hooks =
        {
          receive = (fun ~src:_ ~dst:_ ~slot:_ -> not_installed);
          message = (fun ~src:_ ~proc:_ -> not_installed);
          equal = (fun _ -> not_installed);
          flush = (fun ~src:_ ~dst:_ ~slot:_ ~proc:_ -> not_installed ());
        };
    }
  in
  let chan u e v =
    (* [u]'s slot at [v]: the receiver's index of the sender *)
    let slot = Topology.slot topo v u in
    let deliver msg =
      (* messages in flight when a link or endpoint fails are lost *)
      if Link_state.edge_up core.links ~src:u ~dst:v e then begin
        trace_link core u v Trace.Deliver;
        core.hooks.receive ~src:u ~dst:v ~slot msg
      end
      else begin
        trace_link core u v Trace.Drop;
        core.counters.lost_to_resets <- core.counters.lost_to_resets + 1
      end
    in
    Channel.create sim ~deliver
  in
  (* one ordered channel per directed link, by edge id *)
  core.chans <-
    Array.concat
      (List.init (Topology.num_vertices topo) (fun u ->
           let first = Topology.first_edge topo u in
           Array.mapi
             (fun s (v, _) -> chan u (first + s) v)
             (Topology.neighbors topo u)));
  core

let install core hooks = core.hooks <- hooks
let sim core = core.sim
let links core = core.links
let counters core = core.counters
let link_up core u v = Link_state.link_up core.links u v
let node_up core v = Link_state.node_up core.links v
let last_change core = core.last_change
let message_count core = Counters.messages core.counters
let trace_enabled core = Trace.enabled core.trace
let emit_node core v kind = trace_node core v kind
let monitor core = core.monitor
let fresh_monitor core = Fwd_monitor.create (Topology.num_vertices core.topo)
let touch core v = Fwd_monitor.touch core.monitor v

let note_decision core ~node ~old_next ~new_next ~cause =
  core.last_change <- Sim.now core.sim;
  Fwd_monitor.touch core.monitor node;
  if Trace.enabled core.trace then
    Trace.emit core.trace ~vtime:(Sim.now core.sim) ~engine:core.who
      ~loc:(Trace.Node (Topology.asn core.topo node))
      (Trace.Decision
         {
           old_next = Option.map (Topology.asn core.topo) old_next;
           new_next = Option.map (Topology.asn core.topo) new_next;
           cause;
         })

let edge_exn core ~op u v =
  let e = Topology.edge core.topo u v in
  if e < 0 then
    invalid_arg (Printf.sprintf "%s.%s: vertices not adjacent" core.who op);
  e

let send_on core e ~src ~dst ~kind msg =
  (match kind with
  | `Announce ->
    core.counters.announcements <- core.counters.announcements + 1
  | `Withdraw -> core.counters.withdrawals <- core.counters.withdrawals + 1);
  let chan = core.chans.(e) in
  Channel.send chan msg;
  if Trace.enabled core.trace then
    trace_link core src dst
      (Trace.Enqueue
         {
           msg = (match kind with `Announce -> Trace.Announce
                                | `Withdraw -> Trace.Withdraw);
           deliver_at = Channel.last_delivery chan;
         })

let send core ~src ~dst ~kind msg =
  send_on core (edge_exn core ~op:"send" src dst) ~src ~dst ~kind msg

(* Reconcile what neighbour [dst] should currently hear from [src] with
   what it last heard; send the delta, deferring announcements under MRAI.
   A deferred flush re-enters the engine through its [flush] hook, so the
   desired value is recomputed at flush time. Nothing here allocates
   unless a message is sent or a flush is scheduled. *)
let advertise core ~proc ~src ~dst ~slot ~rib_out desired =
  let e = Topology.first_edge core.topo src + slot in
  if
    slot < 0
    || slot >= Topology.degree core.topo src
    || Topology.head core.topo e <> dst
  then
    invalid_arg
      (Printf.sprintf "%s.advertise: vertices not adjacent" core.who);
  if Link_state.edge_up core.links ~src ~dst e then begin
    match (desired, rib_out.(slot)) with
    | None, None -> ()
    | None, Some _ ->
      (* withdrawals are immediate *)
      rib_out.(slot) <- None;
      send_on core e ~src ~dst ~kind:`Withdraw
        (core.hooks.message ~src ~proc None)
    | Some p, Some p' when core.hooks.equal p p' -> ()
    | Some _, (Some _ | None) ->
      let m = core.mrais.((e * core.procs) + proc) in
      let now = Sim.now core.sim in
      if Mrai.ready m ~now then begin
        Mrai.note_sent m ~now;
        rib_out.(slot) <- desired;
        send_on core e ~src ~dst ~kind:`Announce
          (core.hooks.message ~src ~proc desired)
      end
      else begin
        core.counters.mrai_deferrals <- core.counters.mrai_deferrals + 1;
        if Trace.enabled core.trace then
          trace_link core src dst
            (Trace.Mrai_defer { until = Mrai.next_allowed m; proc });
        if not (Mrai.flush_scheduled m) then begin
          Mrai.set_flush_scheduled m true;
          core.flushes.(src) <- core.flushes.(src) + 1;
          Sim.schedule_at core.sim ~time:(Mrai.next_allowed m) (fun _ ->
              Mrai.set_flush_scheduled m false;
              core.flushes.(src) <- core.flushes.(src) - 1;
              if Trace.enabled core.trace then
                trace_link core src dst (Trace.Mrai_flush { proc });
              core.hooks.flush ~src ~dst ~slot ~proc)
        end
      end
  end

let flush_pending core ~src = core.flushes.(src) > 0

let flush_scheduled core ~src ~slot ~proc =
  let e = Topology.first_edge core.topo src + slot in
  Mrai.flush_scheduled core.mrais.((e * core.procs) + proc)

let check_adjacent core ~op u v = ignore (edge_exn core ~op u v : int)

let fail_link core u v ~react =
  check_adjacent core ~op:"fail_link" u v;
  (* the data plane breaks immediately; the control plane reacts once the
     session failure is detected (hold timers, BFD, ...) *)
  Link_state.fail_link core.links u v;
  Fwd_monitor.touch_all core.monitor;
  trace_link core u v Trace.Session_reset;
  if core.detect_delay = 0. then react ()
  else Sim.schedule core.sim ~delay:core.detect_delay (fun _ -> react ())

let recover_link core u v ~react =
  check_adjacent core ~op:"recover_link" u v;
  Link_state.recover_link core.links u v;
  Fwd_monitor.touch_all core.monitor;
  trace_link core u v Trace.Session_up;
  react ()

let fail_node core v =
  Link_state.fail_node core.links v;
  Fwd_monitor.touch_all core.monitor;
  trace_node core v Trace.Session_reset

let recover_node core v =
  Link_state.recover_node core.links v;
  Fwd_monitor.touch_all core.monitor;
  trace_node core v Trace.Session_up
