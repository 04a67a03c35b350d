type failure =
  | Link of Topology.vertex * Topology.vertex
  | Node of Topology.vertex

type ('tag, 'extra) msg =
  | Announce of { path : Topology.vertex list; tag : 'tag }
  | Withdraw of { tag : 'tag }
  | Extra of 'extra

type 'ext router = {
  v : Topology.vertex;
  mutable best : Route.t option;
  adj_rib_in : Route.t option array;
  rib_out : Route.t option array;
  export_deny : bool array;
  mutable changed : int;
  ext : 'ext;
}

type ('ext, 'tag, 'extra) net = {
  core : (('tag, 'extra) msg, Route.t) Session_core.t;
  topo : Topology.t;
  dest : Topology.vertex;
  routers : 'ext router array;
}

type step = [ `Forward of Topology.vertex * unit | `Drop | `Deliver ]

let usable_next links v (route : Route.t option) =
  match route with
  | Some r -> begin
    match Route.learned_from r with
    | Some nh when Link_state.link_up links v nh -> Some nh
    | Some _ | None -> None
  end
  | None -> None

let rib_changed r slot =
  r.changed <-
    (if r.changed = Decision.no_change || r.changed = slot then slot
     else Decision.several)

let alternate r pick ~keep ~score =
  let changed = r.changed in
  r.changed <- Decision.no_change;
  Decision.repick pick ~best:r.best ~changed ~keep ~score r.adj_rib_in

let alternate_agrees r pick ~keep ~score =
  r.changed <> Decision.no_change
  || Decision.pick_agrees pick ~best:r.best ~keep ~score r.adj_rib_in

module type PROTOCOL = sig
  type ext
  type tag
  type extra
  type params

  val who : string
  val init : params -> Topology.t -> Topology.vertex -> ext
  val announce : ext router -> Topology.vertex list -> (tag, extra) msg
  val withdraw : ext router -> (tag, extra) msg

  val received :
    (ext, tag, extra) net -> ext router -> slot:int -> (tag, extra) msg -> unit

  val reject : ext router -> Topology.vertex list -> bool
  val decided :
    (ext, tag, extra) net -> ext router -> old:Route.t option -> unit
  val refresh : (ext, tag, extra) net -> ext router -> unit
  val drop_peer : ext router -> Topology.vertex -> slot:int -> unit
  val reset : ext router -> unit
  val lost : (ext, tag, extra) net -> ext router -> failure -> unit
  val restored : (ext, tag, extra) net -> failure -> unit
end

type none = |

module Plain = struct
  type tag = unit
  type extra = none

  let announce _ path = Announce { path; tag = () }
  let withdraw _ = Withdraw { tag = () }
  let received _ _ ~slot:_ _ = ()
  let reject _ _ = false
  let decided _ _ ~old:_ = ()
  let refresh _ _ = ()
  let drop_peer _ _ ~slot:_ = ()
  let reset _ = ()
  let lost _ _ _ = ()
  let restored _ _ = ()
end

(* Why the old and new best differed, for the trace. *)
let decision_cause ~old_best ~new_best =
  match (old_best, new_best) with
  | _, None -> "route-loss"
  | None, Some _ -> "route-learned"
  | Some _, Some _ -> "route-change"

module Make (P : PROTOCOL) = struct
  type t = (P.ext, P.tag, P.extra) net

  (* --- advertisement: export policy on top of Session_core ----------- *)

  (* What the neighbour at [slot] should hear: the best route, unless it
     was learned there, its class may not be exported to the neighbour's
     relationship, or policy denies the export. The skeleton announces it
     as [r.v :: as_path] ([message]). *)
  let advertise_to t r slot =
    let n, rel = (Topology.neighbors t.topo r.v).(slot) in
    let desired =
      match r.best with
      | Some b
        when (not (Route.via b n))
             && Export.exportable b ~to_rel:rel
             && not r.export_deny.(slot) ->
        r.best
      | Some _ | None -> None
    in
    Session_core.advertise t.core ~proc:0 ~src:r.v ~dst:n ~slot
      ~rib_out:r.rib_out desired

  let advertise_all t r =
    for slot = 0 to Array.length r.rib_out - 1 do
      advertise_to t r slot
    done;
    P.refresh t r

  (* --- decision ------------------------------------------------------ *)

  let recompute t r =
    let best' =
      if r.v = t.dest then Some Route.origin
      else Decision.select_rib r.adj_rib_in
    in
    let old = r.best in
    if not (Option.equal Route.equal best' old) then begin
      r.best <- best';
      Session_core.note_decision t.core ~node:r.v
        ~old_next:(Option.bind old Route.learned_from)
        ~new_next:(Option.bind best' Route.learned_from)
        ~cause:(decision_cause ~old_best:old ~new_best:best');
      P.decided t r ~old;
      advertise_all t r
    end
    else begin
      P.decided t r ~old;
      P.refresh t r
    end

  (* --- receiving ----------------------------------------------------- *)

  let receive t r ~slot msg =
    if Session_core.node_up t.core r.v then begin
      P.received t r ~slot msg;
      (match msg with
      | Announce { path; _ } ->
        rib_changed r slot;
        if List.mem r.v path || P.reject r path then
          (* own AS in path (or rejected by the protocol): discard,
             dropping any previous route from the peer (implicit
             withdraw) *)
          r.adj_rib_in.(slot) <- None
        else
          r.adj_rib_in.(slot) <-
            Some
              {
                Route.as_path = path;
                cls = snd (Topology.neighbors t.topo r.v).(slot);
              }
      | Withdraw _ ->
        rib_changed r slot;
        r.adj_rib_in.(slot) <- None
      | Extra _ -> ());
      recompute t r
    end

  (* --- construction -------------------------------------------------- *)

  let create params sim topo ~dest config =
    let n = Topology.num_vertices topo in
    if dest < 0 || dest >= n then
      invalid_arg (P.who ^ ".create: bad destination");
    let routers =
      Array.init n (fun v ->
          let deg = Topology.degree topo v in
          {
            v;
            best = None;
            adj_rib_in = Array.make deg None;
            rib_out = Array.make deg None;
            export_deny = Array.make deg false;
            changed = Decision.no_change;
            ext = P.init params topo v;
          })
    in
    let core = Session_core.create ~who:P.who config sim topo in
    let t = { core; topo; dest; routers } in
    Session_core.install core
      {
        receive =
          (fun ~src:_ ~dst ~slot msg ->
            receive t t.routers.(dst) ~slot msg);
        message =
          (fun ~src ~proc:_ adv ->
            let r = t.routers.(src) in
            match adv with
            | Some (b : Route.t) -> P.announce r (src :: b.as_path)
            | None -> P.withdraw r);
        equal = Route.same_path;
        flush =
          (fun ~src ~dst:_ ~slot ~proc:_ ->
            advertise_to t t.routers.(src) slot);
      };
    t

  let start t = recompute t t.routers.(t.dest)

  (* --- failures ------------------------------------------------------ *)

  let drop_peer t r peer =
    let slot = Topology.slot t.topo r.v peer in
    rib_changed r slot;
    r.adj_rib_in.(slot) <- None;
    r.rib_out.(slot) <- None;
    P.drop_peer r peer ~slot

  let fail_link t u v =
    Session_core.fail_link t.core u v ~react:(fun () ->
        let ru = t.routers.(u) and rv = t.routers.(v) in
        drop_peer t ru v;
        drop_peer t rv u;
        let cause = Link (u, v) in
        P.lost t ru cause;
        P.lost t rv cause;
        recompute t ru;
        recompute t rv)

  let recover_link t u v =
    Session_core.recover_link t.core u v ~react:(fun () ->
        let ru = t.routers.(u) and rv = t.routers.(v) in
        drop_peer t ru v;
        drop_peer t rv u;
        P.restored t (Link (u, v));
        (* session re-establishes: each side advertises its current best *)
        advertise_to t ru (Topology.slot t.topo u v);
        advertise_to t rv (Topology.slot t.topo v u);
        P.refresh t ru;
        P.refresh t rv)

  let fail_node t v =
    Session_core.fail_node t.core v;
    let r = t.routers.(v) in
    Array.fill r.adj_rib_in 0 (Array.length r.adj_rib_in) None;
    Array.fill r.rib_out 0 (Array.length r.rib_out) None;
    r.changed <- Decision.several;
    r.best <- None;
    P.reset r;
    let cause = Node v in
    Array.iter
      (fun (n, _) ->
        let rn = t.routers.(n) in
        drop_peer t rn v;
        P.lost t rn cause;
        recompute t rn)
      (Topology.neighbors t.topo v)

  let recover_node t v =
    Session_core.recover_node t.core v;
    P.restored t (Node v);
    let r = t.routers.(v) in
    (* re-originates if [v] is the destination; otherwise the RIBs are empty
       and best stays None until neighbours re-announce *)
    recompute t r;
    Array.iteri
      (fun slot (n, _) ->
        let rn = t.routers.(n) in
        (* sessions re-establish: each side advertises its current best *)
        advertise_to t rn (Topology.slot t.topo n v);
        advertise_to t r slot;
        P.refresh t rn)
      (Topology.neighbors t.topo v)

  let set_export t v n ~deny ~op =
    Session_core.check_adjacent t.core ~op v n;
    let r = t.routers.(v) in
    let slot = Topology.slot t.topo v n in
    r.export_deny.(slot) <- deny;
    advertise_to t r slot;
    P.refresh t r

  let deny_export t v n = set_export t v n ~deny:true ~op:"deny_export"
  let allow_export t v n = set_export t v n ~deny:false ~op:"allow_export"

  (* --- observation --------------------------------------------------- *)

  let best t v = t.routers.(v).best
  let next_hop t v = Option.bind t.routers.(v).best Route.learned_from

  let to_table t : Static_route.table =
    Array.map
      (fun r ->
        match r.best with
        | None -> None
        | Some (b : Route.t) ->
          Some { Static_route.as_path = b.as_path; cls = b.cls })
      t.routers

  let walk t ~fallback m =
    let links = Session_core.links t.core in
    let step v () =
      if not (Link_state.node_up links v) then `Drop
      else
        match t.routers.(v).best with
        | Some b -> begin
          match Route.learned_from b with
          | Some nh when Link_state.link_up links v nh -> `Forward (nh, ())
          | Some _ | None -> fallback v
        end
        | None -> fallback v
    in
    Fwd_monitor.probe m ~dest:t.dest
      ~start:(fun _ -> ())
      ~step
      ~state_id:(fun () -> 0)
      ~num_states:1

  let drop _ = `Drop
  let probe t = walk t ~fallback:drop (Session_core.monitor t.core)
  let walk_all t = walk t ~fallback:drop (Session_core.fresh_monitor t.core)
  let message_count t = Session_core.message_count t.core
  let last_change t = Session_core.last_change t.core
  let counters t = Session_core.counters t.core

  let engine ~name:engine_name ~forwarding params : (module Engine.S) =
    (module struct
      type nonrec t = t

      let name = engine_name
      let create sim topo ~dest config = create params sim topo ~dest config
      let start = start
      let fail_link = fail_link
      let recover_link = recover_link
      let fail_node = fail_node
      let recover_node = recover_node
      let deny_export = deny_export
      let allow_export = allow_export
      let probe t = forwarding t (Session_core.monitor t.core)
      let walk_all t = forwarding t (Session_core.fresh_monitor t.core)
      let message_count = message_count
      let last_change = last_change
      let counters = counters
    end)
end
