type entry = { route : Route.t; lock : bool }

type body =
  | Announce of { path : Topology.vertex list; lock : bool; et_ok : bool }
  | Withdraw of { et_ok : bool }

type msg = { color : Color.t; body : body }

(* Per-neighbour state is held in arrays indexed by the neighbour's slot
   ([Topology.slot]). *)
type process = {
  adj_rib_in : entry option array;
  mutable best : entry option;
  rib_out : entry option array;
      (** what was last announced to each neighbour: the route (announced
          as [v :: as_path]) and the lock bit as sent *)
  mutable unstable : bool;
  mutable loss_pending : bool;
      (** our next updates are consequences of a route loss (ET=0) *)
}

(* The part of the provider plan that is the same for every provider: the
   locked blue route's designated provider ([-1] when no blue lock is
   held or no provider is alive) and whether exactly one provider is
   alive (the relay condition). It reads the blue RIB and the provider
   links, which no advertisement changes, so one plan serves a whole
   [sweep]. *)
type plan = { designated : Topology.vertex; single_provider : bool }

let no_plan = { designated = -1; single_provider = false }

let plan_equal a b =
  a.designated = b.designated && Bool.equal a.single_provider b.single_provider

type router = {
  v : Topology.vertex;
  procs : process array; (* indexed by Color.to_int *)
  export_deny : bool array;
  mutable swept : plan;
      (** the plan of the last [sweep] or quiet delivery: while it and
          both bests stand, every live slot without a pending MRAI flush
          announces what the plan wants *)
}

type t = {
  core : (msg, entry) Session_core.t;
  topo : Topology.t;
  dest : Topology.vertex;
  coloring : Coloring.t;
  spread_unlocked_blue : bool;
  routers : router array;
}

let sim t = Session_core.sim t.core
let dest t = t.dest
let proc r color = r.procs.(Color.to_int color)

let entry_equal a b =
  a == b || (Bool.equal a.lock b.lock && Route.equal a.route b.route)

(* what an announcement carries: the path and the lock bit *)
let same_announcement a b =
  a == b || (Bool.equal a.lock b.lock && Route.same_path a.route b.route)

(* --- selective announcement ----------------------------------------- *)

(* A process's best, if it may be exported to a neighbour of class
   [to_rel] under valley-free rules (plus the never-announce-back rule):
   the process's own [best] cell, so nothing is allocated. *)
let standard_export (p : process) ~to_rel ~neighbor =
  match p.best with
  | Some { route; _ }
    when (not (Route.via route neighbor)) && Export.exportable route ~to_rel ->
    p.best
  | Some _ | None -> None

(* [cell] announced with the lock bit [lock]: the same cell when the bit
   already matches. *)
let with_lock (cell : entry option) ~lock =
  match cell with
  | Some e when not (Bool.equal e.lock lock) -> Some { e with lock }
  | Some _ | None -> cell

let blue_lock_held t r =
  r.v = t.dest
  || Array.exists
       (function Some (e : entry) -> e.lock | None -> false)
       (proc r Color.Blue).adj_rib_in

(* The provider the locked blue route must be re-announced to: the first
   alive provider in the AS's coloring preference order ([-1]: none). *)
let designated_provider t r =
  let prefs = Coloring.preference t.coloring r.v in
  let rec scan i =
    if i >= Array.length prefs then -1
    else if Session_core.link_up t.core r.v prefs.(i) then prefs.(i)
    else scan (i + 1)
  in
  scan 0

let alive_provider_count t r =
  Array.fold_left
    (fun acc p -> if Session_core.link_up t.core r.v p then acc + 1 else acc)
    0
    (Topology.providers t.topo r.v)

let provider_plan t r =
  if Array.length (Topology.providers t.topo r.v) = 0 then no_plan
  else
    {
      designated = (if blue_lock_held t r then designated_provider t r else -1);
      single_provider = alive_provider_count t r = 1;
    }

(* Single-homed origin chains relay both colours upward so the initial
   colouring can happen at the first multi-homed ancestor (footnote 4). *)
let is_relay t r plan ~red_best ~blue_best =
  plan.single_provider
  && (r.v = t.dest
     ||
     match (red_best, blue_best) with
     | Some (r1 : entry), Some (r2 : entry) ->
       Route.same_neighbor r1.route r2.route
     | _ -> false)

(* What should neighbour [n] (of class [to_rel]) currently hear from [r]
   on process [color]? The announced route with its lock bit, or None for
   nothing/withdraw. *)
let desired t r plan n to_rel color =
  match (to_rel : Relationship.t) with
  | Customer | Peer | Sibling ->
    with_lock (standard_export (proc r color) ~to_rel ~neighbor:n) ~lock:false
  | Provider -> begin
    let red_best = standard_export (proc r Color.Red) ~to_rel ~neighbor:n in
    let blue_best = standard_export (proc r Color.Blue) ~to_rel ~neighbor:n in
    let designated = Option.is_some blue_best && plan.designated = n in
    let relay = is_relay t r plan ~red_best ~blue_best in
    match color with
    | Blue ->
      (* Only the locked blue route propagates to providers (to exactly
         one of them). Unlocked blue is "not required to propagate"
         (Section 4.1) and deliberately is not: announcing it to red-less
         providers would couple the blue process to red churn — whenever
         a red route (re)appears, its precedence would force a blue
         withdrawal, punching transient holes into the blue tree. Blue
         still reaches every AS through the locked chain to a tier-1 and
         the unrestricted announcements to customers and peers. *)
      if designated then with_lock blue_best ~lock:true
      else if t.spread_unlocked_blue && Option.is_none red_best && not relay
      then
        (* ablation mode: fill red-less providers with unlocked blue *)
        with_lock blue_best ~lock:false
      else None
    | Red ->
      if relay then with_lock red_best ~lock:false
      else if designated then None (* red yields the locked blue provider *)
      else with_lock red_best ~lock:false
  end

let want t r plan slot color =
  let n, to_rel = (Topology.neighbors t.topo r.v).(slot) in
  if r.export_deny.(slot) then None else desired t r plan n to_rel color

let advertise_to t r plan slot color =
  Session_core.advertise t.core ~proc:(Color.to_int color) ~src:r.v
    ~dst:(fst (Topology.neighbors t.topo r.v).(slot))
    ~slot ~rib_out:(proc r color).rib_out (want t r plan slot color)

(* Colours in [Color.all] order per neighbour: the order the messages draw
   their delays in. *)
let sweep t r plan =
  r.swept <- plan;
  for slot = 0 to Array.length r.export_deny - 1 do
    advertise_to t r plan slot Color.Red;
    advertise_to t r plan slot Color.Blue
  done

let advertise_all t r = sweep t r (provider_plan t r)

let advertise_if_deferred t r plan slot color =
  if
    Session_core.flush_scheduled t.core ~src:r.v ~slot
      ~proc:(Color.to_int color)
  then advertise_to t r plan slot color

(* The [sweep] of a delivery that changed neither best nor the plan:
   every other slot already announces what it should, so only the slots
   with a deferred announcement can act (send early or defer again), in
   the same order. *)
let sweep_deferred t r plan =
  if Session_core.flush_pending t.core ~src:r.v then
    for slot = 0 to Array.length r.export_deny - 1 do
      advertise_if_deferred t r plan slot Color.Red;
      advertise_if_deferred t r plan slot Color.Blue
    done

(* Whether [sweep_deferred] is all [sweep] would do: every live slot
   without a pending flush already announces what [plan] wants. *)
let quiet t r plan =
  let nbrs = Topology.neighbors t.topo r.v in
  let settled slot color =
    Session_core.flush_scheduled t.core ~src:r.v ~slot
      ~proc:(Color.to_int color)
    || Option.equal same_announcement
         (want t r plan slot color)
         (proc r color).rib_out.(slot)
  in
  let rec from slot =
    slot >= Array.length nbrs
    || ((not (Session_core.link_up t.core r.v (fst nbrs.(slot))))
       || (settled slot Color.Red && settled slot Color.Blue))
       && from (slot + 1)
  in
  from 0

(* --- decision -------------------------------------------------------- *)

let origin_entry color =
  (* the destination's own blue route carries the lock obligation *)
  { route = Route.origin; lock = Color.equal color Color.Blue }

let select_entry =
  Decision.select_by (fun (e : entry) cur -> Decision.better e.route cur.route)

(* Recompute one process's best; [loss] says whether the triggering event
   was a route loss (drives the ET attribute and the instability flag).
   Any rib change can alter the provider plan of both colours, so the
   caller re-advertises everything afterwards. *)
let recompute t r color ~loss =
  let p = proc r color in
  let best' =
    if r.v = t.dest then Some (origin_entry color) else select_entry p.adj_rib_in
  in
  if not (Option.equal entry_equal best' p.best) then begin
    let next e = Option.bind e (fun e -> Route.learned_from e.route) in
    let old_next = next p.best and new_next = next best' in
    let cause =
      Color.to_string color
      ^
      match (p.best, best') with
      | _, None -> ":route-loss"
      | None, Some _ -> ":route-learned"
      | Some _, Some _ -> ":route-change"
    in
    let was_unstable = p.unstable in
    p.best <- best';
    Session_core.note_decision t.core ~node:r.v ~old_next ~new_next ~cause;
    if loss then begin
      p.unstable <- true;
      p.loss_pending <- true
    end
    else begin
      p.unstable <- false;
      p.loss_pending <- false
    end;
    (* instability flips re-colour traffic away from (or back onto) this
       process: the ET-bit view of the event, for the trace *)
    if p.unstable <> was_unstable && Session_core.trace_enabled t.core then
      Session_core.emit_node t.core r.v
        (Trace.Recolor
           { color = Color.to_string color; et_ok = not p.unstable })
  end

let receive t r ~slot { color; body } =
  if Session_core.node_up t.core r.v then begin
    let p = proc r color in
    (* the ET bit decides: a poisoning withdrawal sent while a *better*
       route propagates carries ET=1 and must not trigger switching
       (Lemma 3.1 — improvements cause no transients); withdrawal-type
       events (failures, policy changes) are marked ET=0 by the AS where
       they happened *)
    let loss =
      match body with
      | Withdraw { et_ok } | Announce { et_ok; _ } -> not et_ok
    in
    (match body with
    | Announce { path; lock; _ } ->
      if List.mem r.v path then p.adj_rib_in.(slot) <- None
      else
        p.adj_rib_in.(slot) <-
          Some
            {
              route =
                {
                  Route.as_path = path;
                  cls = snd (Topology.neighbors t.topo r.v).(slot);
                };
              lock;
            }
    | Withdraw _ -> p.adj_rib_in.(slot) <- None);
    let best = p.best in
    recompute t r color ~loss;
    let plan = provider_plan t r in
    if p.best == best && plan_equal plan r.swept then begin
      (* the plan this delivery relied on (equal to [r.swept]): recorded
         so that {!stale_slots} checks the skipped sweep against it *)
      r.swept <- plan;
      sweep_deferred t r plan
    end
    else sweep t r plan
  end

(* --- construction ----------------------------------------------------- *)

let create sim topo ~dest ~coloring ?(spread_unlocked_blue = false) config =
  let n = Topology.num_vertices topo in
  if dest < 0 || dest >= n then invalid_arg "Stamp_net.create: bad destination";
  let routers =
    Array.init n (fun v ->
        let deg = Topology.degree topo v in
        {
          v;
          procs =
            Array.init 2 (fun _ ->
                {
                  adj_rib_in = Array.make deg None;
                  best = None;
                  rib_out = Array.make deg None;
                  unstable = false;
                  loss_pending = false;
                });
          export_deny = Array.make deg false;
          swept = no_plan;
        })
  in
  (* procs:2 — one MRAI timer per colour per directed link, drawn in
     Color.all order exactly as before *)
  let core =
    Session_core.create ~procs:2 ~who:"Stamp_net" config sim topo
  in
  let t =
    {
      core;
      topo;
      dest;
      coloring;
      spread_unlocked_blue;
      routers;
    }
  in
  Session_core.install core
    {
      receive =
        (fun ~src:_ ~dst ~slot msg -> receive t t.routers.(dst) ~slot msg);
      message =
        (fun ~src ~proc:i adv ->
          let color = Color.of_int i in
          let et_ok = not (proc t.routers.(src) color).loss_pending in
          match adv with
          | Some e ->
            {
              color;
              body =
                Announce
                  { path = src :: e.route.as_path; lock = e.lock; et_ok };
            }
          | None -> { color; body = Withdraw { et_ok } });
      equal = same_announcement;
      flush =
        (fun ~src ~dst:_ ~slot ~proc:i ->
          let r = t.routers.(src) in
          advertise_to t r (provider_plan t r) slot (Color.of_int i));
    };
  t

let start t =
  let r = t.routers.(t.dest) in
  List.iter (fun color -> recompute t r color ~loss:false) Color.all;
  advertise_all t r

(* --- failures ---------------------------------------------------------- *)

(* Forget everything exchanged with the peer at [slot] on both processes
   and re-decide; [loss] says whether losing a best route learned from it
   counts as a route loss. *)
let reset_peer t r slot ~loss =
  let peer = fst (Topology.neighbors t.topo r.v).(slot) in
  List.iter
    (fun color ->
      let p = proc r color in
      let lost_best =
        match p.best with
        | Some { route; _ } -> loss && Route.via route peer
        | None -> false
      in
      p.adj_rib_in.(slot) <- None;
      p.rib_out.(slot) <- None;
      recompute t r color ~loss:lost_best)
    Color.all;
  advertise_all t r

let drop_session t u v ~loss =
  reset_peer t t.routers.(u) (Topology.slot t.topo u v) ~loss;
  reset_peer t t.routers.(v) (Topology.slot t.topo v u) ~loss

let fail_link t u v =
  Session_core.fail_link t.core u v ~react:(fun () ->
      drop_session t u v ~loss:true)

(* both sessions re-establish with empty state; each side re-advertises
   whatever the selective-announcement plan currently assigns the peer *)
let recover_link t u v =
  Session_core.recover_link t.core u v ~react:(fun () ->
      drop_session t u v ~loss:false)

let clear_process p =
  Array.fill p.adj_rib_in 0 (Array.length p.adj_rib_in) None;
  Array.fill p.rib_out 0 (Array.length p.rib_out) None;
  p.best <- None

let fail_node t v =
  Session_core.fail_node t.core v;
  Array.iter clear_process t.routers.(v).procs;
  Array.iter
    (fun (n, _) ->
      reset_peer t t.routers.(n) (Topology.slot t.topo n v) ~loss:true)
    (Topology.neighbors t.topo v)

let recover_node t v =
  Session_core.recover_node t.core v;
  let r = t.routers.(v) in
  (* the returning router restarts both processes from scratch *)
  List.iter
    (fun color ->
      let p = proc r color in
      clear_process p;
      p.unstable <- false;
      p.loss_pending <- false;
      recompute t r color ~loss:false)
    Color.all;
  advertise_all t r;
  (* neighbours re-run the selective-announcement plan — in particular the
     locked-blue-provider designation, which may now prefer a provider that
     just came back *)
  Array.iter
    (fun (n, _) ->
      reset_peer t t.routers.(n) (Topology.slot t.topo n v) ~loss:false)
    (Topology.neighbors t.topo v)

let deny_export t v n =
  Session_core.check_adjacent t.core ~op:"deny_export" v n;
  let r = t.routers.(v) in
  let slot = Topology.slot t.topo v n in
  r.export_deny.(slot) <- true;
  (* a policy change is a withdrawal-type event: the AS where it happens
     marks the resulting withdrawals ET=0 (Section 5.2) *)
  List.iter
    (fun color ->
      let p = proc r color in
      if Option.is_some p.rib_out.(slot) then begin
        p.rib_out.(slot) <- None;
        Session_core.send t.core ~src:v ~dst:n ~kind:`Withdraw
          { color; body = Withdraw { et_ok = false } }
      end)
    Color.all

let allow_export t v n =
  Session_core.check_adjacent t.core ~op:"allow_export" v n;
  let r = t.routers.(v) in
  let slot = Topology.slot t.topo v n in
  r.export_deny.(slot) <- false;
  let plan = provider_plan t r in
  List.iter (fun c -> advertise_to t r plan slot c) Color.all

(* --- observation -------------------------------------------------------- *)

let best t color v =
  Option.map (fun e -> e.route) (proc t.routers.(v) color).best

let path t color v =
  Option.map (fun (r : Route.t) -> v :: r.as_path) (best t color v)

let has_both t v = best t Color.Red v <> None && best t Color.Blue v <> None
let unstable t color v = (proc t.routers.(v) color).unstable

let in_use t v =
  match (best t Color.Red v, best t Color.Blue v) with
  | None, None -> None
  | Some _, None -> Some Color.Red
  | None, Some _ -> Some Color.Blue
  | Some r, Some b ->
    if Decision.better r b then Some Color.Red else Some Color.Blue

(* Colour-aware forwarding (Section 5): forward on the packet's colour;
   when that process's route is missing, broken or unstable, re-colour the
   packet — at most once — and use the other process. Every input of [step]
   and [start] besides link state — both processes' best routes and their
   [unstable] flags — changes only inside [recompute]'s best-route branch
   (or with a node event), so [Session_core.note_decision] covers it. *)
let forwarding t m =
  let links = Session_core.links t.core in
  let usable v color = Path_vector.usable_next links v (best t color v) in
  let step v (color, switched) =
    if not (Link_state.node_up links v) then `Drop
    else begin
      let stable c =
        match usable v c with
        | Some nh when not (unstable t c v) -> Some nh
        | Some _ | None -> None
      in
      if switched then
        (* the packet was already re-coloured once: stick to its colour *)
        match usable v color with
        | Some nh -> `Forward (nh, (color, true))
        | None -> `Drop
      else
        match stable color with
        | Some nh -> `Forward (nh, (color, false))
        | None -> begin
          match stable (Color.other color) with
          | Some nh -> `Forward (nh, (Color.other color, true))
          | None -> begin
            (* both processes disturbed: any process that still has a
               route can be used (Section 5.2) *)
            match usable v color with
            | Some nh -> `Forward (nh, (color, false))
            | None -> begin
              match usable v (Color.other color) with
              | Some nh -> `Forward (nh, (Color.other color, true))
              | None -> `Drop
            end
          end
        end
    end
  in
  let start v =
    match in_use t v with
    | Some c -> (c, false)
    | None -> (Color.Blue, false)
  in
  Fwd_monitor.probe m ~dest:t.dest ~start ~step
    ~state_id:(fun (c, sw) -> (2 * Color.to_int c) + Bool.to_int sw)
    ~num_states:4

let probe t = forwarding t (Session_core.monitor t.core)
let walk_all t = forwarding t (Session_core.fresh_monitor t.core)

(* slot order is increasing neighbour order *)
let announced t color v =
  let rib_out = (proc t.routers.(v) color).rib_out in
  List.filter_map
    (fun slot ->
      Option.map
        (fun e -> (fst (Topology.neighbors t.topo v).(slot), e.lock))
        rib_out.(slot))
    (List.init (Array.length rib_out) Fun.id)

(* ASes breaking the invariant quiet deliveries rely on: the plan of
   their last sweep or quiet delivery is still current, but they would
   not be quiet now. *)
let stale_slots t =
  List.filter
      (fun v ->
        let r = t.routers.(v) in
        let plan = provider_plan t r in
        Session_core.node_up t.core v
        && plan_equal plan r.swept
        && not (quiet t r plan))
      (List.init (Topology.num_vertices t.topo) Fun.id)

let message_count t = Session_core.message_count t.core
let last_change t = Session_core.last_change t.core
let counters t = Session_core.counters t.core

let to_table t color : Static_route.table =
  Array.map
    (fun r ->
      match (proc r color).best with
      | None -> None
      | Some { route; _ } ->
        Some { Static_route.as_path = route.Route.as_path; cls = route.Route.cls })
    t.routers
