open Path_vector

type cause = Path_vector.failure =
  | Link of Topology.vertex * Topology.vertex
  | Node of Topology.vertex

type failover = { path : Topology.vertex list option; rci : cause option }
(** An R-BGP failover update; [path = None] withdraws a previously
    advertised failover path. *)

type ext = {
  rci_enabled : bool;
  failover_rib : Topology.vertex list option array;
      (** failover paths received, by the advertiser's slot: the pinned
          path, starting at the advertiser *)
  mutable failover_out : (Topology.vertex * Topology.vertex list) option;
      (** (receiver, path) of our currently advertised failover path *)
  mutable withdrawn : Route.t option;
      (** the last best route after it was withdrawn: R-BGP keeps
          forwarding along it until an alternative is learned *)
  mutable known_causes : cause list;
  mutable last_cause : cause option;
  pick : Decision.pick;  (** the cached failover pick *)
}

let cause_equal a b =
  match (a, b) with
  | Link (u, v), Link (u', v') -> (u = u' && v = v') || (u = v' && v = u')
  | Node n, Node n' -> n = n'
  | (Link _ | Node _), _ -> false

(* Whether a stored AS path (owner excluded) traverses the failed element.
   For a link cause the two endpoints must be consecutive in the path. *)
let path_hits_cause path cause =
  match cause with
  | Node n -> List.mem n path
  | Link (u, v) ->
    let rec scan = function
      | a :: (b :: _ as rest) ->
        ((a = u && b = v) || (a = v && b = u)) || scan rest
      | [] | [ _ ] -> false
    in
    scan path

let stale r path =
  r.ext.rci_enabled
  && List.exists (fun c -> path_hits_cause path c) r.ext.known_causes

(* --- failover-path advertisement ------------------------------------ *)

(* Most disjoint alternate: fewest shared vertices with the best path
   (the destination is shared by all candidates, so it never affects the
   ranking), then the decision order. The recipient must not appear in the
   alternate. *)
let failover_keep (best : Route.t) ~recipient (alt : Route.t) =
  not (Route.same_neighbor alt best || List.mem recipient alt.as_path)

let shared (best : Route.t) (alt : Route.t) =
  List.fold_left
    (fun n x -> if List.mem x best.as_path then n + 1 else n)
    0 alt.as_path

let pick_failover r best ~recipient =
  Path_vector.alternate r r.ext.pick
    ~keep:(failover_keep best ~recipient)
    ~score:(shared best)

(* Advertise the failover path [alt] (to [recipient]), or none: nothing
   is built unless it differs from the one last advertised. *)
let set_failover (t : (ext, _, _) net) r ~recipient (alt : Route.t option) =
  let unchanged =
    match (alt, r.ext.failover_out) with
    | None, None -> true
    | Some a, Some (n, _ :: p) ->
      n = recipient && (p == a.as_path || p = a.as_path)
    | Some _, Some (_, []) | Some _, None | None, Some _ -> false
  in
  if not unchanged then begin
    let desired =
      Option.map (fun (a : Route.t) -> (recipient, r.v :: a.as_path)) alt
    in
    (* withdraw from the previous receiver if it changes or disappears *)
    (match r.ext.failover_out with
    | Some (prev, _)
      when (match desired with Some (n, _) -> n <> prev | None -> true)
           && Session_core.link_up t.core r.v prev ->
      Session_core.send t.core ~src:r.v ~dst:prev ~kind:`Withdraw
        (Extra { path = None; rci = r.ext.last_cause })
    | Some _ | None -> ());
    (match desired with
    | Some (n, p)
      when Session_core.link_up t.core r.v n
           && not r.export_deny.(Topology.slot t.topo r.v n) ->
      Session_core.send t.core ~src:r.v ~dst:n ~kind:`Announce
        (Extra { path = Some p; rci = r.ext.last_cause })
    | Some _ | None -> ());
    r.ext.failover_out <- desired
  end

let update_failover t r =
  match r.best with
  | Some ({ as_path = nh :: _; _ } as b) ->
    set_failover t r ~recipient:nh (pick_failover r b ~recipient:nh)
  | Some { as_path = []; _ } (* destination itself *) | None ->
    set_failover t r ~recipient:(-1) None

(* --- RCI purge ------------------------------------------------------- *)

let purge rib stale ~cleared =
  Array.iteri
    (fun s -> function
      | Some x when stale x ->
        rib.(s) <- None;
        cleared s
      | _ -> ())
    rib

let learn_cause (t : (ext, _, _) net) r cause =
  let x = r.ext in
  if x.rci_enabled && not (List.exists (cause_equal cause) x.known_causes)
  then begin
    x.known_causes <- cause :: x.known_causes;
    (* the purge edits the failover RIB and the withdrawn route *)
    Session_core.touch t.core r.v;
    purge r.adj_rib_in
      (fun (rt : Route.t) -> path_hits_cause rt.as_path cause)
      ~cleared:(Path_vector.rib_changed r);
    purge x.failover_rib (fun path -> path_hits_cause path cause)
      ~cleared:ignore;
    match x.withdrawn with
    | Some (w : Route.t) when path_hits_cause w.as_path cause ->
      x.withdrawn <- None
    | Some _ | None -> ()
  end;
  x.last_cause <- Some cause

(* A recovered element's root cause clears: routes through it are valid
   again. [last_cause] must go too, or re-announcements would carry the
   stale cause and re-poison every receiver. *)
let clear_cause cause r =
  let x = r.ext in
  x.known_causes <-
    List.filter (fun c -> not (cause_equal c cause)) x.known_causes;
  match x.last_cause with
  | Some c when cause_equal c cause -> x.last_cause <- None
  | Some _ | None -> ()

include Path_vector.Make (struct
  type nonrec ext = ext
  type tag = cause option
  type extra = failover
  type params = bool

  let who = "Rbgp_net"

  let init rci_enabled topo v =
    {
      rci_enabled;
      failover_rib = Array.make (Topology.degree topo v) None;
      failover_out = None;
      withdrawn = None;
      known_causes = [];
      last_cause = None;
      pick = Decision.fresh_pick ();
    }

  (* updates carry the root cause of the event that triggered them *)
  let announce r path = Announce { path; tag = r.ext.last_cause }
  let withdraw r = Withdraw { tag = r.ext.last_cause }

  let received t r ~slot msg =
    let rci =
      match msg with
      | Announce { tag; _ } | Withdraw { tag } | Extra { rci = tag; _ } -> tag
    in
    (match rci with Some c -> learn_cause t r c | None -> ());
    match msg with
    | Extra { path; _ } -> begin
      Session_core.touch t.core r.v;
      r.ext.failover_rib.(slot) <-
        (match path with
        | Some p when not (stale r p) -> path
        | Some _ | None -> None)
    end
    | Announce _ | Withdraw _ -> ()

  let reject = stale

  (* the withdrawn route changes only with the best route, which
     [Session_core.note_decision] already marked for the monitor *)
  let decided _ r ~old =
    if old != r.best then
      match (old, r.best) with
      | Some o, None -> r.ext.withdrawn <- Some o
      | _, Some _ -> r.ext.withdrawn <- None
      | None, None -> ()

  let refresh = update_failover

  let drop_peer r peer ~slot =
    r.ext.failover_rib.(slot) <- None;
    match r.ext.failover_out with
    | Some (n, _) when n = peer -> r.ext.failover_out <- None
    | Some _ | None -> ()

  let reset r =
    Array.fill r.ext.failover_rib 0 (Array.length r.ext.failover_rib) None;
    r.ext.failover_out <- None

  (* adjacent ASes know the root cause by local detection, with or without
     the RCI protocol extension; [learn_cause] only purges under RCI. The
     touch covers the failover paths [drop_peer] just removed: with a
     positive detect delay this reset runs long after the link event. *)
  let lost t r cause =
    learn_cause t r cause;
    Session_core.touch t.core r.v

  let restored (t : (ext, _, _) net) cause =
    (match cause with
    | Node v ->
      (* the returning router restarts with a clean slate *)
      let x = t.routers.(v).ext in
      x.known_causes <- [];
      x.last_cause <- None;
      x.withdrawn <- None
    | Link _ -> ());
    Array.iter (clear_cause cause) t.routers
end)

let create ~rci sim topo ~dest config = create rci sim topo ~dest config

(* slot order: the increasing advertiser order the forwarding plane tries
   them in *)
let failover_choices t v =
  List.filter_map Fun.id (Array.to_list t.routers.(v).ext.failover_rib)

(* A pinned failover path delivers iff every hop is alive. *)
let pinned_alive t path =
  let links = Session_core.links t.core in
  let rec scan = function
    | a :: (b :: _ as rest) -> Link_state.link_up links a b && scan rest
    | [ x ] -> Link_state.node_up links x
    | [] -> true
  in
  scan path

let forwarding t m =
  let links = Session_core.links t.core in
  walk t m ~fallback:(fun v ->
      let r = t.routers.(v) in
      (* keep forwarding along the withdrawn route until an alternative or
         a root cause invalidates it *)
      match usable_next links v r.ext.withdrawn with
      | Some nh -> `Forward (nh, ())
      | None -> begin
        (* Deflect onto a stored failover path. The router picks the first
           candidate whose advertiser is still reachable — it cannot know
           whether the rest of the pinned path is alive. Under RCI, stale
           failover paths were purged, so the pick is trustworthy; without
           RCI the packet follows a possibly dead path and is lost. *)
        let nbrs = Topology.neighbors t.topo v in
        let rec first slot =
          if slot >= Array.length nbrs then `Drop
          else
            match r.ext.failover_rib.(slot) with
            | Some p when Link_state.link_up links v (fst nbrs.(slot)) ->
              if pinned_alive t p then `Deliver else `Drop
            | Some _ | None -> first (slot + 1)
        in
        first 0
      end)

let stale_picks t =
  List.filter
    (fun v ->
      let r = t.routers.(v) in
      match r.best with
      | Some ({ as_path = nh :: _; _ } as b) ->
        not
          (Path_vector.alternate_agrees r r.ext.pick
             ~keep:(failover_keep b ~recipient:nh)
             ~score:(shared b))
      | Some { as_path = []; _ } | None -> false)
    (List.init (Topology.num_vertices t.topo) Fun.id)

let walk_all t = forwarding t (Session_core.fresh_monitor t.core)
let no_rci = engine ~name:"R-BGP without RCI" ~forwarding false
let rci = engine ~name:"R-BGP" ~forwarding true

let () =
  Engine.Registry.register no_rci;
  Engine.Registry.register rci
