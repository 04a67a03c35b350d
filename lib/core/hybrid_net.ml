type ext = {
  upgraded : bool;
  mutable backup : Route.t option;  (** the blue table *)
  pick : Decision.pick;  (** the cached blue-table pick *)
}

(* How many ASes of the best route's downhill segment (other than the
   destination) an alternate's downhill segment shares. *)
let backup_score (t : (ext, _, _) Path_vector.net) (r : ext Path_vector.router)
    (best : Route.t) =
  let best_down =
    lazy (Valley.downhill_or_whole t.topo (r.v :: best.Route.as_path))
  in
  fun (alt : Route.t) ->
    let best_down = Lazy.force best_down in
    List.fold_left
      (fun n x -> if x <> t.dest && List.mem x best_down then n + 1 else n)
      0
      (Valley.downhill_or_whole t.topo (r.v :: alt.as_path))

let backup_keep best alt = not (Route.same_neighbor alt best)

(* The RIB alternate most downhill-disjoint from the best route. The
   forwarding plane reads only its next hop, so the monitor is touched only
   when that moves (the table is recomputed on every decision). *)
let recompute_backup (t : (ext, _, _) Path_vector.net)
    (r : ext Path_vector.router) =
  if r.ext.upgraded then begin
    let backup =
      match r.best with
      | None -> None
      | Some best ->
        Path_vector.alternate r r.ext.pick ~keep:(backup_keep best)
          ~score:(backup_score t r best)
    in
    let next b = Option.bind b Route.learned_from in
    if not (Option.equal Int.equal (next backup) (next r.ext.backup)) then
      Session_core.touch t.core r.v;
    r.ext.backup <- backup
  end

(* The control plane is plain BGP; the blue table is refreshed after every
   decision and cleared with the router. *)
include Path_vector.Make (struct
  include Path_vector.Plain

  type nonrec ext = ext
  type params = Topology.vertex -> bool

  let who = "Hybrid_net"
  let init deployed _ v =
    { upgraded = deployed v; backup = None; pick = Decision.fresh_pick () }
  let decided t r ~old:_ = recompute_backup t r
  let reset (r : ext Path_vector.router) = r.ext.backup <- None
end)

let create ~deployed sim topo ~dest config =
  create deployed sim topo ~dest config

let backup (t : t) v = t.routers.(v).ext.backup

let has_disjoint_backup (t : t) v =
  match (best t v, backup t v) with
  | Some b, Some a ->
    Valley.downhill_disjoint t.topo (v :: b.Route.as_path) (v :: a.Route.as_path)
  | _ -> false

(* packet states: false = primary (never re-coloured), true = switched *)
let forwarding (t : t) m =
  let links = Session_core.links t.core in
  let usable = Path_vector.usable_next links in
  let step v switched =
    if not (Link_state.node_up links v) then `Drop
    else begin
      let r = t.routers.(v) in
      if not switched then
        match usable v r.best with
        | Some nh -> `Forward (nh, false)
        | None -> begin
          (* primary missing or physically broken: an upgraded AS
             re-colours the packet onto its blue table *)
          match (r.ext.upgraded, usable v r.ext.backup) with
          | true, Some nh -> `Forward (nh, true)
          | (true | false), _ -> `Drop
        end
      else
        (* a re-coloured packet follows best routes from here on: the
           backup was an advertised route of the deflection neighbour, so
           its hops are exactly the downstream best chain. Following other
           ASes' backups instead would compose unrelated local picks (two
           neighbouring backups can point at each other). One deflection
           per packet, as in Section 5. *)
        match usable v r.best with
        | Some nh -> `Forward (nh, true)
        | None -> `Drop
    end
  in
  Fwd_monitor.probe m ~dest:t.dest
    ~start:(fun _ -> false)
    ~step
    ~state_id:(fun sw -> Bool.to_int sw)
    ~num_states:2

let stale_picks (t : t) =
  List.filter
    (fun v ->
      let r = t.routers.(v) in
      match r.best with
      | Some best when r.ext.upgraded ->
        not
          (Path_vector.alternate_agrees r r.ext.pick ~keep:(backup_keep best)
             ~score:(backup_score t r best))
      | Some _ | None -> false)
    (List.init (Topology.num_vertices t.topo) Fun.id)

let walk_all (t : t) = forwarding t (Session_core.fresh_monitor t.core)

let engine ?(name = "STAMP-BGP hybrid") ~deployed () =
  engine ~name ~forwarding deployed

let full =
  engine ~name:"STAMP-BGP hybrid (full deployment)" ~deployed:(fun _ -> true) ()

let () = Engine.Registry.register full
