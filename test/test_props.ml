(* Algebraic properties of the core data types: total orders, inverses,
   and invariants that every engine silently relies on. *)

let gen_route =
  QCheck2.Gen.(
    let* len = int_range 1 6 in
    let* path = list_repeat len (int_range 0 50) in
    let* cls = oneofl [ Relationship.Customer; Relationship.Peer; Relationship.Provider ] in
    return { Route.as_path = path; cls })

let print_route r = Format.asprintf "%a" Route.pp r

(* --- Decision is a strict weak order --------------------------------- *)

let prop_decision_irreflexive =
  Test_support.qtest "decision: no route beats itself" gen_route print_route
    (fun r -> not (Decision.better r r))

let prop_decision_asymmetric =
  Test_support.qtest "decision: asymmetry"
    QCheck2.Gen.(tup2 gen_route gen_route)
    QCheck2.Print.(tup2 print_route print_route)
    (fun (a, b) -> not (Decision.better a b && Decision.better b a))

let prop_decision_transitive =
  Test_support.qtest ~count:200 "decision: transitivity"
    QCheck2.Gen.(tup3 gen_route gen_route gen_route)
    QCheck2.Print.(tup3 print_route print_route print_route)
    (fun (a, b, c) ->
      (not (Decision.better a b && Decision.better b c)) || Decision.better a c)

let prop_select_returns_maximum =
  Test_support.qtest "decision: select returns an unbeaten route"
    QCheck2.Gen.(list_size (int_range 1 10) gen_route)
    QCheck2.Print.(list print_route)
    (fun rs ->
      match Decision.select rs with
      | None -> false
      | Some best -> not (List.exists (fun r -> Decision.better r best) rs))

(* --- Export policy ------------------------------------------------------ *)

let all_rels = [ Relationship.Customer; Relationship.Peer; Relationship.Provider ]

let test_export_customer_routes_universal () =
  (* the valley-free matrix in one line: customer routes go everywhere,
     nothing else crosses peers or providers *)
  List.iter
    (fun to_rel ->
      Alcotest.(check bool) "customer exportable" true
        (Export.allowed ~route_cls:Relationship.Customer ~to_rel))
    all_rels;
  List.iter
    (fun route_cls ->
      List.iter
        (fun to_rel ->
          let expected =
            Relationship.equal route_cls Relationship.Customer
            || Relationship.equal to_rel Relationship.Customer
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s -> %s"
               (Relationship.to_string route_cls)
               (Relationship.to_string to_rel))
            expected
            (Export.allowed ~route_cls ~to_rel))
        all_rels)
    all_rels

(* --- Relationship inversion ------------------------------------------- *)

let test_invert_involution () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "invert twice" true
        (Relationship.equal r (Relationship.invert (Relationship.invert r))))
    (Relationship.Sibling :: all_rels)

let prop_topology_rel_symmetric =
  Test_support.qtest ~count:20 "rel(u,v) is the inverse of rel(v,u)"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      Array.for_all
        (fun u ->
          Array.for_all
            (fun (v, r) ->
              match Topology.rel t v u with
              | Some r' -> Relationship.equal r' (Relationship.invert r)
              | None -> false)
            (Topology.neighbors t u))
        (Topology.vertices t))

(* --- Edge ids: the fast lookups against linear-scan references -------- *)

(* [v]'s index in [u]'s neighbour array, by scanning *)
let scan_slot t u v =
  let a = Topology.neighbors t u in
  let rec go i =
    if i >= Array.length a then None
    else if fst a.(i) = v then Some i
    else go (i + 1)
  in
  go 0

let prop_edge_ids =
  Test_support.qtest ~count:30 "edge, slot, rel = linear scan"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      let n = Topology.num_vertices t in
      let ids = ref [] in
      let ok = ref (Topology.num_edges t = 2 * Topology.num_links t) in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let slot = Topology.slot t u v and edge = Topology.edge t u v in
          match scan_slot t u v with
          | Some s ->
            ids := edge :: !ids;
            if
              slot <> s
              || edge <> Topology.first_edge t u + s
              || not
                   (Option.equal Relationship.equal (Topology.rel t u v)
                      (Some (snd (Topology.neighbors t u).(s))))
            then ok := false
          | None ->
            if slot <> -1 || edge <> -1 || Topology.rel t u v <> None then
              ok := false
        done
      done;
      (* a bijection from ordered adjacent pairs onto 0 .. num_edges - 1 *)
      !ok
      && List.sort compare !ids = List.init (Topology.num_edges t) Fun.id)

(* The edge-indexed link state against the pair set it replaced: a failed
   link is its canonical (smaller, larger) pair; a pair that shares no
   link is up iff both endpoints are. *)
let prop_link_state_matches_pair_set =
  Test_support.qtest ~count:30 "link state = pair-set reference"
    QCheck2.Gen.(tup2 Test_support.gen_params (int_range 0 1_000_000))
    QCheck2.Print.(tup2 Test_support.print_params int)
    (fun (p, seed) ->
      let t = Topo_gen.generate p in
      let n = Topology.num_vertices t in
      let st = Random.State.make [| seed |] in
      let links = Link_state.create t in
      let down = ref [] and node_down = Array.make n false in
      let key u v = if u < v then (u, v) else (v, u) in
      let reference u v =
        (not node_down.(u)) && (not node_down.(v))
        && not (List.mem (key u v) !down)
      in
      let agrees () =
        List.sort_uniq compare !down = Link_state.failed_links links
        && List.for_all
             (fun u ->
               List.for_all
                 (fun v -> Link_state.link_up links u v = reference u v)
                 (List.init n Fun.id))
             (List.init n Fun.id)
      in
      let random_link () =
        let u = Random.State.int st n in
        let a = Topology.neighbors t u in
        if Array.length a = 0 then None
        else Some (u, fst a.(Random.State.int st (Array.length a)))
      in
      let step () =
        match (Random.State.int st 4, random_link ()) with
        | 0, Some (u, v) ->
          Link_state.fail_link links u v;
          down := key u v :: !down
        | 1, Some (u, v) ->
          Link_state.recover_link links u v;
          down := List.filter (fun k -> k <> key u v) !down
        | 2, _ ->
          let v = Random.State.int st n in
          Link_state.fail_node links v;
          node_down.(v) <- true
        | _, _ ->
          let v = Random.State.int st n in
          Link_state.recover_node links v;
          node_down.(v) <- false
      in
      List.for_all
        (fun _ ->
          step ();
          agrees ())
        (List.init 30 Fun.id))

(* --- Prefix ordering ----------------------------------------------------- *)

let gen_prefix =
  QCheck2.Gen.(
    let* len = int_range 0 32 in
    let* bits = int in
    return (Prefix.make (Int32.of_int bits) len))

let print_prefix = Prefix.to_string

let prop_prefix_compare_total_order =
  Test_support.qtest "prefix: compare is antisymmetric and consistent with equal"
    QCheck2.Gen.(tup2 gen_prefix gen_prefix)
    QCheck2.Print.(tup2 print_prefix print_prefix)
    (fun (a, b) ->
      let c1 = Prefix.compare a b and c2 = Prefix.compare b a in
      (c1 = 0) = (c2 = 0)
      && (c1 > 0) = (c2 < 0)
      && Prefix.equal a b = (c1 = 0))

let prop_prefix_subsumes_partial_order =
  Test_support.qtest "prefix: subsumption is reflexive and transitive-ish"
    QCheck2.Gen.(tup2 gen_prefix gen_prefix)
    QCheck2.Print.(tup2 print_prefix print_prefix)
    (fun (a, b) ->
      Prefix.subsumes a a
      && ((not (Prefix.subsumes a b && Prefix.subsumes b a)) || Prefix.equal a b))

let prop_prefix_string_roundtrip =
  Test_support.qtest "prefix: to_string/of_string roundtrip" gen_prefix
    print_prefix (fun p ->
      Prefix.equal p (Prefix.of_string (Prefix.to_string p)))

(* --- Event heap: a sort ---------------------------------------------------- *)

let prop_heap_is_stable_sort =
  Test_support.qtest "heap: drain equals stable sort by time"
    QCheck2.Gen.(list_size (int_range 0 100) (int_range 0 20))
    QCheck2.Print.(list int)
    (fun times ->
      let h = Event_heap.create ~filler:0 in
      List.iteri (fun i t -> Event_heap.push h ~time:(float_of_int t) i) times;
      let rec drain acc =
        if Event_heap.is_empty h then List.rev acc
        else
          let t = Event_heap.min_time h in
          drain ((t, Event_heap.pop h) :: acc)
      in
      let got = drain [] in
      let expected =
        List.mapi (fun i t -> (float_of_int t, i)) times
        |> List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2)
      in
      got = expected)

(* --- Valley decomposition invariants ---------------------------------------- *)

let prop_decompose_partitions_path =
  Test_support.qtest ~count:20 "valley: uphill @ downhill = the path"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      let st = Random.State.make [| p.Topo_gen.seed + 71 |] in
      let dest = Random.State.int st (Topology.num_vertices t) in
      let table = Static_route.compute t ~dest in
      Array.for_all
        (fun v ->
          match Static_route.path_from table v with
          | None -> false
          | Some path ->
            let up, down = Valley.decompose t path in
            up @ down = path)
        (Topology.vertices t))

(* The hybrid's allocation-free downhill segment against [decompose], on
   random walks through the graph (valley-free or not) and on vertex
   sequences that are not paths at all. *)
let prop_downhill_or_whole =
  Test_support.qtest ~count:30 "valley: downhill_or_whole = decompose's downhill"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      let n = Topology.num_vertices t in
      let st = Random.State.make [| p.Topo_gen.seed + 5 |] in
      let walk () =
        let rec go v k =
          let nbrs = Topology.neighbors t v in
          if k = 0 || Array.length nbrs = 0 then [ v ]
          else
            v :: go (fst nbrs.(Random.State.int st (Array.length nbrs))) (k - 1)
        in
        go (Random.State.int st n) (Random.State.int st 8)
      in
      let jumble () = List.init (Random.State.int st 4) (fun _ -> Random.State.int st n) in
      List.for_all
        (fun path ->
          let reference =
            match Valley.decompose t path with
            | _, down -> down
            | exception Invalid_argument _ -> path
          in
          Valley.downhill_or_whole t path = reference)
        (List.init 200 (fun i -> if i mod 10 = 0 then jumble () else walk ())))

(* --- Fwd_monitor: incremental probe = full walk ------------------------ *)

(* A random forwarding plane over [n] ASes and [k] packet states, held in
   mutable tables the step and start functions read: forwards (to the
   destination, into loops or onto other chains), drops and pinned
   deliveries. *)
type plane = {
  n : int;
  k : int;
  dest : int;
  steps : [ `Forward of int * int | `Drop | `Deliver ] array array;
  starts : int array;
}

let random_step st ~n ~k ~dest =
  match Random.State.int st 10 with
  | 0 -> `Drop
  | 1 -> `Deliver
  | 2 | 3 -> `Forward (dest, Random.State.int st k)
  | _ -> `Forward (Random.State.int st n, Random.State.int st k)

let random_plane st ~n ~k =
  let dest = Random.State.int st n in
  {
    n;
    k;
    dest;
    steps = Array.init n (fun _ -> Array.init k (fun _ -> random_step st ~n ~k ~dest));
    starts = Array.init n (fun _ -> Random.State.int st k);
  }

let probe_plane m p =
  Fwd_monitor.probe m ~dest:p.dest
    ~start:(fun v -> p.starts.(v))
    ~step:(fun v s -> p.steps.(v).(s))
    ~state_id:Fun.id ~num_states:p.k

let full_walk p = probe_plane (Fwd_monitor.create p.n) p

(* One AS's forwarding changes: a step (possibly closing or opening a
   loop) or its start state. *)
let mutate st p =
  let v = Random.State.int st p.n in
  if Random.State.int st 4 = 0 then p.starts.(v) <- Random.State.int st p.k
  else
    p.steps.(v).(Random.State.int st p.k) <-
      random_step st ~n:p.n ~k:p.k ~dest:p.dest;
  v

let prop_monitor_matches_full_walk =
  Test_support.qtest ~count:300 "monitor: incremental probe = full walk"
    QCheck2.Gen.(tup3 (int_range 1 60) (int_range 1 4) (int_range 0 1_000_000))
    QCheck2.Print.(tup3 int int int)
    (fun (n, k, seed) ->
      let st = Random.State.make [| seed |] in
      let p = random_plane st ~n ~k in
      let m = Fwd_monitor.create n in
      let returned = ref [] in
      let ok = ref true in
      let check statuses =
        if not (Array.for_all2 Fwd_walk.equal_status statuses (full_walk p))
        then ok := false;
        returned := (statuses, Array.copy statuses) :: !returned
      in
      let prev = ref (probe_plane m p) in
      check !prev;
      for _ = 1 to 40 do
        (* a batch of touched mutations, now and then a link-style event *)
        for _ = 1 to Random.State.int st 4 do
          Fwd_monitor.touch m (mutate st p)
        done;
        if Random.State.int st 10 = 0 then begin
          ignore (mutate st p);
          Fwd_monitor.touch_all m
        end;
        let statuses = probe_plane m p in
        check statuses;
        (* the same array exactly when no status changed *)
        let same = Array.for_all2 Fwd_walk.equal_status statuses !prev in
        if same <> (statuses == !prev) then ok := false;
        prev := statuses
      done;
      (* no returned array was mutated afterwards *)
      !ok
      && List.for_all
           (fun (a, copy) -> Array.for_all2 Fwd_walk.equal_status a copy)
           !returned)

(* The comparison can fail: a change the monitor is not told about is
   invisible to it, while the full walk sees it. *)
let test_monitor_untouched_change_is_missed () =
  let p =
    {
      n = 3;
      k = 1;
      dest = 2;
      steps = [| [| `Forward (1, 0) |]; [| `Forward (2, 0) |]; [| `Drop |] |];
      starts = [| 0; 0; 0 |];
    }
  in
  let m = Fwd_monitor.create p.n in
  let before = probe_plane m p in
  p.steps.(1).(0) <- `Drop;
  let stale = probe_plane m p in
  Alcotest.(check bool) "untouched: same array" true (stale == before);
  Alcotest.(check bool) "full walk sees the drop" false
    (Array.for_all2 Fwd_walk.equal_status stale (full_walk p));
  Fwd_monitor.touch m 1;
  let fixed = probe_plane m p in
  Alcotest.(check (list string)) "touched: re-walked"
    [ "blackholed"; "blackholed"; "delivered" ]
    (Array.to_list (Array.map (Format.asprintf "%a" Fwd_walk.pp_status) fixed))
  ;
  Alcotest.check_raises "packet states are fixed at the first probe"
    (Invalid_argument "Fwd_monitor.probe: number of packet states changed")
    (fun () -> ignore (probe_plane m { p with k = 2 }))

let () =
  Alcotest.run "props"
    [
      ( "decision",
        [
          prop_decision_irreflexive;
          prop_decision_asymmetric;
          prop_decision_transitive;
          prop_select_returns_maximum;
        ] );
      ( "export",
        [
          Alcotest.test_case "valley-free matrix" `Quick
            test_export_customer_routes_universal;
        ] );
      ( "relationship",
        [
          Alcotest.test_case "invert involution" `Quick test_invert_involution;
          prop_topology_rel_symmetric;
        ] );
      ( "prefix",
        [
          prop_prefix_compare_total_order;
          prop_prefix_subsumes_partial_order;
          prop_prefix_string_roundtrip;
        ] );
      ("edge ids", [ prop_edge_ids; prop_link_state_matches_pair_set ]);
      ("heap", [ prop_heap_is_stable_sort ]);
      ("valley", [ prop_decompose_partitions_path; prop_downhill_or_whole ]);
      ( "monitor",
        [
          prop_monitor_matches_full_walk;
          Alcotest.test_case "untouched change is missed" `Quick
            test_monitor_untouched_change_is_missed;
        ] );
    ]
