(* Mechanised checks of the paper's Section 3 lemmas.

   Lemma 3.1: no transient routing loops or failures occur after route
   change or route addition events — nobody loses a route, so the
   forwarding plane never breaks while the improvement propagates.

   Lemma 3.2: a route withdrawal event in the uphill portion of an AS path
   does not produce transient loops or failures during convergence — only
   downhill events hurt, which is why STAMP needs disjointness only there. *)

let all_delivered_throughout sim probe =
  (* monitor the forwarding plane at fine checkpoints until the queue
     drains; true iff no probe ever shows a problem *)
  let ok = ref true in
  let check () =
    Array.iter
      (fun s ->
        if not (Fwd_walk.equal_status s Fwd_walk.Delivered) then ok := false)
      (probe ())
  in
  check ();
  while Sim.pending sim > 0 do
    let before = Sim.events_processed sim in
    Sim.run ~until:(Sim.now sim +. 0.02) sim;
    if Sim.events_processed sim > before then check ()
  done;
  check ();
  !ok

(* A recovery of a previously failed link is the canonical route addition
   event: converge, fail, reconverge, recover, and watch the forwarding
   plane during the final reconvergence. *)
let recovery_scenario topo ~seed =
  let st = Random.State.make [| seed |] in
  let spec = Scenario.single_link st topo in
  match spec.Scenario.events with
  | [ Scenario.Fail_link (u, v) ] -> (spec.Scenario.dest, u, v)
  | _ -> assert false

let prop_lemma_3_1_bgp =
  Test_support.qtest ~count:10
    "Lemma 3.1 (BGP): link recovery causes no transient problems"
    Test_support.gen_params Test_support.print_params (fun p ->
      let topo = Topo_gen.generate p in
      QCheck2.assume (Array.length (Topology.multi_homed topo) > 0);
      let dest, u, v = recovery_scenario topo ~seed:(p.Topo_gen.seed + 31) in
      let sim = Sim.create ~seed:p.Topo_gen.seed () in
      let net = Bgp_net.create sim topo ~dest Engine.default_config in
      Bgp_net.start net;
      Sim.run sim;
      Bgp_net.fail_link net u v;
      Sim.run sim;
      Bgp_net.recover_link net u v;
      all_delivered_throughout sim (fun () -> Bgp_net.walk_all net))

(* STAMP's recovery guarantee presumes the tiered hierarchy: on
   single-tier-1 graphs an AS can be blue-only (no red fallback), and the
   locked-blue re-designation after recovery then briefly blackholes it.
   Generate valid tiered topologies only ({!Test_support.gen_params_tiered})
   — the structural hypothesis the static analyzer's [stamp.*] checks
   enforce. *)
let prop_lemma_3_1_stamp =
  Test_support.qtest ~count:10
    "Lemma 3.1 (STAMP): link recovery causes no transient problems"
    Test_support.gen_params_tiered Test_support.print_params (fun p ->
      let topo = Topo_gen.generate p in
      QCheck2.assume (Array.length (Topology.multi_homed topo) > 0);
      let dest, u, v = recovery_scenario topo ~seed:(p.Topo_gen.seed + 32) in
      let sim = Sim.create ~seed:p.Topo_gen.seed () in
      let coloring =
        Coloring.create Coloring.Random_choice ~seed:p.Topo_gen.seed topo ~dest
      in
      let net =
        Stamp_net.create sim topo ~dest ~coloring Engine.default_config
      in
      Stamp_net.start net;
      Sim.run sim;
      Stamp_net.fail_link net u v;
      Sim.run sim;
      Stamp_net.recover_link net u v;
      all_delivered_throughout sim (fun () -> Stamp_net.walk_all net))

let prop_lemma_3_1_rbgp =
  Test_support.qtest ~count:8
    "Lemma 3.1 (R-BGP): link recovery causes no transient problems"
    Test_support.gen_params Test_support.print_params (fun p ->
      let topo = Topo_gen.generate p in
      QCheck2.assume (Array.length (Topology.multi_homed topo) > 0);
      let dest, u, v = recovery_scenario topo ~seed:(p.Topo_gen.seed + 33) in
      let sim = Sim.create ~seed:p.Topo_gen.seed () in
      let net =
        Rbgp_net.create ~rci:true sim topo ~dest Engine.default_config
      in
      Rbgp_net.start net;
      Sim.run sim;
      Rbgp_net.fail_link net u v;
      Sim.run sim;
      Rbgp_net.recover_link net u v;
      all_delivered_throughout sim (fun () -> Rbgp_net.walk_all net))

(* Lemma 3.2: fail a link strictly in the uphill portion of every affected
   path — i.e. a link both of whose endpoints only reach the destination
   through their providers (so for every AS the lost segment was uphill).
   Concretely: fail a peer link between two tier-1 ASes; for any viewer the
   tier-1 peering crossing is the top of the path, never in the downhill
   portion, so BGP must reconverge without transient problems. *)
let prop_lemma_3_2_tier1_peer_failure =
  Test_support.qtest ~count:10
    "Lemma 3.2 (BGP): tier-1 peer-link failure causes no transient problems"
    Test_support.gen_params Test_support.print_params (fun p ->
      let p = { p with Topo_gen.n_tier1 = max 3 p.Topo_gen.n_tier1 } in
      let topo = Topo_gen.generate p in
      let t1s = Topology.tier1s topo in
      QCheck2.assume (Array.length t1s >= 3);
      let st = Random.State.make [| p.Topo_gen.seed + 34 |] in
      let dest =
        let mh = Topology.multi_homed topo in
        QCheck2.assume (Array.length mh > 0);
        mh.(Random.State.int st (Array.length mh))
      in
      let sim = Sim.create ~seed:p.Topo_gen.seed () in
      let net = Bgp_net.create sim topo ~dest Engine.default_config in
      Bgp_net.start net;
      Sim.run sim;
      (* fail one tier-1 peer link *)
      let a = t1s.(0) and b = t1s.(1) in
      Bgp_net.fail_link net a b;
      all_delivered_throughout sim (fun () -> Bgp_net.walk_all net))

let () =
  Alcotest.run "lemmas"
    [
      ( "lemma-3.1",
        [ prop_lemma_3_1_bgp; prop_lemma_3_1_stamp; prop_lemma_3_1_rbgp ] );
      ("lemma-3.2", [ prop_lemma_3_2_tier1_peer_failure ]);
    ]
