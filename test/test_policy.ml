(* Tests for policy-change events (the paper's third routing-event class):
   export denial triggers the same withdrawal convergence as a link
   failure, and re-allowing is a harmless route addition. *)

let diamond = Test_support.diamond
let vtx = Test_support.vtx

let tables_equal (a : Static_route.table) (b : Static_route.table) =
  Array.length a = Array.length b
  && Array.for_all
       (fun i ->
         match (a.(i), b.(i)) with
         | None, None -> true
         | Some x, Some y -> x.Static_route.as_path = y.Static_route.as_path
         | (Some _ | None), _ -> false)
       (Array.init (Array.length a) Fun.id)

(* For a single destination, "dest stops exporting to provider p" and
   "link dest-p fails" must converge to identical routing tables: the link
   carried only that announcement. *)
let test_deny_equals_link_failure_bgp () =
  let t = diamond () in
  let dest = vtx t 3 in
  let run f =
    let sim = Sim.create ~seed:4 () in
    let net = Bgp_net.create sim t ~dest Engine.default_config in
    Bgp_net.start net;
    Sim.run sim;
    f net;
    Sim.run sim;
    Bgp_net.to_table net
  in
  let denied = run (fun net -> Bgp_net.deny_export net dest (vtx t 1)) in
  let failed = run (fun net -> Bgp_net.fail_link net dest (vtx t 1)) in
  Alcotest.(check bool) "same converged tables" true (tables_equal denied failed)

let prop_deny_equals_link_failure =
  Test_support.qtest ~count:10
    "export denial at the origin converges like the link failure"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      QCheck2.assume (Array.length (Topology.multi_homed t) > 0);
      let st = Random.State.make [| p.Topo_gen.seed + 51 |] in
      let spec = Scenario.policy_withdraw st t in
      let dest, prov =
        match spec.Scenario.events with
        | [ Scenario.Deny_export (u, v) ] -> (u, v)
        | _ -> assert false
      in
      let run f =
        let sim = Sim.create ~seed:p.Topo_gen.seed () in
        let net = Bgp_net.create sim t ~dest Engine.default_config in
        Bgp_net.start net;
        Sim.run sim;
        f net;
        Sim.run sim;
        Bgp_net.to_table net
      in
      tables_equal
        (run (fun net -> Bgp_net.deny_export net dest prov))
        (run (fun net -> Bgp_net.fail_link net dest prov)))

let test_allow_restores () =
  let t = diamond () in
  let dest = vtx t 3 in
  let sim = Sim.create ~seed:4 () in
  let net = Bgp_net.create sim t ~dest Engine.default_config in
  Bgp_net.start net;
  Sim.run sim;
  let original = Bgp_net.to_table net in
  Bgp_net.deny_export net dest (vtx t 1);
  Sim.run sim;
  Bgp_net.allow_export net dest (vtx t 1);
  Sim.run sim;
  Alcotest.(check bool) "restored" true (tables_equal original (Bgp_net.to_table net))

let test_stamp_survives_policy_withdraw () =
  (* dest withdraws its prefix from one provider by policy: one colour's
     tree loses its anchor; the other colour keeps delivering *)
  let t = diamond () in
  let dest = vtx t 3 in
  let sim = Sim.create ~seed:7 () in
  let coloring = Coloring.create Coloring.Random_choice ~seed:7 t ~dest in
  let net = Stamp_net.create sim t ~dest ~coloring Engine.default_config in
  Stamp_net.start net;
  Sim.run sim;
  Stamp_net.deny_export net dest (vtx t 1);
  Array.iteri
    (fun v s ->
      Alcotest.(check bool)
        (Printf.sprintf "AS %d delivered at event instant" (Topology.asn t v))
        true
        (Fwd_walk.equal_status s Fwd_walk.Delivered))
    (Stamp_net.walk_all net);
  Sim.run sim;
  Array.iter
    (fun s ->
      Alcotest.(check bool) "delivered after reconvergence" true
        (Fwd_walk.equal_status s Fwd_walk.Delivered))
    (Stamp_net.walk_all net)

let test_rbgp_policy_withdraw_completes () =
  let t = Topo_gen.generate (Topo_gen.default_params ~n:100 ()) in
  let st = Random.State.make [| 3 |] in
  let spec = Scenario.policy_withdraw st t in
  List.iter
    (fun proto ->
      let r = Runner.run proto t spec in
      Alcotest.(check bool)
        (Printf.sprintf "%s has no permanent loss" (Runner.protocol_name proto))
        true
        (r.Runner.broken_after = 0))
    Runner.all_protocols

let test_scenario_shape () =
  let t = Topo_gen.generate (Topo_gen.default_params ~n:100 ()) in
  let st = Random.State.make [| 9 |] in
  for _ = 1 to 20 do
    match Scenario.policy_withdraw st t with
    | { Scenario.dest; events = [ Scenario.Deny_export (u, p) ]; _ } ->
      Alcotest.(check int) "origin denies" dest u;
      Alcotest.(check bool) "towards a provider" true
        (Topology.rel t u p = Some Relationship.Provider)
    | _ -> Alcotest.fail "unexpected shape"
  done

let test_deny_invalid_args () =
  let t = diamond () in
  let sim = Sim.create () in
  let net = Bgp_net.create sim t ~dest:(vtx t 3) Engine.default_config in
  Alcotest.check_raises "not adjacent"
    (Invalid_argument "Bgp_net.deny_export: vertices not adjacent") (fun () ->
      Bgp_net.deny_export net (vtx t 3) (vtx t 10))

let () =
  Alcotest.run "policy"
    [
      ( "deny-export",
        [
          Alcotest.test_case "equals link failure (diamond)" `Quick
            test_deny_equals_link_failure_bgp;
          prop_deny_equals_link_failure;
          Alcotest.test_case "allow restores" `Quick test_allow_restores;
          Alcotest.test_case "STAMP survives" `Quick
            test_stamp_survives_policy_withdraw;
          Alcotest.test_case "all protocols complete" `Quick
            test_rbgp_policy_withdraw_completes;
          Alcotest.test_case "scenario shape" `Quick test_scenario_shape;
          Alcotest.test_case "invalid args" `Quick test_deny_invalid_args;
        ] );
    ]
