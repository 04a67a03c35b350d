(* The paper's motivating workload: a multi-homed edge AS loses one of its
   provider links, and we watch the forwarding plane of all four protocols
   during reconvergence — a timeline of how many ASes cannot reach the
   destination at each instant.

     dune exec examples/provider_failure.exe            # 500-AS topology
     dune exec examples/provider_failure.exe -- 2000 9  # size and seed   *)

(* Cumulative count of ASes that were unable to deliver at any probe up to
   each offset — probing every 20 ms of virtual time (transient windows are
   as short as one message delay, so coarse sampling would miss them). *)
let timeline sim probe offsets =
  let ever = Hashtbl.create 64 in
  let note () =
    Array.iteri
      (fun v s ->
        if not (Fwd_walk.equal_status s Fwd_walk.Delivered) then
          Hashtbl.replace ever v ())
      (probe ())
  in
  note ();
  let base = Sim.now sim in
  List.map
    (fun dt ->
      let target = base +. dt in
      while Sim.now sim < target do
        let before = Sim.events_processed sim in
        Sim.run ~until:(Float.min target (Sim.now sim +. 0.02)) sim;
        if Sim.events_processed sim > before then note ()
      done;
      (dt, Hashtbl.length ever))
    offsets

let offsets = [ 0.0; 0.05; 0.1; 0.5; 1.0; 5.0; 15.0; 30.0; 60.0; 120.0 ]

let () =
  let n = try int_of_string Sys.argv.(1) with _ -> 500 in
  let seed = try int_of_string Sys.argv.(2) with _ -> 3 in
  let topo = Topo_gen.generate (Topo_gen.default_params ~seed ~n ()) in
  Format.printf "topology: %a@." Topology.pp_stats topo;
  let st = Random.State.make [| seed |] in
  let spec = Scenario.single_link st topo in
  Format.printf "scenario: %a@.@." (Scenario.pp_spec topo) spec;
  let dest = spec.Scenario.dest in
  let fail_events net_fail =
    List.iter
      (function
        | Scenario.Fail_link (u, v) -> net_fail u v
        | _ -> assert false (* single_link only emits link failures *))
      spec.Scenario.events
  in
  let rows =
    List.map
      (fun proto ->
        let sim = Sim.create ~seed () in
        let fail, probe =
          match (proto : Runner.protocol) with
          | Bgp ->
            let net = Bgp_net.create sim topo ~dest Engine.default_config in
            Bgp_net.start net;
            Sim.run sim;
            (Bgp_net.fail_link net, fun () -> Bgp_net.walk_all net)
          | Rbgp | Rbgp_no_rci ->
            let net =
              Rbgp_net.create ~rci:(proto = Runner.Rbgp) sim topo ~dest
                Engine.default_config
            in
            Rbgp_net.start net;
            Sim.run sim;
            (Rbgp_net.fail_link net, fun () -> Rbgp_net.walk_all net)
          | Stamp ->
            let coloring =
              Coloring.create Coloring.Random_choice ~seed topo ~dest
            in
            let net =
              Stamp_net.create sim topo ~dest ~coloring Engine.default_config
            in
            Stamp_net.start net;
            Sim.run sim;
            (Stamp_net.fail_link net, fun () -> Stamp_net.walk_all net)
        in
        fail_events fail;
        (Runner.protocol_name proto, timeline sim probe offsets))
      Runner.all_protocols
  in
  Format.printf "cumulative ASes that lost delivery at some point, by time after failure:@.@.";
  Format.printf "%-10s" "t (s)";
  List.iter (fun (name, _) -> Format.printf "%20s" name) rows;
  Format.printf "@.";
  List.iteri
    (fun i dt ->
      Format.printf "%-10.2f" dt;
      List.iter (fun (_, tl) -> Format.printf "%20d" (snd (List.nth tl i))) rows;
      Format.printf "@.")
    offsets;
  Format.printf
    "@.(the paper's Figure 2 counts each AS that is broken at any point of \
     this timeline)@."
