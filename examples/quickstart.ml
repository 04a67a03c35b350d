(* Quickstart: build a six-AS Internet by hand, run STAMP on it, inspect
   the complementary red/blue routes, fail a link and watch forwarding
   survive.

     dune exec examples/quickstart.exe

   The topology (10 and 20 are tier-1 peers; the destination 3 is a
   multi-homed stub):

         10 ---peer--- 20
         |              |
         1              2
          \            /
           \          /
                3                                                       *)

let pp_path topo ppf = function
  | None -> Format.pp_print_string ppf "(none)"
  | Some path ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " > ")
      Format.pp_print_int ppf
      (List.map (Topology.asn topo) path)

let () =
  (* 1. Describe the AS-level topology: provider→customer and peer links. *)
  let b = Topology.Builder.create () in
  Topology.Builder.add_p2p b 10 20;
  Topology.Builder.add_p2c b ~provider:10 ~customer:1;
  Topology.Builder.add_p2c b ~provider:20 ~customer:2;
  Topology.Builder.add_p2c b ~provider:1 ~customer:3;
  Topology.Builder.add_p2c b ~provider:2 ~customer:3;
  let topo = Topology.Builder.build b in
  Format.printf "topology: %a@.@." Topology.pp_stats topo;

  (* 2. Run STAMP for destination AS 3 until the event queue drains. *)
  let dest = Option.get (Topology.vertex_of_asn topo 3) in
  let sim = Sim.create ~seed:7 () in
  let coloring = Coloring.create Coloring.Random_choice ~seed:7 topo ~dest in
  let net =
    Stamp_net.create sim topo ~dest ~coloring Engine.default_config
  in
  Stamp_net.start net;
  Sim.run sim;
  Format.printf "converged after %d events, %d update messages@.@."
    (Sim.events_processed sim) (Stamp_net.message_count net);

  (* 3. Every AS now holds two complementary routes to AS 3. *)
  Array.iter
    (fun v ->
      Format.printf "AS %-3d red:  %a@.       blue: %a@." (Topology.asn topo v)
        (pp_path topo)
        (Stamp_net.path net Color.Red v)
        (pp_path topo)
        (Stamp_net.path net Color.Blue v))
    (Topology.vertices topo);

  (* 4. Fail one of the destination's provider links. At the very instant
     of the failure — before a single routing update propagates — every AS
     still delivers packets: the AS adjacent to the failure re-colours them
     onto the other process. *)
  let p1 = Option.get (Topology.vertex_of_asn topo 1) in
  Format.printf "@.failing link 3-1 ...@.";
  Stamp_net.fail_link net dest p1;
  let delivered =
    Array.for_all
      (fun s -> Fwd_walk.equal_status s Fwd_walk.Delivered)
      (Stamp_net.walk_all net)
  in
  Format.printf "all ASes still deliver at the failure instant: %b@." delivered;

  (* 5. For comparison: plain BGP in the same scenario blackholes AS 10
     until withdrawals and re-announcements crawl through the network. *)
  let sim' = Sim.create ~seed:7 () in
  let bgp = Bgp_net.create sim' topo ~dest Engine.default_config in
  Bgp_net.start bgp;
  Sim.run sim';
  Bgp_net.fail_link bgp dest p1;
  let broken =
    Array.to_list (Bgp_net.walk_all bgp)
    |> List.filter (fun s -> not (Fwd_walk.equal_status s Fwd_walk.Delivered))
    |> List.length
  in
  Format.printf "plain BGP at the same instant: %d ASes cannot deliver@." broken;
  Sim.run sim';
  Format.printf "(BGP recovers only after reconvergence, at t=%.1fs)@."
    (Bgp_net.last_change bgp)
