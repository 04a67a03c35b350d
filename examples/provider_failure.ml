(* The paper's motivating workload: a multi-homed edge AS loses one of its
   provider links, and we watch the forwarding plane of all four protocols
   during reconvergence — a timeline of how many ASes cannot reach the
   destination at each instant.

     dune exec examples/provider_failure.exe            # 500-AS topology
     dune exec examples/provider_failure.exe -- 2000 9  # size and seed   *)

(* Cumulative count of ASes that were unable to deliver at some probe up to
   [dt] seconds after the failure, read off the run's outage windows. The
   monitor probes every 20 ms of virtual time (transient windows are as
   short as one message delay, so coarse sampling would miss them). *)
let lost_by (tl : Timeline.t) dt =
  List.filter_map
    (fun (w : Timeline.window) ->
      if w.from_t -. tl.event_time <= dt then Some w.asn else None)
    tl.windows
  |> List.sort_uniq compare |> List.length

let offsets = [ 0.0; 0.05; 0.1; 0.5; 1.0; 5.0; 15.0; 30.0; 60.0; 120.0 ]

let () =
  let n = try int_of_string Sys.argv.(1) with _ -> 500 in
  let seed = try int_of_string Sys.argv.(2) with _ -> 3 in
  let topo = Topo_gen.generate (Topo_gen.default_params ~seed ~n ()) in
  Format.printf "topology: %a@." Topology.pp_stats topo;
  let st = Random.State.make [| seed |] in
  let spec = Scenario.single_link st topo in
  Format.printf "scenario: %a@.@." (Scenario.pp_spec topo) spec;
  let rows =
    List.map
      (fun proto ->
        let r = Runner.run ~seed ~trace:(Trace.memory ()) proto topo spec in
        (* a memory sink always yields the timeline *)
        (Runner.protocol_name proto, Option.get r.Runner.timeline))
      Runner.all_protocols
  in
  Format.printf "cumulative ASes that lost delivery at some point, by time after failure:@.@.";
  Format.printf "%-10s" "t (s)";
  List.iter (fun (name, _) -> Format.printf "%20s" name) rows;
  Format.printf "@.";
  List.iter
    (fun dt ->
      Format.printf "%-10.2f" dt;
      List.iter (fun (_, tl) -> Format.printf "%20d" (lost_by tl dt)) rows;
      Format.printf "@.")
    offsets;
  Format.printf
    "@.(the paper's Figure 2 counts each AS that is broken at any point of \
     this timeline)@."
