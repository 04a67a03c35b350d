(* Tests for the analysis layer: the transient monitor, scenario
   generators, the runner and the figure-level experiments. *)

(* --- Transient monitor -------------------------------------------------- *)

(* A scripted simulation: five spaced events, so the monitor takes
   checkpoints between them. *)
let scripted_sim () =
  let sim = Sim.create () in
  for i = 1 to 5 do
    Sim.schedule sim ~delay:(0.03 *. float_of_int i) (fun _ -> ())
  done;
  sim

let check_verdict name want got =
  Alcotest.(check string) name (Sim.verdict_name want) (Sim.verdict_name got)

(* Drive the monitor with a scripted probe: AS 1 is broken for the first
   two checkpoints then recovers; AS 2 is broken forever. *)
let test_transient_counting () =
  let sim = scripted_sim () in
  let calls = ref 0 in
  let probe () =
    incr calls;
    let broken1 = !calls <= 2 in
    [|
      Fwd_walk.Delivered;
      (if broken1 then Fwd_walk.Blackholed else Fwd_walk.Delivered);
      Fwd_walk.Looped;
    |]
  in
  let o, verdict = Transient.run_guarded sim ~interval:0.02 ~probe () in
  check_verdict "converged" Sim.Converged verdict;
  Alcotest.(check int) "one transient AS" 1 (Transient.transient_count o);
  Alcotest.(check bool) "AS1 transient" true o.Transient.transient.(1);
  Alcotest.(check bool) "AS2 permanent, not transient" false
    o.Transient.transient.(2);
  Alcotest.(check bool) "AS0 fine" false o.Transient.transient.(0)

let test_transient_none () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:0.01 (fun _ -> ());
  let probe () = [| Fwd_walk.Delivered; Fwd_walk.Delivered |] in
  let o, verdict = Transient.run_guarded sim ~probe () in
  check_verdict "converged" Sim.Converged verdict;
  Alcotest.(check int) "none" 0 (Transient.transient_count o)

let test_transient_event_budget () =
  let sim = Sim.create () in
  (* an event that reschedules itself forever *)
  let rec tick s = Sim.schedule s ~delay:0.001 tick in
  tick sim;
  let probe () = [| Fwd_walk.Delivered |] in
  let _, verdict = Transient.run_guarded sim ~max_events:100 ~probe () in
  check_verdict "budget" Sim.Event_budget_exhausted verdict

(* Traffic is a fold over the monitor's probes: on the same schedule it
   sees exactly the monitor's checkpoints, no extra probe at the end. *)
let test_traffic_probes_are_checkpoints () =
  let counting () =
    let calls = ref 0 in
    (calls, fun () -> incr calls; [| Fwd_walk.Delivered; Fwd_walk.Blackholed |])
  in
  let monitor_calls, probe = counting () in
  let o, _ = Transient.run_guarded (scripted_sim ()) ~probe () in
  let traffic_calls, probe = counting () in
  let s = Traffic.observe (scripted_sim ()) ~probe () in
  Alcotest.(check int) "monitor probes = checkpoints" o.Transient.checkpoints
    !monitor_calls;
  Alcotest.(check int) "traffic probes = checkpoints" o.Transient.checkpoints
    !traffic_calls;
  Alcotest.(check int) "one loss per probe" o.Transient.checkpoints
    s.Traffic.loss_events;
  check_verdict "verdict" Sim.Converged s.Traffic.verdict

(* The probe contract: the same physical array means no status changed,
   and returned arrays are never mutated. A probe that hands back its
   previous array on unchanged slices must be observed exactly like one
   that copies every time: same outcome, verdict and status stream. *)
let test_transient_probe_contract () =
  let d = Fwd_walk.Delivered and b = Fwd_walk.Blackholed
  and l = Fwd_walk.Looped in
  let script =
    [|
      [| d; d; d |];
      [| d; b; d |];
      [| d; b; d |];
      [| l; b; d |];
      [| l; b; d |];
      [| d; d; b |];
      [| d; d; b |];
      [| d; d; d |];
    |]
  in
  let run ~share =
    let sim = Sim.create () in
    for i = 1 to 9 do
      Sim.schedule sim ~delay:(0.03 *. float_of_int i) (fun _ -> ())
    done;
    let calls = ref 0 and last = ref [||] in
    let probe () =
      let want = script.(min !calls (Array.length script - 1)) in
      incr calls;
      if share && Array.length !last > 0
         && Array.for_all2 Fwd_walk.equal_status want !last
      then !last
      else begin
        last := Array.copy want;
        !last
      end
    in
    let stream = ref [] in
    let on_status ~changed v s =
      stream := (Sim.now sim, changed, v, Format.asprintf "%a" Fwd_walk.pp_status s)
                :: !stream
    in
    let o, verdict = Transient.run_guarded sim ~on_status ~probe () in
    (o, Sim.verdict_name verdict, List.rev !stream, !calls)
  in
  let o1, v1, s1, calls = run ~share:true in
  let o2, v2, s2, _ = run ~share:false in
  Alcotest.(check bool) "the script is played out" true
    (calls >= Array.length script);
  Alcotest.(check bool) "same outcome" true (o1 = o2);
  Alcotest.(check string) "same verdict" v2 v1;
  Alcotest.(check int) "same stream length" (List.length s2) (List.length s1);
  Alcotest.(check bool) "same on_status stream" true (s1 = s2);
  Alcotest.(check int) "every AS transient" 3 (Transient.transient_count o1)

(* --- Scenario generators ------------------------------------------------ *)

let topo200 = lazy (Topo_gen.generate (Topo_gen.default_params ~n:200 ()))

let test_single_link_shape () =
  let t = Lazy.force topo200 in
  let st = Random.State.make [| 1 |] in
  for _ = 1 to 50 do
    match Scenario.single_link st t with
    | { Scenario.dest; events = [ Scenario.Fail_link (u, v) ]; _ } ->
      Alcotest.(check bool) "dest multi-homed" true (Topology.is_multi_homed t dest);
      Alcotest.(check int) "link starts at dest" dest u;
      Alcotest.(check bool) "fails a provider link" true
        (Topology.rel t u v = Some Relationship.Provider)
    | _ -> Alcotest.fail "unexpected shape"
  done

let test_two_links_apart_shape () =
  let t = Lazy.force topo200 in
  let st = Random.State.make [| 2 |] in
  for _ = 1 to 50 do
    match Scenario.two_links_apart st t with
    | {
     Scenario.dest;
     events = [ Scenario.Fail_link (u1, v1); Scenario.Fail_link (u2, v2) ];
     _;
    } ->
      Alcotest.(check int) "first link at dest" dest u1;
      (* the two failed links share no AS *)
      let shared =
        List.exists (fun x -> x = u1 || x = v1) [ u2; v2 ]
      in
      Alcotest.(check bool) "links disjoint" false shared;
      Alcotest.(check bool) "second is a provider link" true
        (Topology.rel t u2 v2 = Some Relationship.Provider);
      (* second link lies in the destination's uphill cone *)
      let cone = Tiers.uphill_reachable t dest in
      Alcotest.(check bool) "second in cone" true cone.(u2)
    | _ -> Alcotest.fail "unexpected shape"
  done

let test_two_links_shared_shape () =
  let t = Lazy.force topo200 in
  let st = Random.State.make [| 3 |] in
  for _ = 1 to 50 do
    match Scenario.two_links_shared st t with
    | {
     Scenario.dest;
     events = [ Scenario.Fail_link (u1, v1); Scenario.Fail_link (u2, v2) ];
     _;
    } ->
      Alcotest.(check int) "first at dest" dest u1;
      Alcotest.(check int) "shared AS" v1 u2;
      Alcotest.(check bool) "second is provider link of the provider" true
        (Topology.rel t u2 v2 = Some Relationship.Provider)
    | _ -> Alcotest.fail "unexpected shape"
  done

let test_node_failure_shape () =
  let t = Lazy.force topo200 in
  let st = Random.State.make [| 4 |] in
  match Scenario.node_failure st t with
  | { Scenario.dest; events = [ Scenario.Fail_node p ]; _ } ->
    Alcotest.(check bool) "fails a provider of dest" true
      (Topology.rel t dest p = Some Relationship.Provider)
  | _ -> Alcotest.fail "unexpected shape"

let test_scenario_deterministic () =
  let t = Lazy.force topo200 in
  let gen seed =
    let st = Random.State.make [| seed |] in
    List.init 5 (fun _ -> Scenario.single_link st t)
  in
  Alcotest.(check bool) "same" true (gen 7 = gen 7);
  Alcotest.(check bool) "different" true (gen 7 <> gen 8)

(* --- Runner -------------------------------------------------------------- *)

let test_runner_deterministic () =
  let t = Lazy.force topo200 in
  let st = Random.State.make [| 5 |] in
  let spec = Scenario.single_link st t in
  let r1 = Runner.run ~seed:3 Runner.Bgp t spec in
  let r2 = Runner.run ~seed:3 Runner.Bgp t spec in
  Alcotest.(check bool) "identical" true (r1 = r2)

let test_runner_all_protocols_complete () =
  let t = Lazy.force topo200 in
  let st = Random.State.make [| 6 |] in
  let spec = Scenario.single_link st t in
  List.iter
    (fun proto ->
      let r = Runner.run proto t spec in
      Alcotest.(check bool)
        (Printf.sprintf "%s: no permanent loss" (Runner.protocol_name proto))
        true
        (r.Runner.broken_after = 0);
      Alcotest.(check bool) "messages counted" true (r.Runner.messages_initial > 0))
    Runner.all_protocols

let test_runner_node_failure_completes () =
  let t = Lazy.force topo200 in
  let st = Random.State.make [| 8 |] in
  let spec = Scenario.node_failure st t in
  List.iter
    (fun proto -> ignore (Runner.run proto t spec))
    Runner.all_protocols

(* --- Golden runner values ------------------------------------------------- *)

(* Full Runner.run records on the diamond_plus fixture, every protocol,
   fixed seed — pinned bit-for-bit (floats included) so that executor
   changes (e.g. the Parallel domain-pool refit) provably change no
   numbers. If a deliberate protocol/simulator change moves these values,
   re-pin them and say so in the commit. *)

let golden_result =
  Alcotest.testable
    (fun ppf (r : Runner.result) ->
      Format.fprintf ppf
        "{ transient=%d; broken=%d; conv=%.17g; rec=%.17g; mi=%d; me=%d; \
         cp=%d; %a; verdict=%s }"
        r.Runner.transient_count r.Runner.broken_after
        r.Runner.convergence_delay r.Runner.recovery_delay
        r.Runner.messages_initial r.Runner.messages_event r.Runner.checkpoints
        Counters.pp r.Runner.counters
        (Sim.verdict_name r.Runner.verdict))
    ( = )

let golden_expectations =
  (* (label, event-builder, per-protocol expected record) *)
  let mk transient_count broken_after convergence_delay recovery_delay
      messages_initial messages_event checkpoints (ann, wd, mrai, lost) =
    {
      Runner.transient_count;
      broken_after;
      convergence_delay;
      recovery_delay;
      messages_initial;
      messages_event;
      checkpoints;
      counters =
        {
          Counters.announcements = ann;
          withdrawals = wd;
          mrai_deferrals = mrai;
          lost_to_resets = lost;
        };
      verdict = Sim.Converged;
      (* golden runs pass ~validate:`Off so the record stays a pure
         function of the simulation; certificate threading is covered in
         test_staticcheck *)
      diagnostics = [];
      certificate = None;
      timeline = None;
    }
  in
  [
    ( "link",
      (fun vtx -> [ Scenario.Fail_link (vtx 3, vtx 1) ]),
      [
        (Runner.Bgp, mk 0 0 0.019184569160348566 0. 9 4 3 (10, 3, 0, 0));
        (Runner.Rbgp_no_rci, mk 0 0 0.012946428140732227 0. 11 6 3 (12, 5, 0, 0));
        (Runner.Rbgp, mk 0 0 0.012946428140732227 0. 11 6 3 (12, 5, 0, 0));
        (Runner.Stamp, mk 0 0 0.034618057854001807 0. 14 10 5 (19, 5, 1, 0));
      ] );
    ( "node",
      (fun vtx -> [ Scenario.Fail_node (vtx 1) ]),
      [
        (Runner.Bgp, mk 0 1 0. 0. 9 1 2 (9, 1, 0, 0));
        (Runner.Rbgp_no_rci, mk 0 1 0. 0. 11 2 3 (11, 2, 0, 0));
        (Runner.Rbgp, mk 0 1 0. 0. 11 2 3 (11, 2, 0, 0));
        (Runner.Stamp, mk 0 1 0.04159651006293702 0. 14 6 5 (17, 3, 1, 0));
      ] );
  ]

let test_runner_golden () =
  let topo = Test_support.diamond_plus () in
  let vtx = Test_support.vtx topo in
  List.iter
    (fun (label, events, expected) ->
      let spec =
        { Scenario.dest = vtx 3; events = events vtx; detect_delay = None }
      in
      List.iter
        (fun (protocol, want) ->
          let got = Runner.run ~seed:42 ~validate:`Off protocol topo spec in
          Alcotest.check golden_result
            (Printf.sprintf "%s/%s" label (Runner.protocol_name protocol))
            want got)
        expected)
    golden_expectations

let test_runner_golden_via_pool () =
  (* the same pinned records must come out of the domain pool, for any
     worker count *)
  let topo = Test_support.diamond_plus () in
  let vtx = Test_support.vtx topo in
  List.iter
    (fun workers ->
      Parallel.with_pool ~jobs:workers (fun pool ->
          List.iter
            (fun (label, events, expected) ->
              let spec =
                { Scenario.dest = vtx 3; events = events vtx; detect_delay = None }
              in
              let got =
                Parallel.map pool
                  (fun (protocol, _) ->
                    Runner.run ~seed:42 ~validate:`Off protocol topo spec)
                  expected
              in
              List.iter2
                (fun (protocol, want) got ->
                  Alcotest.check golden_result
                    (Printf.sprintf "jobs=%d %s/%s" workers label
                       (Runner.protocol_name protocol))
                    want got)
                expected got)
            golden_expectations))
    [ 1; 4 ]

(* --- Experiments ---------------------------------------------------------- *)

let test_fig1_fields_consistent () =
  let t = Topo_gen.generate (Topo_gen.default_params ~n:120 ()) in
  let f = Experiment.fig1 ~samples:30 ~intelligent_samples:10 t in
  Alcotest.(check bool) "mean in [0,1]" true
    (f.Experiment.mean_random >= 0. && f.Experiment.mean_random <= 1.);
  Alcotest.(check bool) "intelligent >= random - noise" true
    (f.Experiment.mean_intelligent >= f.Experiment.mean_random -. 0.1);
  Alcotest.(check bool) "fractions consistent" true
    (f.Experiment.frac_below_07 >= 0.
    && f.Experiment.frac_above_09 >= 0.
    && f.Experiment.frac_below_07 +. f.Experiment.frac_above_09 <= 1.);
  Alcotest.(check int) "cdf covers all destinations"
    (Topology.num_vertices t)
    (Cdf.size f.Experiment.cdf)

let test_failure_bars_ordering () =
  (* the paper's qualitative ordering on the single-link workload:
     BGP worst, R-BGP with RCI at zero, STAMP far below BGP *)
  let t = Topo_gen.generate (Topo_gen.default_params ~n:200 ()) in
  let bars =
    Experiment.failure_bars ~instances:6 ~scenario:Scenario.single_link t
  in
  let get p = List.assoc p bars in
  Alcotest.(check bool) "bgp >= norci" true
    (get Runner.Bgp >= get Runner.Rbgp_no_rci);
  Alcotest.(check (float 1e-9)) "rbgp with rci = 0" 0. (get Runner.Rbgp);
  Alcotest.(check bool) "stamp <= bgp" true (get Runner.Stamp <= get Runner.Bgp)

let test_overhead_and_delay () =
  let t = Topo_gen.generate (Topo_gen.default_params ~n:150 ()) in
  let rows = Experiment.overhead_and_delay ~instances:4 t in
  Alcotest.(check int) "four protocols" 4 (List.length rows);
  let find p =
    List.find (fun (r : Experiment.overhead_result) -> r.protocol = p) rows
  in
  let bgp = find Runner.Bgp and stamp = find Runner.Stamp in
  Alcotest.(check bool) "stamp < 2x bgp messages (Section 6.3)" true
    (stamp.Experiment.avg_messages_initial
    < 2. *. bgp.Experiment.avg_messages_initial);
  List.iter
    (fun r ->
      Alcotest.(check bool) "delay non-negative" true
        (r.Experiment.avg_delay >= 0.))
    rows

(* --- the sweep grid's contract ------------------------------------------ *)

(* Every sweep must equal a hand-rolled loop over specs drawn in order from
   [Random.State.make [| seed |]], instance [i] running with seed
   [seed + i], inline and on a 2-worker pool alike. Seed 9 draws a spec on
   which BGP has transient ASes, so an arm mix-up changes the numbers. *)
let grid_seed = 9
let grid_instances = 2

let hand_rolled f =
  let topo = Lazy.force topo200 in
  let st = Random.State.make [| grid_seed |] in
  List.init grid_instances (fun i -> (i, Scenario.single_link st topo))
  |> List.map (fun (i, spec) -> f ~seed:(grid_seed + i) topo spec)

let hand_avg f =
  float_of_int (List.fold_left ( + ) 0 (hand_rolled f))
  /. float_of_int grid_instances

let count (r : Runner.result) = r.transient_count

(* [sweep pool] runs the sweep on [grid_instances] instances from
   [grid_seed]; [compare] rather than [=]: a share of no losses is [nan] *)
let check_sweep expected sweep =
  Alcotest.(check bool) "inline = hand-rolled" true
    (compare expected (sweep None) = 0);
  Parallel.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check bool) "2 workers = hand-rolled" true
        (compare expected (sweep (Some pool)) = 0))

let grid_values = [ 10.; 0.5 ]

let test_grid_failure_bars_stats () =
  let expected =
    List.map
      (fun p ->
        ( p,
          Stat.summarize
            (hand_rolled (fun ~seed topo spec ->
                 float_of_int (count (Runner.run ~seed p topo spec)))) ))
      Runner.all_protocols
  in
  check_sweep expected (fun pool ->
      Experiment.failure_bars_stats ?pool ~instances:grid_instances
        ~seed:grid_seed ~scenario:Scenario.single_link (Lazy.force topo200))

let test_grid_ablation_mrai () =
  let expected =
    List.map
      (fun mrai_base ->
        ( mrai_base,
          List.map
            (fun p ->
              let rs =
                hand_rolled (fun ~seed topo spec ->
                    Runner.run ~seed ~mrai_base p topo spec)
              in
              ( p,
                Stat.mean (List.map (fun r -> float_of_int (count r)) rs),
                Stat.mean (List.map (fun r -> r.Runner.convergence_delay) rs)
              ))
            Runner.all_protocols ))
      grid_values
  in
  check_sweep expected (fun pool ->
      Experiment.ablation_mrai ?pool ~instances:grid_instances
        ~seed:grid_seed ~values:grid_values (Lazy.force topo200))

let test_grid_ablation_detection () =
  let expected =
    List.map
      (fun detect_delay ->
        ( detect_delay,
          List.map
            (fun p ->
              ( p,
                hand_avg (fun ~seed topo spec ->
                    count (Runner.run ~seed ~detect_delay p topo spec)) ))
            Runner.all_protocols ))
      grid_values
  in
  check_sweep expected (fun pool ->
      Experiment.ablation_detection ?pool ~instances:grid_instances
        ~seed:grid_seed ~values:grid_values (Lazy.force topo200))

let test_grid_ablation_stamp_variants () =
  let expected =
    List.map
      (fun (label, engine) ->
        ( label,
          hand_avg (fun ~seed topo spec ->
              count (Runner.run_engine ~seed engine topo spec)) ))
      [
        ("baseline (lock-only blue, random colouring)", Stamp_engine.default);
        ( "spread unlocked blue to providers",
          Stamp_engine.make ~spread_unlocked_blue:true () );
        ( "intelligent locked-blue colouring",
          Stamp_engine.make ~strategy:(Coloring.Intelligent { samples = 30 }) ()
        );
      ]
  in
  check_sweep expected (fun pool ->
      Experiment.ablation_stamp_variants ?pool ~instances:grid_instances
        ~seed:grid_seed (Lazy.force topo200))

let test_grid_ablation_probe_interval () =
  let intervals = [ 0.02; 1.0 ] in
  let expected =
    List.map
      (fun interval ->
        ( interval,
          hand_avg (fun ~seed topo spec ->
              count (Runner.run ~seed ~interval Runner.Bgp topo spec)) ))
      intervals
  in
  check_sweep expected (fun pool ->
      Experiment.ablation_probe_interval ?pool ~instances:grid_instances
        ~seed:grid_seed ~values:intervals (Lazy.force topo200))

let test_grid_motivation () =
  let expected =
    List.map
      (fun p ->
        let ss =
          hand_rolled (fun ~seed topo spec ->
              Runner.run_traffic ~seed p topo spec)
        in
        let total f = List.fold_left (fun acc s -> acc + f s) 0 ss in
        let loss = total (fun s -> s.Traffic.loss_events)
        and loops = total (fun s -> s.Traffic.loop_events) in
        (p, if loss = 0 then nan else float_of_int loops /. float_of_int loss))
      Runner.all_protocols
  in
  check_sweep expected (fun pool ->
      Experiment.motivation_loss_composition ?pool ~instances:grid_instances
        ~seed:grid_seed (Lazy.force topo200))

let test_grid_partial_deployment_dynamic () =
  let tiers = Tiers.classify (Lazy.force topo200) in
  let expected =
    List.map
      (fun k ->
        ( k,
          hand_avg (fun ~seed topo spec ->
              count
                (Runner.run_engine ~seed
                   (Hybrid_net.engine ~deployed:(fun v -> tiers.(v) <= k) ())
                   topo spec)) ))
      [ 0; 1 ]
  in
  check_sweep expected (fun pool ->
      Experiment.partial_deployment_dynamic ?pool ~instances:grid_instances
        ~seed:grid_seed ~max_tier:1 (Lazy.force topo200))

let () =
  Alcotest.run "analysis"
    [
      ( "transient",
        [
          Alcotest.test_case "counting" `Quick test_transient_counting;
          Alcotest.test_case "none" `Quick test_transient_none;
          Alcotest.test_case "event budget" `Quick test_transient_event_budget;
          Alcotest.test_case "probe contract: shared = copied arrays" `Quick
            test_transient_probe_contract;
          Alcotest.test_case "traffic probes = checkpoints" `Quick
            test_traffic_probes_are_checkpoints;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "single link" `Quick test_single_link_shape;
          Alcotest.test_case "two apart" `Quick test_two_links_apart_shape;
          Alcotest.test_case "two shared" `Quick test_two_links_shared_shape;
          Alcotest.test_case "node failure" `Quick test_node_failure_shape;
          Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
        ] );
      ( "runner",
        [
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "all protocols" `Quick
            test_runner_all_protocols_complete;
          Alcotest.test_case "node failure" `Quick
            test_runner_node_failure_completes;
          Alcotest.test_case "golden values (diamond_plus)" `Quick
            test_runner_golden;
          Alcotest.test_case "golden values via pool" `Quick
            test_runner_golden_via_pool;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "fig1 fields" `Quick test_fig1_fields_consistent;
          Alcotest.test_case "bars ordering" `Quick test_failure_bars_ordering;
          Alcotest.test_case "overhead and delay" `Quick test_overhead_and_delay;
          Alcotest.test_case "grid: failure_bars_stats" `Quick
            test_grid_failure_bars_stats;
          Alcotest.test_case "grid: ablation_mrai" `Quick
            test_grid_ablation_mrai;
          Alcotest.test_case "grid: ablation_detection" `Quick
            test_grid_ablation_detection;
          Alcotest.test_case "grid: ablation_stamp_variants" `Quick
            test_grid_ablation_stamp_variants;
          Alcotest.test_case "grid: ablation_probe_interval" `Quick
            test_grid_ablation_probe_interval;
          Alcotest.test_case "grid: motivation_loss_composition" `Quick
            test_grid_motivation;
          Alcotest.test_case "grid: partial_deployment_dynamic" `Quick
            test_grid_partial_deployment_dynamic;
        ] );
    ]
