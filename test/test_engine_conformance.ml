(* Conformance suite for the engine substrate: every engine in
   Engine.Registry is driven through the same lifecycle matrix — origin
   announce, link fail -> recover, node fail -> recover, export
   deny -> allow, and slow failure detection — and must quiesce with a
   drained event queue, loop-free forwarding restored for every source,
   and counters consistent with its message totals. A stub engine that
   rejects whole event classes pins the generic Runner's error path. *)

let vtx = Test_support.vtx

(* Re-implements Runner's event application on the packed instance so the
   matrix drives engines directly (no Transient monitor in the way). *)
let rec inject inst sim = function
  | Scenario.Fail_link (u, v) -> Engine.fail_link inst u v
  | Scenario.Fail_node v -> Engine.fail_node inst v
  | Scenario.Deny_export (u, v) -> Engine.deny_export inst u v
  | Scenario.Recover_link (u, v) -> Engine.recover_link inst u v
  | Scenario.Recover_node v -> Engine.recover_node inst v
  | Scenario.Allow_export (u, v) -> Engine.allow_export inst u v
  | Scenario.At (dt, e) ->
    Sim.schedule sim ~delay:dt (fun _ -> inject inst sim e)

(* Every scenario ends with the disturbance undone, so the converged state
   must deliver from every source again. *)
let matrix t ~dest =
  let p = vtx t 1 in
  [
    ("origin announce", 0., []);
    ( "link fail/recover",
      0.,
      [
        Scenario.Fail_link (dest, p);
        Scenario.At (40., Scenario.Recover_link (dest, p));
      ] );
    ( "node fail/recover",
      0.,
      [
        Scenario.Fail_node p;
        Scenario.At (40., Scenario.Recover_node p);
      ] );
    ( "export deny/allow",
      0.,
      [
        Scenario.Deny_export (dest, p);
        Scenario.At (40., Scenario.Allow_export (dest, p));
      ] );
    ( "link fail/recover, slow detection",
      2.,
      [
        Scenario.Fail_link (dest, p);
        Scenario.At (40., Scenario.Recover_link (dest, p));
      ] );
  ]

let max_events = 1_000_000

let check_quiesced label sim =
  Alcotest.(check string)
    (label ^ ": quiesced") "converged"
    (Sim.verdict_name (Sim.run_guarded ~max_events sim));
  Alcotest.(check int) (label ^ ": event queue drained") 0 (Sim.pending sim)

let check_counters label inst =
  let c = Engine.counters inst in
  Alcotest.(check bool) (label ^ ": counters non-negative") true
    (Counters.non_negative c);
  Alcotest.(check int)
    (label ^ ": announcements + withdrawals = message count")
    (Engine.message_count inst) (Counters.messages c)

let test_lifecycle_matrix () =
  let t = Test_support.diamond_plus () in
  let dest = vtx t 3 in
  List.iter
    (fun (engine_name, engine) ->
      List.iter
        (fun (scenario_label, detect_delay, events) ->
          let label = engine_name ^ "/" ^ scenario_label in
          let sim = Sim.create ~seed:7 () in
          let config = { Engine.default_config with seed = 7; detect_delay } in
          let inst = Engine.create engine sim t ~dest config in
          Alcotest.(check string) (label ^ ": name matches registry key")
            engine_name (Engine.name inst);
          Engine.start inst;
          check_quiesced (label ^ " (initial)") sim;
          let initial = Counters.snapshot (Engine.counters inst) in
          check_counters (label ^ " (initial)") inst;
          List.iter (inject inst sim) events;
          check_quiesced (label ^ " (after events)") sim;
          check_counters (label ^ " (after events)") inst;
          let final = Engine.counters inst in
          Alcotest.(check bool) (label ^ ": counters monotonic") true
            (final.Counters.announcements >= initial.Counters.announcements
            && final.Counters.withdrawals >= initial.Counters.withdrawals
            && final.Counters.mrai_deferrals >= initial.Counters.mrai_deferrals
            && final.Counters.lost_to_resets >= initial.Counters.lost_to_resets);
          let statuses = Engine.probe inst in
          Alcotest.(check int) (label ^ ": one status per AS")
            (Topology.num_vertices t) (Array.length statuses);
          Array.iteri
            (fun v s ->
              Alcotest.(check string)
                (Printf.sprintf "%s: AS %d delivered after full recovery"
                   label (Topology.asn t v))
                "delivered"
                (Format.asprintf "%a" Fwd_walk.pp_status s))
            statuses)
        (matrix t ~dest))
    (Engine.Registry.all ())

let test_registry_contents () =
  let names = Engine.Registry.names () in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " registered") true
        (List.mem expected names);
      Alcotest.(check bool) (expected ^ " findable") true
        (Option.is_some (Engine.Registry.find expected)))
    [
      "BGP";
      "R-BGP without RCI";
      "R-BGP";
      "STAMP";
      "STAMP-BGP hybrid (full deployment)";
    ];
  (* the paper protocols resolve to the same engines Runner uses *)
  List.iter
    (fun protocol ->
      let (module E : Engine.S) = Runner.engine_of_protocol protocol in
      Alcotest.(check string) "protocol name = engine name"
        (Runner.protocol_name protocol) E.name)
    Runner.all_protocols;
  (* re-registration by the same name is ignored, not duplicated *)
  let before = List.length (Engine.Registry.names ()) in
  Engine.Registry.register (module Bgp_net);
  Alcotest.(check int) "re-registration is idempotent" before
    (List.length (Engine.Registry.names ()))

(* A restricted engine: link events only, everything else rejected via
   Engine.unsupported. The generic Runner must surface that as a clear
   Invalid_argument naming the engine and the event kind — the error path
   that replaced the hybrid's hand-written pre-validation. *)
let stub_name = "stub (link events only)"

let stub : (module Engine.S) =
  (module struct
    type t = unit

    let name = stub_name
    let create _ _ ~dest:_ _ = ()
    let start () = ()
    let fail_link () _ _ = ()
    let recover_link () _ _ = ()
    let fail_node () _ = Engine.unsupported ~engine:stub_name "node failure"
    let recover_node () _ = Engine.unsupported ~engine:stub_name "node recovery"
    let deny_export () _ _ = Engine.unsupported ~engine:stub_name "export policy"
    let allow_export () _ _ = Engine.unsupported ~engine:stub_name "export policy"
    let probe () = [||]
    let walk_all () = [||]
    let message_count () = 0
    let last_change () = 0.
    let counters () = Counters.make ()
  end)

let test_unsupported_events_error () =
  let t = Test_support.diamond_plus () in
  let dest = vtx t 3 in
  let run events =
    ignore
      (Runner.run_engine ~seed:1 stub t
         { Scenario.dest; events; detect_delay = None })
  in
  List.iter
    (fun (label, events, what) ->
      Alcotest.check_raises label
        (Invalid_argument
           (Printf.sprintf "Runner: the %s engine does not support %s events"
              stub_name what))
        (fun () -> run events))
    [
      ("node failure", [ Scenario.Fail_node (vtx t 1) ], "node failure");
      ("node recovery", [ Scenario.Recover_node (vtx t 1) ], "node recovery");
      ("export deny", [ Scenario.Deny_export (dest, vtx t 1) ], "export policy");
      ( "export allow",
        [ Scenario.Allow_export (dest, vtx t 1) ],
        "export policy" );
    ];
  (* supported events pass through without tripping the guard *)
  let r =
    Runner.run_engine ~seed:1 stub t
      {
        Scenario.dest;
        events = [ Scenario.Fail_link (dest, vtx t 1) ];
        detect_delay = None;
      }
  in
  Alcotest.(check string) "link events accepted" "converged"
    (Sim.verdict_name r.Runner.verdict)

(* The spec-level detect_delay override reaches every engine: with a slow
   control plane, plain BGP's forwarding is broken at the failure instant
   while the probe's virtual clock has not advanced past the detection
   horizon. *)
let test_detect_delay_uniform () =
  let t = Test_support.diamond_plus () in
  let dest = vtx t 3 in
  List.iter
    (fun (engine_name, engine) ->
      let sim = Sim.create ~seed:7 () in
      let config = { Engine.default_config with seed = 7; detect_delay = 5. } in
      let inst = Engine.create engine sim t ~dest config in
      Engine.start inst;
      ignore (Sim.run_guarded ~max_events sim);
      Engine.fail_link inst dest (vtx t 1);
      ignore (Sim.run_guarded ~max_events sim);
      (* the delayed reaction was scheduled and ran; afterwards the engine
         must have re-quiesced with a sane state *)
      Alcotest.(check int) (engine_name ^ ": drained after delayed detection")
        0 (Sim.pending sim);
      check_counters (engine_name ^ " (delayed detection)") inst)
    (Engine.Registry.all ())

(* --- differential: the hybrid with nothing deployed is BGP --------------- *)

(* Hybrid_net is the BGP skeleton plus a blue-table hook that only upgraded
   ASes act on, and a 2-state walk whose second state only they enter.
   With no AS upgraded it must be BGP bit for bit: every Runner.result
   field, and the normalised trace once the engine ids are mapped. *)
let undeployed_name = "hybrid, nothing deployed"

let undeployed =
  Hybrid_net.engine ~name:undeployed_name ~deployed:(fun _ -> false) ()

let as_bgp_ids (e : Trace.event) =
  match e.engine with
  | "Hybrid_net" -> { e with engine = "Bgp_net" }
  | id when id = undeployed_name -> { e with engine = "BGP" }
  | _ -> e

let run_traced ~map engine topo spec =
  let trace = Trace.memory () in
  let r = Runner.run_engine ~seed:3 ~trace engine topo spec in
  (r, Trace.normalize (List.map map (Trace.events trace)))

(* [None] when equal, else which part differs *)
let bgp_difference topo spec =
  let bgp, bgp_trace = run_traced ~map:Fun.id (module Bgp_net) topo spec in
  let hyb, hyb_trace = run_traced ~map:as_bgp_ids undeployed topo spec in
  let hyb =
    {
      hyb with
      Runner.timeline =
        Option.map
          (fun tl -> { tl with Timeline.engine = Bgp_net.name })
          hyb.Runner.timeline;
    }
  in
  if bgp <> hyb then Some "Runner.result"
  else if not (List.equal Trace.equal_event bgp_trace hyb_trace) then
    Some "normalised trace"
  else None

let test_undeployed_hybrid_is_bgp () =
  let t = Test_support.diamond_plus () in
  let dest = vtx t 3 in
  List.iter
    (fun (label, detect_delay, events) ->
      Alcotest.(check (option string)) (label ^ ": differs in") None
        (bgp_difference t
           { Scenario.dest; events; detect_delay = Some detect_delay }))
    (matrix t ~dest)

let prop_undeployed_hybrid_is_bgp =
  Test_support.qtest ~count:15
    "hybrid with nothing deployed = BGP on generated topologies"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      QCheck2.assume (Array.length (Topology.multi_homed t) > 0);
      let st = Random.State.make [| p.Topo_gen.seed + 71 |] in
      List.for_all
        (fun make ->
          match make st t with
          | exception Invalid_argument _ -> true
          | spec -> Option.is_none (bgp_difference t spec))
        [
          Scenario.single_link;
          Scenario.node_failure;
          Scenario.policy_withdraw;
          Scenario.flap ~period:20. ~count:2;
        ])

(* --- cross-check: the incremental probe against the full walk ---------- *)

let same_statuses a b =
  Array.length a = Array.length b && Array.for_all2 Fwd_walk.equal_status a b

(* [engine] with every probe compared to the engine's reference full walk,
   which leaves the engine's own monitor untouched *)
let cross_checked (module E : Engine.S) ~probes ~mismatches : (module Engine.S)
    =
  (module struct
    include E

    let probe t =
      let statuses = E.probe t in
      incr probes;
      if not (same_statuses statuses (E.walk_all t)) then incr mismatches;
      statuses
  end)

(* [engine] whose probe always walks the whole plane *)
let full_walk_only (module E : Engine.S) : (module Engine.S) =
  (module struct
    include E

    let probe = E.walk_all
  end)

let partial_hybrid =
  Hybrid_net.engine ~name:"hybrid, every other AS"
    ~deployed:(fun v -> v mod 2 = 0)
    ()

(* Every scenario kind the monitor's dirty marks must cover: best-route
   changes, link and node failures and recoveries, export policy, a churn
   stream, and resets that fire after a detection delay. The monitor's
   first probe walks the whole plane, so events are also deferred past it
   ([later]) to reach the incremental path. *)
let cross_check_scenarios t =
  let st = Random.State.make [| 5 |] in
  let single = Scenario.single_link st t in
  let node = Scenario.node_failure st t in
  let policy = Scenario.policy_withdraw st t in
  let undo (spec : Scenario.spec) =
    List.map
      (function
        | Scenario.Fail_link (u, v) -> Scenario.At (1., Scenario.Recover_link (u, v))
        | Scenario.Fail_node v -> Scenario.At (30., Scenario.Recover_node v)
        | Scenario.Deny_export (u, v) ->
          Scenario.At (30., Scenario.Allow_export (u, v))
        | e -> e)
      spec.events
  in
  let and_undo (spec : Scenario.spec) =
    { spec with events = spec.events @ undo spec }
  in
  let later (spec : Scenario.spec) =
    { spec with events = List.map (fun e -> Scenario.At (1., e)) spec.events }
  in
  let slow (spec : Scenario.spec) = { spec with detect_delay = Some 2. } in
  (* the far end of the failed link loses every alternate while its dead
     best route still stands: the hybrid's blue table moves without a
     decision *)
  let cut_alternates =
    match single.events with
    | [ Scenario.Fail_link (_, p) ] ->
      {
        single with
        events =
          single.events
          @ List.filter_map
              (fun (q, _) ->
                if q = single.dest then None
                else Some (Scenario.At (1., Scenario.Deny_export (q, p))))
              (Array.to_list (Topology.neighbors t p));
      }
    | _ -> Alcotest.fail "single_link: one link failure expected"
  in
  let flap = Scenario.flap ~period:40. ~count:2 st t in
  let churn = Scenario.churn ~rate:0.05 ~duration:300. st t in
  [
    ("single link failure", single);
    ("link fail then recover", flap);
    ("node fail then recover", later (and_undo node));
    ("deny then allow export", later (and_undo policy));
    ("churn", churn);
    ("single link failure, slow detection", slow single);
    ("link fail then recover, slow detection", slow flap);
    ("link back before detection", slow (later (and_undo single)));
    ("churn, slow detection", slow churn);
    ("alternates cut before detection", slow cut_alternates);
  ]

let test_probe_matches_full_walk () =
  let t = Topo_gen.generate (Topo_gen.default_params ~seed:2 ~n:120 ()) in
  let scenarios = cross_check_scenarios t in
  List.iter
    (fun (engine_name, engine) ->
      List.iter
        (fun (label, spec) ->
          let label = engine_name ^ "/" ^ label in
          let probes = ref 0 and mismatches = ref 0 in
          let checked =
            Runner.run_engine ~seed:3
              (cross_checked engine ~probes ~mismatches)
              t spec
          in
          Alcotest.(check bool) (label ^ ": probed") true (!probes > 1);
          Alcotest.(check int)
            (Printf.sprintf "%s: checkpoints (of %d) where probe <> full walk"
               label !probes)
            0 !mismatches;
          let full = Runner.run_engine ~seed:3 (full_walk_only engine) t spec in
          let plain = Runner.run_engine ~seed:3 engine t spec in
          Alcotest.(check bool) (label ^ ": result = full-walk result") true
            (plain = full);
          Alcotest.(check bool) (label ^ ": cross-check only observes") true
            (plain = checked))
        scenarios)
    (Engine.Registry.all () @ [ ("hybrid, every other AS", partial_hybrid) ])

(* R-BGP changes two forwarding inputs without a best-route decision, so
   only its explicit [Session_core.touch] calls tell the monitor:
   - the RCI purge in [learn_cause]: a new root cause arrives at an AS
     without a usable best route and drops the withdrawn route (or
     failover path) it was forwarding on, so it falls back to another;
   - [lost]: a session reset fires after its detection delay although the
     link has come back meanwhile, and drops the failover path the peer
     re-sent after the recovery, which the AS was forwarding on.
   Each scenario below makes one of them visible (deleting that touch
   fails it); probing after every simulation event, the monitor must agree
   with the full walk. Times are seconds after initial convergence. *)
let rbgp_touch_scenarios =
  [
    ( "new root cause purges a fallback",
      (6, 40),
      8,
      1.,
      [ (0., `Fail (8, 2)); (0.5, `Fail (3, 1)) ] );
    ( "late session reset drops a failover path",
      (129, 100),
      13,
      2.,
      [
        (0.05, `Fail (8, 4));
        (0.5, `Fail (13, 8));
        (2.5, `Fail (8, 5));
        (3.9, `Recover (8, 5));
      ] );
  ]

let test_rbgp_touches () =
  List.iter
    (fun (label, (seed, n), dest, detect_delay, events) ->
      let t = Topo_gen.generate (Topo_gen.default_params ~seed ~n ()) in
      let v = vtx t in
      List.iter
        (fun engine ->
          let module E = (val engine : Engine.S) in
          let label = E.name ^ "/" ^ label in
          let sim = Sim.create ~seed:3 () in
          let inst =
            Engine.create engine sim t ~dest:(v dest)
              { Engine.default_config with detect_delay }
          in
          Engine.start inst;
          check_quiesced label sim;
          ignore (Engine.probe inst);
          List.iter
            (fun (dt, e) ->
              inject inst sim
                (Scenario.At
                   ( dt,
                     match e with
                     | `Fail (a, b) -> Scenario.Fail_link (v a, v b)
                     | `Recover (a, b) -> Scenario.Recover_link (v a, v b) )))
            events;
          let steps = ref 0 and mismatches = ref 0 in
          while !steps < max_events && Sim.step sim do
            incr steps;
            if not (same_statuses (Engine.probe inst) (Engine.walk_all inst))
            then incr mismatches
          done;
          Alcotest.(check int)
            (Printf.sprintf "%s: events (of %d) after which probe <> full walk"
               label !steps)
            0 !mismatches)
        [ Rbgp_net.no_rci; Rbgp_net.rci ])
    rbgp_touch_scenarios

(* No engine's probe bypasses its monitor: with nothing changed since the
   last probe, the monitor hands back the same array. A probe that walked
   afresh would return a new one. *)
let test_probe_reuses_unchanged () =
  let t = Test_support.diamond_plus () in
  let dest = vtx t 3 in
  List.iter
    (fun (engine_name, engine) ->
      let sim = Sim.create ~seed:7 () in
      let inst = Engine.create engine sim t ~dest Engine.default_config in
      Engine.start inst;
      check_quiesced engine_name sim;
      let first = Engine.probe inst in
      Alcotest.(check bool) (engine_name ^ ": unchanged plane, same array")
        true
        (Engine.probe inst == first);
      Alcotest.(check bool) (engine_name ^ ": full walk is a fresh array")
        true
        (Engine.walk_all inst != first))
    (Engine.Registry.all ())

(* --- cross-check: the delivery shortcuts against the full recompute ----- *)

(* Every registered engine, built directly so that its caches can be
   inspected. [stale] lists the ASes whose cached result differs from the
   full recomputation: R-BGP's failover pick and the hybrid's blue table
   against a {!Decision.select_by} rescan, STAMP's quiet deliveries
   against a full re-advertisement (every slot without a pending MRAI
   flush announces what the provider plan wants). BGP caches nothing. *)
type hot_net = {
  start : unit -> unit;
  fail_link : Topology.vertex -> Topology.vertex -> unit;
  recover_link : Topology.vertex -> Topology.vertex -> unit;
  stale : unit -> Topology.vertex list;
}

let hot_net (type a) ~start ~fail_link ~recover_link ~stale (net : a) =
  {
    start = (fun () -> start net);
    fail_link = fail_link net;
    recover_link = recover_link net;
    stale = (fun () -> stale net);
  }

let hot_rbgp ~rci sim t ~dest config =
  hot_net ~start:Rbgp_net.start ~fail_link:Rbgp_net.fail_link
    ~recover_link:Rbgp_net.recover_link ~stale:Rbgp_net.stale_picks
    (Rbgp_net.create ~rci sim t ~dest config)

let hot_hybrid ~deployed sim t ~dest config =
  hot_net ~start:Hybrid_net.start ~fail_link:Hybrid_net.fail_link
    ~recover_link:Hybrid_net.recover_link ~stale:Hybrid_net.stale_picks
    (Hybrid_net.create ~deployed sim t ~dest config)

let hot_engines =
  [
    ( "BGP",
      fun sim t ~dest config ->
        hot_net ~start:Bgp_net.start ~fail_link:Bgp_net.fail_link
          ~recover_link:Bgp_net.recover_link
          ~stale:(fun _ -> [])
          (Bgp_net.create sim t ~dest config) );
    ("R-BGP without RCI", hot_rbgp ~rci:false);
    ("R-BGP", hot_rbgp ~rci:true);
    ( "STAMP",
      fun sim t ~dest (config : Engine.config) ->
        let coloring =
          Coloring.create Coloring.Random_choice ~seed:config.seed t ~dest
        in
        hot_net ~start:Stamp_net.start ~fail_link:Stamp_net.fail_link
          ~recover_link:Stamp_net.recover_link ~stale:Stamp_net.stale_slots
          (Stamp_net.create sim t ~dest ~coloring config) );
    ( "STAMP-BGP hybrid (full deployment)",
      hot_hybrid ~deployed:(fun _ -> true) );
    ("hybrid, every other AS", hot_hybrid ~deployed:(fun v -> v mod 2 = 0));
  ]

(* Fig. 2-style single provider-link failures and link churn on generated
   graphs, with immediate and slow failure detection. The disturbance
   starts after initial convergence, whose own events are checked too.
   The churn is fast (one link event a second) so that, under slow
   detection, updates reach an AS while its own provider link is down but
   not yet detected: a delivery then changes the provider plan without
   changing a best route, the case STAMP's shortcut must not take. *)
let hot_scenarios () =
  List.concat_map
    (fun (seed, n) ->
      let t = Topo_gen.generate (Topo_gen.default_params ~seed ~n ()) in
      let st = Random.State.make [| seed |] in
      let single = Scenario.single_link st t in
      let churn = Scenario.churn ~rate:1. ~duration:60. st t in
      List.concat_map
        (fun detect_delay ->
          List.map
            (fun (label, (spec : Scenario.spec)) ->
              ( Printf.sprintf "n=%d seed %d, %s, detect %g s" n seed label
                  detect_delay,
                t,
                spec,
                detect_delay ))
            [ ("single link", single); ("churn", churn) ])
        [ 0.; 5. ])
    [ (2, 60); (5, 90); (7, 150) ]

let test_hot_path_caches () =
  Alcotest.(check (list string))
    "every registered engine is cross-checked"
    (List.sort compare (Engine.Registry.names ()))
    (List.sort compare
       (List.filter
          (fun name -> Engine.Registry.find name <> None)
          (List.map fst hot_engines)));
  List.iter
    (fun (scenario, t, (spec : Scenario.spec), detect_delay) ->
      List.iter
        (fun (name, make) ->
          let label = name ^ "/" ^ scenario in
          let sim = Sim.create ~seed:3 () in
          let config = { Engine.default_config with seed = 3; detect_delay } in
          let net = make sim t ~dest:spec.dest config in
          let steps = ref 0 and bad = ref 0 and first = ref None in
          let run () =
            while !steps < max_events && Sim.step sim do
              incr steps;
              match net.stale () with
              | [] -> ()
              | v :: _ ->
                incr bad;
                if !first = None then first := Some (!steps, Topology.asn t v)
            done
          in
          net.start ();
          run ();
          let rec inject = function
            | Scenario.Fail_link (u, v) -> net.fail_link u v
            | Scenario.Recover_link (u, v) -> net.recover_link u v
            | Scenario.At (dt, e) ->
              Sim.schedule sim ~delay:dt (fun _ -> inject e)
            | e ->
              Alcotest.failf "unexpected event %a" (Scenario.pp_event t) e
          in
          List.iter inject spec.events;
          run ();
          Alcotest.(check (option (pair int int)))
            (Printf.sprintf "%s: first (event, AS) of %d with a stale cache"
               label !bad)
            None !first)
        hot_engines)
    (hot_scenarios ())

let () =
  Alcotest.run "engine_conformance"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "matrix over all registered engines" `Quick
            test_lifecycle_matrix;
          Alcotest.test_case "detect_delay accepted uniformly" `Quick
            test_detect_delay_uniform;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "probe = full walk at every checkpoint" `Quick
            test_probe_matches_full_walk;
          Alcotest.test_case "probe goes through the monitor" `Quick
            test_probe_reuses_unchanged;
          Alcotest.test_case "R-BGP touches without a decision" `Quick
            test_rbgp_touches;
        ] );
      ( "hot path",
        [
          Alcotest.test_case "cached picks and quiet deliveries = full recompute"
            `Quick test_hot_path_caches;
        ] );
      ( "registry",
        [ Alcotest.test_case "contents and idempotence" `Quick
            test_registry_contents ] );
      ( "bgp_equiv",
        [
          Alcotest.test_case "undeployed hybrid = BGP over the matrix" `Quick
            test_undeployed_hybrid_is_bgp;
          prop_undeployed_hybrid_is_bgp;
        ] );
      ( "errors",
        [
          Alcotest.test_case "unsupported events -> clear Invalid_argument"
            `Quick test_unsupported_events_error;
        ] );
    ]
