type protocol = Bgp | Rbgp_no_rci | Rbgp | Stamp

let all_protocols = [ Bgp; Rbgp_no_rci; Rbgp; Stamp ]

let protocol_name = function
  | Bgp -> "BGP"
  | Rbgp_no_rci -> "R-BGP without RCI"
  | Rbgp -> "R-BGP"
  | Stamp -> "STAMP"

let engine_of_protocol : protocol -> (module Engine.S) = function
  | Bgp -> (module Bgp_net)
  | Rbgp_no_rci -> Rbgp_net.no_rci
  | Rbgp -> Rbgp_net.rci
  | Stamp -> Stamp_engine.default

type budget = { max_events : int; max_vtime : float }

(* Generous enough that no paper workload ever hits it: the figure
   experiments converge within minutes of simulated time and well under a
   million events, so existing numbers are untouched — the budget exists to
   kill pathological instances, not to shape healthy ones. *)
let default_budget = { max_events = 50_000_000; max_vtime = 86_400. }

type result = {
  transient_count : int;
  broken_after : int;
  convergence_delay : float;
  recovery_delay : float;
  messages_initial : int;
  messages_event : int;
  checkpoints : int;
  counters : Counters.t;
  verdict : Sim.verdict;
  diagnostics : Diagnostic.t list;
  certificate : Staticcheck.certificate option;
  timeline : Timeline.t option;
}

(* Pre-run static analysis: scope the per-origin STAMP checks to the
   spec's destination (cheap), enforce the validation policy, and hand
   back what the result record carries. *)
let validate_spec ~validate ~mrai_base ~detect_delay topo spec =
  match validate with
  | `Off -> ([], None)
  | (`Warn | `Strict) as v ->
    let report = Staticcheck.analyze ~spec ~mrai_base ~detect_delay topo in
    Staticcheck.enforce ~what:"Runner scenario" v report;
    (report.Staticcheck.diagnostics, Some report.Staticcheck.certificate)

(* Where a scenario event lives in the trace, ASN space. *)
let rec event_loc topo = function
  | Scenario.Fail_link (u, v)
  | Scenario.Recover_link (u, v)
  | Scenario.Deny_export (u, v)
  | Scenario.Allow_export (u, v) ->
    Trace.Link (Topology.asn topo u, Topology.asn topo v)
  | Scenario.Fail_node v | Scenario.Recover_node v ->
    Trace.Node (Topology.asn topo v)
  | Scenario.At (_, e) -> event_loc topo e

(* Apply one scenario event through the packed engine; [At] defers the inner
   event on the simulation clock, so churn streams interleave with the
   protocol's own reaction. An engine refusing an event kind surfaces as a
   clear [Invalid_argument] naming the engine and the kind. Concrete events
   are traced at their application instant (a deferred event when its timer
   fires), before the engine's reaction. *)
let rec inject ~trace topo (net : Engine.instance) sim event =
  let apply f =
    try f ()
    with Engine.Unsupported { engine; what } ->
      invalid_arg
        (Printf.sprintf "Runner: the %s engine does not support %s events"
           engine what)
  in
  (match event with
  | Scenario.At _ -> ()
  | e ->
    if Trace.enabled trace then
      Trace.emit trace ~vtime:(Sim.now sim) ~engine:(Engine.name net)
        ~loc:(event_loc topo e)
        (Trace.Scenario_event
           (Format.asprintf "%a" (Scenario.pp_event topo) e)));
  match event with
  | Scenario.Fail_link (u, v) -> apply (fun () -> Engine.fail_link net u v)
  | Scenario.Fail_node v -> apply (fun () -> Engine.fail_node net v)
  | Scenario.Deny_export (u, v) -> apply (fun () -> Engine.deny_export net u v)
  | Scenario.Recover_link (u, v) ->
    apply (fun () -> Engine.recover_link net u v)
  | Scenario.Recover_node v -> apply (fun () -> Engine.recover_node net v)
  | Scenario.Allow_export (u, v) ->
    apply (fun () -> Engine.allow_export net u v)
  | Scenario.At (dt, e) ->
    Sim.schedule sim ~delay:dt (fun _ -> inject ~trace topo net sim e)

let status_string = function
  | Fwd_walk.Delivered -> "delivered"
  | Fwd_walk.Looped -> "looped"
  | Fwd_walk.Blackholed -> "blackholed"

let phase ~trace sim net name =
  if Trace.enabled trace then
    Trace.emit trace ~vtime:(Sim.now sim) ~engine:(Engine.name net)
      ~loc:Trace.Net (Trace.Phase name)

type prepared = {
  sim : Sim.t;
  net : Engine.instance;
  initial_verdict : Sim.verdict;
  messages_initial : int;
  event_time : float;
  diagnostics : Diagnostic.t list;
  certificate : Staticcheck.certificate option;
}

(* The prefix every entry point shares: validate, create, converge and —
   only if initial convergence finished — inject the scenario's events. *)
let prepare ~seed ~mrai_base ~detect_delay ~budget ~validate ~trace engine topo
    (spec : Scenario.spec) =
  let detect_delay =
    match spec.detect_delay with Some d -> d | None -> detect_delay
  in
  let diagnostics, certificate =
    validate_spec ~validate ~mrai_base ~detect_delay topo spec
  in
  let sim = Sim.create ~seed () in
  let config =
    { Engine.seed; mrai_base; detect_delay; trace }
  in
  let net = Engine.create engine sim topo ~dest:spec.dest config in
  phase ~trace sim net "start";
  Engine.start net;
  let initial_verdict =
    Sim.run_guarded sim ~until:budget.max_vtime ~max_events:budget.max_events
  in
  let messages_initial = Engine.message_count net in
  let event_time = Sim.now sim in
  if Sim.equal_verdict initial_verdict Sim.Converged then begin
    phase ~trace sim net "initial-converged";
    List.iter (inject ~trace topo net sim) spec.events;
    phase ~trace sim net "events-injected"
  end;
  {
    sim;
    net;
    initial_verdict;
    messages_initial;
    event_time;
    diagnostics;
    certificate;
  }

let count_broken statuses =
  Array.fold_left
    (fun acc s ->
      if Fwd_walk.equal_status s Fwd_walk.Delivered then acc else acc + 1)
    0 statuses

let measure ~interval ~budget ~trace topo p =
  let { sim; net; messages_initial; event_time; _ } = p in
  let transient_count, final, checkpoints, last_status_change, verdict =
    match p.initial_verdict with
    | Sim.Event_budget_exhausted | Sim.Time_budget_exhausted ->
      (* initial convergence never finished: report what we can see and let
         the verdict flag the row — the sweep goes on (the event-phase
         fields come out zero) *)
      (0, Engine.probe net, 1, event_time, p.initial_verdict)
    | Sim.Converged ->
      let on_status =
        if Trace.enabled trace then
          Some
            (fun ~changed v s ->
              Trace.emit trace ~vtime:(Sim.now sim) ~engine:(Engine.name net)
                ~loc:(Trace.Node (Topology.asn topo v))
                (Trace.Status { status = status_string s; changed }))
        else None
      in
      let remaining_events = budget.max_events - Sim.events_processed sim in
      let outcome, verdict =
        Transient.run_guarded sim ~interval ~max_events:(max 1 remaining_events)
          ~max_vtime:(event_time +. budget.max_vtime)
          ?on_status
          ~probe:(fun () -> Engine.probe net)
          ()
      in
      ( Transient.transient_count outcome,
        outcome.final,
        outcome.checkpoints,
        outcome.last_status_change,
        verdict )
  in
  phase ~trace sim net "final";
  {
    transient_count;
    broken_after = count_broken final;
    convergence_delay = Float.max 0. (Engine.last_change net -. event_time);
    recovery_delay = Float.max 0. (last_status_change -. event_time);
    messages_initial;
    messages_event = Engine.message_count net - messages_initial;
    checkpoints;
    counters = Counters.snapshot (Engine.counters net);
    verdict;
    diagnostics = p.diagnostics;
    certificate = p.certificate;
    timeline =
      (if Trace.readable trace then
         Some (Timeline.of_events (Trace.events trace))
       else None);
  }

let run_engine ?(seed = 0) ?(mrai_base = 30.) ?(interval = 0.02)
    ?(detect_delay = 0.) ?(budget = default_budget) ?(validate = `Warn)
    ?(trace = Trace.null) engine topo spec =
  prepare ~seed ~mrai_base ~detect_delay ~budget ~validate ~trace engine topo
    spec
  |> measure ~interval ~budget ~trace topo

let run ?seed ?mrai_base ?interval ?detect_delay ?budget ?validate ?trace
    protocol topo spec =
  run_engine ?seed ?mrai_base ?interval ?detect_delay ?budget ?validate ?trace
    (engine_of_protocol protocol) topo spec

let run_traffic ?(seed = 0) ?(mrai_base = 30.) ?(interval = 0.02)
    ?(detect_delay = 0.) ?(budget = default_budget) ?(validate = `Warn)
    protocol topo spec =
  let p =
    prepare ~seed ~mrai_base ~detect_delay ~budget ~validate ~trace:Trace.null
      (engine_of_protocol protocol) topo spec
  in
  match p.initial_verdict with
  | Sim.Event_budget_exhausted | Sim.Time_budget_exhausted ->
    (* no event was injected: nothing was observed *)
    { Traffic.buckets = []; loss_events = 0; loop_events = 0;
      verdict = p.initial_verdict }
  | Sim.Converged ->
    let remaining_events = budget.max_events - Sim.events_processed p.sim in
    Traffic.observe p.sim ~interval
      ~max_events:(max 1 remaining_events)
      ~max_vtime:(p.event_time +. budget.max_vtime)
      ~probe:(fun () -> Engine.probe p.net)
      ()
