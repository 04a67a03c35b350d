type fig1_result = {
  cdf : Cdf.t;
  mean_random : float;
  mean_intelligent : float;
  frac_below_07 : float;
  frac_above_09 : float;
}

let fig1 ?(samples = 100) ?(intelligent_samples = 30) ?(seed = 1) topo =
  let st = Random.State.make [| seed |] in
  let phis = Phi.phi_all ~samples st topo in
  let st' = Random.State.make [| seed + 1 |] in
  let phis_intelligent =
    Phi.phi_all ~samples:intelligent_samples
      ~selection:Phi.Intelligent_selection st' topo
  in
  let values = Array.to_list phis in
  let cdf = Cdf.of_samples values in
  {
    cdf;
    mean_random = Cdf.mean cdf;
    mean_intelligent = Stat.mean (Array.to_list phis_intelligent);
    frac_below_07 = Cdf.fraction_at_most cdf 0.7;
    frac_above_09 = 1. -. Cdf.fraction_at_most cdf 0.9;
  }

(* --- the job grid --------------------------------------------------------- *)

(* Every sweep below runs on this grid: [instances] specs drawn in order
   from one [Random.State.make [| seed |]], then one job per (arm,
   instance), arm-major, instance [i] running with seed [seed + i], on
   [pool] when given. The results come back per arm, in instance order, so
   the numbers are bit-identical whether the jobs run inline, on one
   worker, or on many. *)
let grid ?pool ~instances ~seed ~scenario ~arms topo job =
  let st = Random.State.make [| seed |] in
  let specs = List.init instances (fun i -> (seed + i, scenario st topo)) in
  let jobs =
    List.concat_map
      (fun arm -> List.map (fun (seed, spec) -> (arm, seed, spec)) specs)
      arms
  in
  let run (arm, seed, spec) = job arm ~seed spec in
  let results =
    Array.of_list
      (match pool with
      | None -> List.map run jobs
      | Some pool -> Parallel.map pool run jobs)
  in
  List.mapi
    (fun a arm ->
      (arm, List.init instances (fun i -> results.((a * instances) + i))))
    arms

(* Arms of a two-level sweep: every protocol under every value, value-major;
   [by_value] regroups the grid's rows the same way. Arms carry the value's
   position, so a repeated value keeps its own row. *)
let value_arms values =
  List.concat
    (List.mapi
       (fun k v -> List.map (fun p -> ((k, v), p)) Runner.all_protocols)
       values)

let by_value values rows =
  List.mapi
    (fun k v ->
      ( v,
        List.filter_map
          (fun (((k', _), p), x) -> if k = k' then Some (p, x) else None)
          rows ))
    values

type bars = (Runner.protocol * float) list

let avg_int instances counts =
  float_of_int (List.fold_left ( + ) 0 counts) /. float_of_int instances

let transient_count (r : Runner.result) = r.transient_count

let failure_bars ?pool ?(instances = 20) ?(seed = 1) ?(mrai_base = 30.)
    ?(interval = 0.02) ~scenario topo =
  grid ?pool ~instances ~seed ~scenario ~arms:Runner.all_protocols topo
    (fun protocol ~seed spec ->
      transient_count
        (Runner.run ~seed ~mrai_base ~interval protocol topo spec))
  |> List.map (fun (protocol, cs) -> (protocol, avg_int instances cs))

let failure_bars_stats ?pool ?(instances = 20) ?(seed = 1) ?(mrai_base = 30.)
    ?(interval = 0.02) ~scenario topo =
  grid ?pool ~instances ~seed ~scenario ~arms:Runner.all_protocols topo
    (fun protocol ~seed spec ->
      float_of_int
        (transient_count
           (Runner.run ~seed ~mrai_base ~interval protocol topo spec)))
  |> List.map (fun (protocol, cs) -> (protocol, Stat.summarize cs))

type overhead_result = {
  protocol : Runner.protocol;
  avg_messages_initial : float;
  avg_messages_event : float;
  avg_delay : float;
  avg_recovery : float;
}

let overhead_and_delay ?pool ?(instances = 20) ?(seed = 1) ?(mrai_base = 30.)
    ?(interval = 0.02) topo =
  grid ?pool ~instances ~seed ~scenario:Scenario.single_link
    ~arms:Runner.all_protocols topo (fun protocol ~seed spec ->
      Runner.run ~seed ~mrai_base ~interval protocol topo spec)
  |> List.map (fun (protocol, results) ->
         let favg f =
           Stat.mean (List.map (fun r -> float_of_int (f r)) results)
         in
         {
           protocol;
           avg_messages_initial = favg (fun r -> r.Runner.messages_initial);
           avg_messages_event = favg (fun r -> r.Runner.messages_event);
           avg_delay =
             Stat.mean (List.map (fun r -> r.Runner.convergence_delay) results);
           avg_recovery =
             Stat.mean (List.map (fun r -> r.Runner.recovery_delay) results);
         })

let partial_deployment = Phi.partial_deployment_tier1

let partial_deployment_dynamic ?pool ?(instances = 10) ?(seed = 1)
    ?(mrai_base = 30.) ~max_tier topo =
  let tiers = Tiers.classify topo in
  grid ?pool ~instances ~seed ~scenario:Scenario.single_link
    ~arms:(List.init (max_tier + 1) Fun.id) topo (fun k ~seed spec ->
      transient_count
        (Runner.run_engine ~seed ~mrai_base
           (Hybrid_net.engine ~deployed:(fun v -> tiers.(v) <= k) ())
           topo spec))
  |> List.map (fun (k, cs) -> (k, avg_int instances cs))

let ablation_mrai ?pool ?(instances = 10) ?(seed = 1) ~values topo =
  grid ?pool ~instances ~seed ~scenario:Scenario.single_link
    ~arms:(value_arms values) topo (fun ((_, mrai_base), protocol) ~seed spec ->
      Runner.run ~seed ~mrai_base protocol topo spec)
  |> by_value values
  |> List.map (fun (mrai_base, rows) ->
         ( mrai_base,
           List.map
             (fun (protocol, results) ->
               let avg f = Stat.mean (List.map f results) in
               ( protocol,
                 avg (fun r -> float_of_int r.Runner.transient_count),
                 avg (fun r -> r.Runner.convergence_delay) ))
             rows ))

let ablation_stamp_variants ?pool ?(instances = 15) ?(seed = 1) topo =
  let variants =
    [
      ("baseline (lock-only blue, random colouring)", Stamp_engine.default);
      ( "spread unlocked blue to providers",
        Stamp_engine.make ~spread_unlocked_blue:true () );
      ( "intelligent locked-blue colouring",
        Stamp_engine.make ~strategy:(Coloring.Intelligent { samples = 30 }) ()
      );
    ]
  in
  grid ?pool ~instances ~seed ~scenario:Scenario.single_link ~arms:variants
    topo (fun (_, engine) ~seed spec ->
      transient_count (Runner.run_engine ~seed engine topo spec))
  |> List.map (fun ((label, _), cs) -> (label, avg_int instances cs))

let ablation_probe_interval ?pool ?(instances = 10) ?(seed = 1) ~values topo =
  grid ?pool ~instances ~seed ~scenario:Scenario.single_link ~arms:values topo
    (fun interval ~seed spec ->
      transient_count (Runner.run ~seed ~interval Runner.Bgp topo spec))
  |> List.map (fun (interval, cs) -> (interval, avg_int instances cs))

let ablation_detection ?pool ?(instances = 10) ?(seed = 1) ~values topo =
  grid ?pool ~instances ~seed ~scenario:Scenario.single_link
    ~arms:(value_arms values) topo
    (fun ((_, detect_delay), protocol) ~seed spec ->
      transient_count (Runner.run ~seed ~detect_delay protocol topo spec))
  |> by_value values
  |> List.map (fun (detect_delay, rows) ->
         ( detect_delay,
           List.map
             (fun (protocol, cs) -> (protocol, avg_int instances cs))
             rows ))

let motivation_loss_composition ?pool ?(instances = 15) ?(seed = 1) topo =
  grid ?pool ~instances ~seed ~scenario:Scenario.single_link
    ~arms:Runner.all_protocols topo (fun protocol ~seed spec ->
      Runner.run_traffic ~seed protocol topo spec)
  |> List.map (fun (protocol, summaries) ->
         let total f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
         let loss = total (fun s -> s.Traffic.loss_events)
         and loops = total (fun s -> s.Traffic.loop_events) in
         let share =
           if loss = 0 then nan else float_of_int loops /. float_of_int loss
         in
         (protocol, share))

(* --- churn sweeps ------------------------------------------------------ *)

type churn_row = {
  row_protocol : Runner.protocol;
  instance : int;
  job_seed : int;
  outcome : (Runner.result, string) result;
}

type churn_summary = {
  protocol : Runner.protocol;
  completed : int;
  crashed : int;
  converged : int;
  event_budget_exhausted : int;
  time_budget_exhausted : int;
  avg_transients : float;
  avg_messages_event : float;
}

let churn_sweep ?pool ?(instances = 10) ?(seed = 1) ?(mrai_base = 30.)
    ?(interval = 0.02) ?(budget = Runner.default_budget) ~scenario topo =
  (* a crashing job becomes an [Error] row: churn workloads deliberately
     stress-test the engines, and one bad instance must not abort the
     sweep *)
  let per_protocol =
    grid ?pool ~instances ~seed ~scenario ~arms:Runner.all_protocols topo
      (fun protocol ~seed spec ->
        match
          Runner.run ~seed ~mrai_base ~interval ~budget protocol topo spec
        with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e))
  in
  let rows =
    List.concat_map
      (fun (protocol, outcomes) ->
        List.mapi
          (fun i outcome ->
            {
              row_protocol = protocol;
              instance = i;
              job_seed = seed + i;
              outcome;
            })
          outcomes)
      per_protocol
  in
  let summaries =
    List.map
      (fun (protocol, outcomes) ->
        let ok = List.filter_map Result.to_option outcomes in
        let count v =
          List.length
            (List.filter
               (fun (r : Runner.result) -> Sim.equal_verdict r.verdict v)
               ok)
        in
        let favg f =
          if ok = [] then nan else Stat.mean (List.map f ok)
        in
        {
          protocol;
          completed = List.length ok;
          crashed = List.length outcomes - List.length ok;
          converged = count Sim.Converged;
          event_budget_exhausted = count Sim.Event_budget_exhausted;
          time_budget_exhausted = count Sim.Time_budget_exhausted;
          avg_transients =
            favg (fun (r : Runner.result) ->
                float_of_int r.Runner.transient_count);
          avg_messages_event =
            favg (fun (r : Runner.result) ->
                float_of_int r.Runner.messages_event);
        })
      per_protocol
  in
  (rows, summaries)

let ablation_topology ?pool ?(instances = 8) ?(seed = 1) ~n () =
  let base = Topo_gen.default_params ~seed ~n () in
  let variants =
    [
      ("default", base);
      ( "sparse multi-homing",
        { base with Topo_gen.stub_extra_provider_prob = 0.15 } );
      ( "dense multi-homing",
        { base with Topo_gen.stub_extra_provider_prob = 0.7 } );
      ("no mid-tier peering", { base with Topo_gen.peers_per_mid = 0. });
      ("heavy peering", { base with Topo_gen.peers_per_mid = 5. });
    ]
  in
  List.map
    (fun (label, params) ->
      let topo = Topo_gen.generate params in
      ( label,
        failure_bars ?pool ~instances ~seed ~scenario:Scenario.single_link topo
      ))
    variants

(* --- tracing overhead --------------------------------------------------- *)

type trace_overhead_result = {
  baseline_s : float;
  null_s : float;
  memory_s : float;
  traced_events : int;
  identical : bool;
}

let trace_overhead ?(instances = 10) ?(seed = 1) ?(mrai_base = 30.)
    ?(interval = 0.02) topo =
  (* deliberately sequential, no [?pool]: memory sinks are single-domain
     mutable state, and the quantity of interest is relative per-core cost.
     A pass's time is the sum of its runs' CPU times. *)
  let pass run =
    let rows =
      grid ~instances ~seed ~scenario:Scenario.single_link
        ~arms:Runner.all_protocols topo (fun p ~seed spec ->
          let t0 = Sys.time () in
          let r = run p ~seed spec in
          (Sys.time () -. t0, r))
      |> List.concat_map snd
    in
    (List.fold_left (fun acc (dt, _) -> acc +. dt) 0. rows, List.map snd rows)
  in
  (* the whole record minus the timeline (absent by construction on the
     baseline/null passes, present on the memory pass) *)
  let key (r : Runner.result) = { r with timeline = None } in
  let baseline_s, base =
    pass (fun p ~seed spec ->
        Runner.run ~seed ~mrai_base ~interval ~validate:`Off p topo spec)
  in
  let null_s, nulls =
    pass (fun p ~seed spec ->
        Runner.run ~seed ~mrai_base ~interval ~validate:`Off ~trace:Trace.null
          p topo spec)
  in
  let traced = ref 0 in
  let memory_s, mems =
    pass (fun p ~seed spec ->
        let trace = Trace.memory () in
        let r =
          Runner.run ~seed ~mrai_base ~interval ~validate:`Off ~trace p topo
            spec
        in
        traced := !traced + Trace.recorded trace;
        r)
  in
  let identical =
    List.for_all2 (fun a b -> key a = key b) base nulls
    && List.for_all2 (fun a b -> key a = key b) base mems
  in
  { baseline_s; null_s; memory_s; traced_events = !traced; identical }
