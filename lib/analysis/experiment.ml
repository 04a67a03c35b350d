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

(* --- parallel sweep plumbing ------------------------------------------- *)

(* Every sweep below is a flat list of independent jobs, each seeded as
   [seed + instance] exactly like the historical sequential loops, so the
   numbers are bit-identical whether they run inline ([pool] absent),
   on one worker, or on many. *)
let pmap ?pool f xs =
  match pool with
  | None -> List.map f xs
  | Some pool -> Parallel.map pool f xs

(* Split a flat job-result list back into consecutive groups of [k] —
   the inverse of the [List.concat_map] that built the job list. *)
let chunks k xs =
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> invalid_arg "Experiment.chunks: ragged result list"
    | x :: tl -> take (k - 1) (x :: acc) tl
  in
  let rec go = function
    | [] -> []
    | xs ->
      let c, rest = take k [] xs in
      c :: go rest
  in
  go xs

type bars = (Runner.protocol * float) list

let avg_int instances counts =
  float_of_int (List.fold_left ( + ) 0 counts) /. float_of_int instances

let failure_bars ?pool ?(instances = 20) ?(seed = 1) ?(mrai_base = 30.)
    ?(interval = 0.02) ~scenario topo =
  let st = Random.State.make [| seed |] in
  let specs = List.init instances (fun i -> (i, scenario st topo)) in
  let jobs =
    List.concat_map
      (fun protocol -> List.map (fun (i, s) -> (protocol, i, s)) specs)
      Runner.all_protocols
  in
  let counts =
    pmap ?pool
      (fun (protocol, i, spec) ->
        (Runner.run ~seed:(seed + i) ~mrai_base ~interval protocol topo spec)
          .Runner.transient_count)
      jobs
  in
  List.map2
    (fun protocol cs -> (protocol, avg_int instances cs))
    Runner.all_protocols (chunks instances counts)

let failure_bars_stats ?pool ?(instances = 20) ?(seed = 1) ?(mrai_base = 30.)
    ?(interval = 0.02) ~scenario topo =
  let st = Random.State.make [| seed |] in
  let specs = List.init instances (fun i -> (i, scenario st topo)) in
  let jobs =
    List.concat_map
      (fun protocol -> List.map (fun (i, s) -> (protocol, i, s)) specs)
      Runner.all_protocols
  in
  let counts =
    pmap ?pool
      (fun (protocol, i, spec) ->
        float_of_int
          (Runner.run ~seed:(seed + i) ~mrai_base ~interval protocol topo spec)
            .Runner.transient_count)
      jobs
  in
  List.map2
    (fun protocol cs -> (protocol, Stat.summarize cs))
    Runner.all_protocols (chunks instances counts)

let engine_bars ?pool ?(instances = 20) ?(seed = 1) ?(mrai_base = 30.)
    ?(interval = 0.02) ?engines ~scenario topo =
  let engines =
    match engines with
    | Some es -> es
    | None -> List.map snd (Engine.Registry.all ())
  in
  let st = Random.State.make [| seed |] in
  let specs = List.init instances (fun i -> (i, scenario st topo)) in
  let jobs =
    List.concat_map
      (fun engine -> List.map (fun (i, s) -> (engine, i, s)) specs)
      engines
  in
  let counts =
    pmap ?pool
      (fun (engine, i, spec) ->
        (Runner.run_engine ~seed:(seed + i) ~mrai_base ~interval engine topo
           spec)
          .Runner.transient_count)
      jobs
  in
  List.map2
    (fun engine cs ->
      let (module E : Engine.S) = engine in
      (E.name, avg_int instances cs))
    engines (chunks instances counts)

type overhead_result = {
  protocol : Runner.protocol;
  avg_messages_initial : float;
  avg_messages_event : float;
  avg_delay : float;
  avg_recovery : float;
}

let overhead_and_delay ?pool ?(instances = 20) ?(seed = 1) ?(mrai_base = 30.)
    ?(interval = 0.02) topo =
  let st = Random.State.make [| seed |] in
  let specs = List.init instances (fun i -> (i, Scenario.single_link st topo)) in
  let jobs =
    List.concat_map
      (fun protocol -> List.map (fun (i, s) -> (protocol, i, s)) specs)
      Runner.all_protocols
  in
  let results =
    pmap ?pool
      (fun (protocol, i, spec) ->
        Runner.run ~seed:(seed + i) ~mrai_base ~interval protocol topo spec)
      jobs
  in
  List.map2
    (fun protocol results ->
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
    Runner.all_protocols (chunks instances results)

let partial_deployment = Phi.partial_deployment_tier1

let single_link_specs ~instances ~seed topo =
  let st = Random.State.make [| seed |] in
  List.init instances (fun i -> (i, Scenario.single_link st topo))

let partial_deployment_dynamic ?pool ?(instances = 10) ?(seed = 1)
    ?(mrai_base = 30.) ~max_tier topo =
  let specs = single_link_specs ~instances ~seed topo in
  let tiers = Tiers.classify topo in
  let ks = List.init (max_tier + 1) Fun.id in
  let jobs =
    List.concat_map (fun k -> List.map (fun (i, s) -> (k, i, s)) specs) ks
  in
  let counts =
    pmap ?pool
      (fun (k, i, spec) ->
        (Runner.run_engine ~seed:(seed + i) ~mrai_base
           (Hybrid_net.engine ~deployed:(fun v -> tiers.(v) <= k) ())
           topo spec)
          .Runner.transient_count)
      jobs
  in
  List.map2 (fun k cs -> (k, avg_int instances cs)) ks (chunks instances counts)

let ablation_mrai ?pool ?(instances = 10) ?(seed = 1) ~values topo =
  let specs = single_link_specs ~instances ~seed topo in
  let jobs =
    List.concat_map
      (fun mrai_base ->
        List.concat_map
          (fun protocol -> List.map (fun (i, s) -> (mrai_base, protocol, i, s)) specs)
          Runner.all_protocols)
      values
  in
  let results =
    pmap ?pool
      (fun (mrai_base, protocol, i, spec) ->
        Runner.run ~seed:(seed + i) ~mrai_base protocol topo spec)
      jobs
  in
  let n_protocols = List.length Runner.all_protocols in
  List.map2
    (fun mrai_base per_value ->
      let rows =
        List.map2
          (fun protocol results ->
            let avg f = Stat.mean (List.map f results) in
            ( protocol,
              avg (fun r -> float_of_int r.Runner.transient_count),
              avg (fun r -> r.Runner.convergence_delay) ))
          Runner.all_protocols (chunks instances per_value)
      in
      (mrai_base, rows))
    values
    (chunks (n_protocols * instances) results)

let ablation_stamp_variants ?pool ?(instances = 15) ?(seed = 1) topo =
  let specs = single_link_specs ~instances ~seed topo in
  let variants =
    [
      ( "baseline (lock-only blue, random colouring)",
        fun ~seed spec ->
          Runner.run_engine ~seed Stamp_engine.default topo spec );
      ( "spread unlocked blue to providers",
        fun ~seed spec ->
          Runner.run_engine ~seed
            (Stamp_engine.make ~spread_unlocked_blue:true ())
            topo spec );
      ( "intelligent locked-blue colouring",
        fun ~seed spec ->
          Runner.run_engine ~seed
            (Stamp_engine.make
               ~strategy:(Coloring.Intelligent { samples = 30 })
               ())
            topo spec );
    ]
  in
  let jobs =
    List.concat_map
      (fun (_, run) -> List.map (fun (i, s) -> (run, i, s)) specs)
      variants
  in
  let counts =
    pmap ?pool
      (fun (run, i, spec) -> (run ~seed:(seed + i) spec).Runner.transient_count)
      jobs
  in
  List.map2
    (fun (label, _) cs -> (label, avg_int instances cs))
    variants (chunks instances counts)

let ablation_probe_interval ?pool ?(instances = 10) ?(seed = 1) ~values topo =
  let specs = single_link_specs ~instances ~seed topo in
  let jobs =
    List.concat_map
      (fun interval -> List.map (fun (i, s) -> (interval, i, s)) specs)
      values
  in
  let counts =
    pmap ?pool
      (fun (interval, i, spec) ->
        (Runner.run ~seed:(seed + i) ~interval Runner.Bgp topo spec)
          .Runner.transient_count)
      jobs
  in
  List.map2
    (fun interval cs -> (interval, avg_int instances cs))
    values (chunks instances counts)

let ablation_detection ?pool ?(instances = 10) ?(seed = 1) ~values topo =
  let specs = single_link_specs ~instances ~seed topo in
  let jobs =
    List.concat_map
      (fun detect_delay ->
        List.concat_map
          (fun protocol ->
            List.map (fun (i, s) -> (detect_delay, protocol, i, s)) specs)
          Runner.all_protocols)
      values
  in
  let counts =
    pmap ?pool
      (fun (detect_delay, protocol, i, spec) ->
        (Runner.run ~seed:(seed + i) ~detect_delay protocol topo spec)
          .Runner.transient_count)
      jobs
  in
  let n_protocols = List.length Runner.all_protocols in
  List.map2
    (fun detect_delay per_value ->
      let bars =
        List.map2
          (fun protocol cs -> (protocol, avg_int instances cs))
          Runner.all_protocols (chunks instances per_value)
      in
      (detect_delay, bars))
    values
    (chunks (n_protocols * instances) counts)

let motivation_loss_composition ?pool ?(instances = 15) ?(seed = 1) topo =
  let specs = single_link_specs ~instances ~seed topo in
  let jobs =
    List.concat_map
      (fun protocol -> List.map (fun (i, s) -> (protocol, i, s)) specs)
      Runner.all_protocols
  in
  let summaries =
    pmap ?pool
      (fun (protocol, i, spec) ->
        Runner.run_traffic ~seed:(seed + i) protocol topo spec)
      jobs
  in
  List.map2
    (fun protocol summaries ->
      let total f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
      let loss = total (fun s -> s.Traffic.loss_events)
      and loops = total (fun s -> s.Traffic.loop_events) in
      let share =
        if loss = 0 then nan else float_of_int loops /. float_of_int loss
      in
      (protocol, share))
    Runner.all_protocols (chunks instances summaries)

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

(* Like [pmap] but a crashing job becomes an [Error] row: churn workloads
   deliberately stress-test the engines, and one bad instance must not
   abort the sweep. *)
let ptry_map ?pool f xs =
  match pool with
  | None -> List.map (fun x -> match f x with v -> Ok v | exception e -> Error e) xs
  | Some pool -> Parallel.try_map pool f xs

let churn_sweep ?pool ?(instances = 10) ?(seed = 1) ?(mrai_base = 30.)
    ?(interval = 0.02) ?(budget = Runner.default_budget) ~scenario topo =
  let st = Random.State.make [| seed |] in
  let specs = List.init instances (fun i -> (i, scenario st topo)) in
  let jobs =
    List.concat_map
      (fun protocol -> List.map (fun (i, s) -> (protocol, i, s)) specs)
      Runner.all_protocols
  in
  let outcomes =
    ptry_map ?pool
      (fun (protocol, i, spec) ->
        Runner.run ~seed:(seed + i) ~mrai_base ~interval ~budget protocol topo
          spec)
      jobs
  in
  let rows =
    List.map2
      (fun (protocol, i, _) outcome ->
        {
          row_protocol = protocol;
          instance = i;
          job_seed = seed + i;
          outcome = Result.map_error Printexc.to_string outcome;
        })
      jobs outcomes
  in
  let summaries =
    List.map
      (fun protocol ->
        let mine = List.filter (fun r -> r.row_protocol = protocol) rows in
        let ok = List.filter_map (fun r -> Result.to_option r.outcome) mine in
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
          crashed = List.length mine - List.length ok;
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
      Runner.all_protocols
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
  let specs = single_link_specs ~instances ~seed topo in
  let jobs =
    List.concat_map
      (fun protocol -> List.map (fun (i, s) -> (protocol, i, s)) specs)
      Runner.all_protocols
  in
  (* deliberately sequential, no [?pool]: memory sinks are single-domain
     mutable state, and the quantity of interest is relative per-core cost *)
  let pass run =
    let t0 = Sys.time () in
    let results = List.map run jobs in
    (Sys.time () -. t0, results)
  in
  (* the whole record minus the timeline (absent by construction on the
     baseline/null passes, present on the memory pass) *)
  let key (r : Runner.result) = { r with timeline = None } in
  let baseline_s, base =
    pass (fun (p, i, spec) ->
        Runner.run ~seed:(seed + i) ~mrai_base ~interval ~validate:`Off p topo
          spec)
  in
  let null_s, nulls =
    pass (fun (p, i, spec) ->
        Runner.run ~seed:(seed + i) ~mrai_base ~interval ~validate:`Off
          ~trace:Trace.null p topo spec)
  in
  let traced = ref 0 in
  let memory_s, mems =
    pass (fun (p, i, spec) ->
        let trace = Trace.memory () in
        let r =
          Runner.run ~seed:(seed + i) ~mrai_base ~interval ~validate:`Off
            ~trace p topo spec
        in
        traced := !traced + Trace.recorded trace;
        r)
  in
  let identical =
    List.for_all2 (fun a b -> key a = key b) base nulls
    && List.for_all2 (fun a b -> key a = key b) base mems
  in
  { baseline_s; null_s; memory_s; traced_events = !traced; identical }

let preflight ?pool ?(instances = 20) ?(seed = 1) ?mrai_base ?detect_delay
    ~scenario topo =
  let st = Random.State.make [| seed |] in
  let specs = List.init instances (fun _ -> scenario st topo) in
  let reports = Staticcheck.preflight ?pool ?mrai_base ?detect_delay topo specs in
  List.combine specs reports
