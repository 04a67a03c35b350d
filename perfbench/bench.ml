(* Simulator benchmark: runs every registered engine over one workload and
   reports end-to-end throughput (untraced pass) or a per-layer split built
   from spans around the layers' public calls (traced pass).

   Modes (all print one JSON object as the last line of stdout):
     setup   --workload W
     pass    --workload W --seed S --seconds T
     traced  --workload W --seed S --spans FILE
     record  --workload W --seed S

   Run from the root of a source checkout: the reference digests are read
   from perfbench/ref and the fig2 bars from BENCH_fig2.json.
   perfbench/run.py drives these, one process per pass, so that
   [Gc.top_heap_words] is never inherited from an earlier pass. *)

let now () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9
let since t0 = seconds_between t0 (now ())

(* The host's speed wanders by tens of percent within seconds (see
   WORKLOADS.md). This kernel allocates and hashes as the simulator does,
   and slows down with it. So end-to-end times are given on a reference
   host: each measured time is scaled by [reference_kernel_s] over the
   kernel's time around it (the mean of the kernel runs just before and
   just after). [reference_kernel_s] is about the kernel's time on an
   unloaded core of a 2 GHz x86-64 host. *)
let reference_kernel_s = 0.008

let kernel () =
  let h = Hashtbl.create 16 in
  let acc = ref [] in
  for i = 0 to 40_000 do
    Hashtbl.replace h (i * 7919 land 4095) (i, [ i; i + 1 ]);
    if i land 7 = 0 then acc := (i, float_of_int i) :: !acc
  done;
  let a = Array.of_list !acc in
  Array.sort compare a;
  Hashtbl.length h + Array.length a

(* The untimed full collection first finishes the major-GC work the
   measured job left behind, so the kernel's time does not depend on the
   program under test. *)
let kernel_s () =
  Gc.full_major ();
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()));
  since t0

(* Times [f] between two kernel runs; the first comes from the previous
   call, so back-to-back calls share them. Returns the result, the measured
   time and the kernel time around it. *)
let kernel_timer () =
  let before = ref (kernel_s ()) in
  fun f ->
    let t0 = now () in
    let x = f () in
    let dt = since t0 in
    let after = kernel_s () in
    let k = (!before +. after) /. 2. in
    before := after;
    (x, dt, k)

let on_reference_host dt k = dt *. reference_kernel_s /. k

(* Words allocated so far, minor and direct-major: probe status arrays and
   the engines' per-AS tables are too large for the minor heap. The runtime
   books promotions at collection time, so a span's count can be off by
   what a collection inside it promoted; counts repeat exactly for the same
   program and inputs. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* --- workloads ---------------------------------------------------------- *)

type workload = {
  name : string;
  n : int;
  specs : int;
      (** scenarios sampled in set-up: every engine on each of them makes
          one cycle of the untraced pass, and the traced pass's runs *)
  reps : int;  (** set-up repetitions; the median is reported *)
  scenario : Random.State.t -> Topology.t -> Scenario.spec;
}

(* Why these three, and their sizes: see perfbench/WORKLOADS.md. *)
let workloads =
  [
    {
      name = "fig2";
      n = 1000;
      specs = 20;
      reps = 15;
      scenario = Scenario.single_link;
    };
    {
      name = "coldstart";
      n = 8000;
      specs = 4;
      reps = 5;
      scenario =
        (fun st topo -> { (Scenario.single_link st topo) with events = [] });
    };
    {
      name = "churn";
      n = 1000;
      specs = 5;
      reps = 15;
      scenario = Scenario.churn ~rate:0.05 ~duration:600.;
    };
  ]

(* The runs replicate Experiment's sweeps: MRAI 30 s, 20 ms probe interval,
   run seed = workload seed + scenario index. The AS graph and the scenarios
   are drawn with [instance_seed] whatever the workload seed, as in the
   paper, which measures one AS graph: drawing them from the workload seed
   moves a run's work by more than any bound a change could be held to
   (see WORKLOADS.md). At workload seed 1, fig2 is BENCH_fig2.json's
   configuration. *)
let mrai_base = 30.
let interval = 0.02
let instance_seed = 1

type inputs = {
  topo : Topology.t;
  specs : Scenario.spec array;
  topo_gen_s : float;
}

let setup w =
  let t0 = now () in
  let topo =
    Topo_gen.generate (Topo_gen.default_params ~seed:instance_seed ~n:w.n ())
  in
  let topo_gen_s = since t0 in
  let st = Random.State.make [| instance_seed |] in
  let specs = Array.init w.specs (fun _ -> w.scenario st topo) in
  { topo; specs; topo_gen_s }

(* --- engines ------------------------------------------------------------ *)

(* Registry name -> metric slug. An executable that never references the
   engine adapters sees an empty registry (they self-register when linked),
   so the benchmark refuses to time anything unless all five are there. *)
let slugs =
  [
    ("BGP", "bgp");
    ("R-BGP without RCI", "rbgp_norci");
    ("R-BGP", "rbgp");
    ("STAMP", "stamp");
    ("STAMP-BGP hybrid (full deployment)", "hybrid");
  ]

let engines () =
  let registered = Engine.Registry.all () in
  let names = List.map fst registered in
  List.iter
    (fun (name, _) ->
      if not (List.mem name names) then
        failwith
          (Printf.sprintf "engine %S is not registered (registry: [%s])" name
             (String.concat "; " names)))
    slugs;
  List.map
    (fun (name, m) ->
      match List.assoc_opt name slugs with
      | Some slug -> (slug, m)
      | None ->
        failwith
          (Printf.sprintf "registered engine %S has no metric slug" name))
    registered

(* Scenario-major order: a slowdown of the host lands on several engines'
   runs rather than on one engine's. *)
let jobs specs engines =
  Array.of_list
    (List.concat
       (List.init (Array.length specs) (fun i ->
            List.map (fun (slug, m) -> (i, slug, m)) engines)))

let run_job inp ~seed (i, _, m) =
  Runner.run_engine ~seed:(seed + i) ~mrai_base ~interval m inp.topo
    inp.specs.(i)

(* --- correctness -------------------------------------------------------- *)

(* Everything a run decides except probe work (checkpoints), the timeline
   and the diagnostics; floats in hex so equality is exact. *)
let digest (r : Runner.result) =
  let c = r.counters in
  Printf.sprintf
    "transient=%d broken=%d conv=%h recov=%h msg_init=%d msg_event=%d \
     ann=%d wd=%d mrai=%d lost=%d verdict=%s"
    r.transient_count r.broken_after r.convergence_delay r.recovery_delay
    r.messages_initial r.messages_event c.announcements c.withdrawals
    c.mrai_deferrals c.lost_to_resets
    (Sim.verdict_name r.verdict)

(* One file per workload, lines "<seed> <scenario index> <slug> <digest>". *)
let reference_path w = Printf.sprintf "perfbench/ref/%s.txt" w.name

let read_reference w =
  let path = reference_path w in
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           if line = "" then None
           else
             Scanf.sscanf line "%d %d %s %[^\n]" (fun seed i slug d ->
                 Some ((seed, i, slug), d)))

(* The seed whose digests anchor the seed-independent checks. *)
let anchor_seed = 1

type reference = {
  digests : (int * int * string, string) Hashtbl.t;
  recorded : bool;  (** the run seed has digests of its own *)
}

let load_reference w ~seed =
  let digests = Hashtbl.create 1024 in
  List.iter (fun (k, d) -> Hashtbl.replace digests k d) (read_reference w);
  let recorded = Hashtbl.fold (fun (s, _, _) _ b -> b || s = seed) digests false in
  { digests; recorded }

let broken_of_digest d = Scanf.sscanf d "transient=%_d broken=%d" Fun.id

let errors = ref []
let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

(* Engines whose end state does not depend on the run seed: path-vector
   routing under Gao-Rexford policies has a unique stable state, and for
   these the run seed moves only message timing. STAMP's colouring is drawn
   from the run seed, so its end state can differ by seed. *)
let seed_free_end_state = [ "bgp"; "rbgp_norci"; "rbgp" ]

(* At a recorded seed the digest must equal the stored one. At any other
   seed: counters are non-negative and sum to the run's messages (both hold
   by construction today, see WORKLOADS.md), the run converged, and for
   [seed_free_end_state] engines the number of ASes without a route at the
   end equals the anchor seed's. *)
let check_result reference ~seed (i, slug, _) (r : Runner.result) =
  if reference.recorded then (
    let got = digest r in
    match Hashtbl.find_opt reference.digests (seed, i, slug) with
    | Some want when want = got -> ()
    | Some want ->
      error "seed %d scenario %d %s: digest %s, reference %s" seed i slug got
        want
    | None -> error "seed %d scenario %d %s: not in the reference" seed i slug)
  else begin
    let c = r.counters in
    if not (Counters.non_negative c) then
      error "scenario %d %s: negative counter" i slug;
    if Counters.messages c <> r.messages_initial + r.messages_event then
      error "scenario %d %s: %d announcements + withdrawals, %d messages" i
        slug (Counters.messages c)
        (r.messages_initial + r.messages_event);
    if not (Sim.equal_verdict r.verdict Sim.Converged) then
      error "scenario %d %s: verdict %s" i slug (Sim.verdict_name r.verdict);
    match Hashtbl.find_opt reference.digests (anchor_seed, i, slug) with
    | _ when not (List.mem slug seed_free_end_state) -> ()
    | Some d when broken_of_digest d <> r.broken_after ->
      error "scenario %d %s: %d ASes without a route at the end, %d at seed %d"
        i slug r.broken_after (broken_of_digest d) anchor_seed
    | Some _ -> ()
    | None -> error "scenario %d %s: not in the reference" i slug
  end

(* The raw text of the fig2 target's "bars" array, and the run parameters,
   in a BENCH_fig2.json-style snapshot. *)
let fig2_snapshot = "BENCH_fig2.json"

let read_fig2_snapshot () =
  let path = fig2_snapshot in
  let s = In_channel.with_open_text path In_channel.input_all in
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then failwith (path ^ ": no " ^ sub)
      else if String.sub s i n = sub then i + n
      else go (i + 1)
    in
    go i
  in
  let number key =
    let i = find_from 0 (Printf.sprintf "%S: " key) in
    let j = ref i in
    while !j < String.length s && (s.[!j] = '.' || (s.[!j] >= '0' && s.[!j] <= '9')) do
      incr j
    done;
    float_of_string (String.sub s i (!j - i))
  in
  let start = find_from (find_from 0 "\"target\": \"fig2\"") "\"bars\": " in
  let rec close i depth =
    match s.[i] with
    | '[' -> close (i + 1) (depth + 1)
    | ']' when depth = 1 -> i + 1
    | ']' -> close (i + 1) (depth - 1)
    | _ -> close (i + 1) depth
  in
  let bars = String.sub s start (close start 0 - start) in
  (number "n", number "instances", number "seed", number "mrai", bars)

(* At the snapshot's configuration (fig2 at its n, seed and MRAI), its
   instance count and bars. *)
let fig2_config w ~seed =
  if w.name <> "fig2" then None
  else
    let n, instances, snap_seed, mrai, bars = read_fig2_snapshot () in
    if int_of_float n = w.n && int_of_float snap_seed = seed && mrai = mrai_base
    then Some (int_of_float instances, bars)
    else None

(* --- untraced pass ------------------------------------------------------ *)

let median xs = Stat.percentile 50. xs

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* At the snapshot's configuration the four paper bars, computed from the
   pass's runs and the runs of the snapshot's further instances, must equal
   the snapshot byte for byte. The further runs are checked, not timed. *)
let check_fig2_bars w ~seed ~reference inp engines results =
  match fig2_config w ~seed with
  | None -> false
  | Some (instances, want) ->
    let st = Random.State.make [| instance_seed |] in
    let specs = Array.init instances (fun _ -> w.scenario st inp.topo) in
    let inp = { inp with specs } in
    let rows =
      List.map
        (fun protocol ->
          let slug = List.assoc (Runner.protocol_name protocol) slugs in
          let m = List.assoc slug engines in
          let counts =
            List.init instances (fun i ->
                let r =
                  match Hashtbl.find_opt results (i, slug) with
                  | Some r -> r
                  | None ->
                    let r = run_job inp ~seed (i, slug, m) in
                    check_result reference ~seed (i, slug, m) r;
                    r
                in
                float_of_int r.Runner.transient_count)
          in
          (protocol, Stat.summarize counts))
        Runner.all_protocols
    in
    let got = Report.bars_stats_to_json rows in
    if got <> want then
      error "fig2 bars %s, %s has %s" got fig2_snapshot want;
    true

(* One whole cycle, every scenario on every engine, then the jobs again in
   the same order until [seconds] have passed, so the pass measures for
   about [seconds] however long a cycle is. A job's time is the median of
   its repeats, on the reference host. Every repeat must reproduce the
   first one's digest. *)
let pass w ~seed ~seconds =
  let engines = engines () in
  let inp = setup w in
  let reference = load_reference w ~seed in
  let jobs = jobs inp.specs engines in
  let times = Array.make (Array.length jobs) [] in
  let first = Array.make (Array.length jobs) None in
  let job_failed = Array.make (Array.length jobs) false in
  let results = Hashtbl.create 64 in
  let kernels = Hashtbl.create 8 in
  let attempted = ref 0 and failed = ref 0 in
  let timed = kernel_timer () in
  let t_start = now () in
  while !attempted < Array.length jobs || since t_start < seconds do
    let k = !attempted mod Array.length jobs in
    let ((i, slug, _) as job) = jobs.(k) in
    incr attempted;
    match timed (fun () -> run_job inp ~seed job) with
    | r, dt, kernel -> (
      Hashtbl.add kernels slug kernel;
      if Sim.equal_verdict r.verdict Sim.Converged then
        times.(k) <- (on_reference_host dt kernel, dt) :: times.(k)
      else begin
        incr failed;
        job_failed.(k) <- true
      end;
      match first.(k) with
      | None ->
        first.(k) <- Some (digest r);
        check_result reference ~seed job r;
        Hashtbl.replace results (i, slug) r
      | Some d ->
        if d <> digest r then
          error "scenario %d %s: repeat gave %s, first run %s" i slug
            (digest r) d)
    | exception e ->
      incr failed;
      job_failed.(k) <- true;
      error "scenario %d %s raised %s" i slug (Printexc.to_string e)
  done;
  let elapsed = since t_start in
  let peak_heap_mb = peak_heap_mb () in
  let bars_checked = check_fig2_bars w ~seed ~reference inp engines results in
  (* failed jobs stay out of the latency sample *)
  let ok =
    List.filteri (fun k _ -> not job_failed.(k)) (Array.to_list times)
  in
  let job_ms pick = List.map (fun ts -> 1000. *. median (List.map pick ts)) ok in
  let ref_ms = job_ms fst and raw_ms = job_ms snd in
  let n = List.length ok in
  let per_s ms = 1000. *. float_of_int n /. List.fold_left ( +. ) 0. ms in
  (* p90 only when at least ten jobs lie beyond it *)
  let p90 =
    if n - int_of_float (ceil (0.9 *. float_of_int n)) >= 10 then
      Printf.sprintf "%.17g" (Stat.percentile 90. ref_ms)
    else "null"
  in
  (* the kernel's median time after each engine's jobs: equal across
     engines if the kernel measures the host and not the program *)
  let kernel_ms =
    List.map
      (fun (slug, _) ->
        Printf.sprintf "%S: %.4f" slug
          (1000. *. median (Hashtbl.find_all kernels slug)))
      engines
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"cycles\": %.17g, \
     \"elapsed_s\": %.17g, \"runs_per_s\": %.17g, \"run_ms_p50\": %.17g, \
     \"run_ms_p90\": %s, \"latency_samples\": %d, \"peak_heap_mb\": %.17g, \
     \"host_runs_per_s\": %.17g, \"host_run_ms_p50\": %.17g, \
     \"kernel_ms_p50\": {%s}, \"reference\": %b, \"fig2_bars_checked\": %b}\n"
    (!errors = []) !attempted !failed
    (float_of_int !attempted /. float_of_int (Array.length jobs))
    elapsed (per_s ref_ms)
    (median ref_ms) p90 n peak_heap_mb (per_s raw_ms) (median raw_ms)
    (String.concat ", " kernel_ms) reference.recorded bars_checked

(* --- traced pass -------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (** 0 for a run's root span *)
  run : int;
  engine : string;
  name : string;
  t0 : int64;
  t1 : int64;
  words : float;
}

let spans = ref []
let next_span = ref 0

(* Per-engine counts the spans do not carry; layer times and words are
   folded from the spans at the end of the pass. *)
type counts = {
  mutable converge_events : int;
  mutable monitor_events : int;
  mutable probe_useful : int;
  mutable updates : int;
  mutable mrai_deferrals : int;
  mutable lost_to_resets : int;
}

let new_counts () =
  {
    converge_events = 0;
    monitor_events = 0;
    probe_useful = 0;
    updates = 0;
    mrai_deferrals = 0;
    lost_to_resets = 0;
  }

let gc_minor_words = ref 0.
let gc_minor_collections = ref 0
let gc_major_collections = ref 0

(* Time [f] as a span. Layer-level spans also add their Gc.quick_stat
   deltas to the gc.* totals. *)
let span ~run ~engine ~parent ?(gc = false) name f =
  incr next_span;
  let id = !next_span in
  let q0 = if gc then Some (Gc.quick_stat ()) else None in
  let w0 = allocated_words () in
  let t0 = now () in
  let x = f id in
  let t1 = now () in
  let words = allocated_words () -. w0 in
  (match q0 with
  | Some q0 ->
    let q1 = Gc.quick_stat () in
    gc_minor_words := !gc_minor_words +. (q1.minor_words -. q0.minor_words);
    gc_minor_collections :=
      !gc_minor_collections + (q1.minor_collections - q0.minor_collections);
    gc_major_collections :=
      !gc_major_collections + (q1.major_collections - q0.major_collections)
  | None -> ());
  spans := { id; parent; run; engine; name; t0; t1; words } :: !spans;
  x

(* Runner's scenario-event injection, from the engine's public calls. *)
let rec inject sim net = function
  | Scenario.Fail_link (u, v) -> Engine.fail_link net u v
  | Scenario.Fail_node v -> Engine.fail_node net v
  | Scenario.Deny_export (u, v) -> Engine.deny_export net u v
  | Scenario.Recover_link (u, v) -> Engine.recover_link net u v
  | Scenario.Recover_node v -> Engine.recover_node net v
  | Scenario.Allow_export (u, v) -> Engine.allow_export net u v
  | Scenario.At (dt, e) -> Sim.schedule sim ~delay:dt (fun _ -> inject sim net e)

let count_not_delivered statuses =
  Array.fold_left
    (fun acc s -> if Fwd_walk.equal_status s Fwd_walk.Delivered then acc else acc + 1)
    0 statuses

let same_statuses a b =
  Array.length a = Array.length b
  && (let rec go i = i >= Array.length a || (Fwd_walk.equal_status a.(i) b.(i) && go (i + 1)) in
      go 0)

(* Runner.run_engine (validate `Warn, null trace, default budget) replayed
   from public calls, with a span around each layer. *)
let replay ~run ~counts inp ~seed (i, slug, m) =
  let spec = inp.specs.(i) in
  let seed = seed + i in
  let budget = Runner.default_budget in
  let root = ref 0 in
  let layer name f =
    span ~run ~engine:slug ~parent:!root ~gc:true name (fun _ -> f ())
  in
  let previous = ref None in
  let probe ~parent net =
    let statuses =
      span ~run ~engine:slug ~parent "probe" (fun _ -> Engine.probe net)
    in
    (match !previous with
    | Some p when not (same_statuses p statuses) ->
      counts.probe_useful <- counts.probe_useful + 1
    | _ -> ());
    previous := Some statuses;
    statuses
  in
  let result =
    span ~run ~engine:slug ~parent:0 "run" (fun id ->
        root := id;
        let detect_delay = Option.value spec.detect_delay ~default:0. in
        let report =
          layer "staticcheck" (fun () ->
              let report =
                Staticcheck.analyze ~spec ~mrai_base ~detect_delay inp.topo
              in
              Staticcheck.enforce ~what:"Runner scenario" `Warn report;
              report)
        in
        let sim = Sim.create ~seed () in
        let config =
          { Engine.default_config with seed; mrai_base; detect_delay }
        in
        let net =
          layer "engine" (fun () ->
              Engine.create m sim inp.topo ~dest:spec.dest config)
        in
        let initial_verdict =
          layer "converge" (fun () ->
              Engine.start net;
              Sim.run_guarded sim ~until:budget.max_vtime
                ~max_events:budget.max_events)
        in
        counts.converge_events <-
          counts.converge_events + Sim.events_processed sim;
        let messages_initial = Engine.message_count net in
        let event_time = Sim.now sim in
        let r =
          match initial_verdict with
          | Sim.Event_budget_exhausted | Sim.Time_budget_exhausted ->
            let final = probe ~parent:id net in
            {
              Runner.transient_count = 0;
              broken_after = count_not_delivered final;
              convergence_delay = 0.;
              recovery_delay = 0.;
              messages_initial;
              messages_event = 0;
              checkpoints = 1;
              counters = Counters.snapshot (Engine.counters net);
              verdict = initial_verdict;
              diagnostics = [];
              certificate = None;
              timeline = None;
            }
          | Sim.Converged ->
            layer "inject" (fun () -> List.iter (inject sim net) spec.events);
            let before = Sim.events_processed sim in
            let outcome, verdict =
              span ~run ~engine:slug ~parent:id ~gc:true "monitor" (fun mid ->
                  Transient.run_guarded sim ~interval
                    ~max_events:(max 1 (budget.max_events - before))
                    ~max_vtime:(event_time +. budget.max_vtime)
                    ~probe:(fun () -> probe ~parent:mid net)
                    ())
            in
            counts.monitor_events <-
              counts.monitor_events + Sim.events_processed sim - before;
            {
              Runner.transient_count = Transient.transient_count outcome;
              broken_after = count_not_delivered outcome.final;
              convergence_delay =
                Float.max 0. (Engine.last_change net -. event_time);
              recovery_delay =
                Float.max 0. (outcome.last_status_change -. event_time);
              messages_initial;
              messages_event = Engine.message_count net - messages_initial;
              checkpoints = outcome.checkpoints;
              counters = Counters.snapshot (Engine.counters net);
              verdict;
              diagnostics = [];
              certificate = None;
              timeline = None;
            }
        in
        {
          r with
          diagnostics = report.Staticcheck.diagnostics;
          certificate = Some report.Staticcheck.certificate;
        })
  in
  let c = result.counters in
  counts.updates <- counts.updates + Counters.messages c;
  counts.mrai_deferrals <- counts.mrai_deferrals + c.mrai_deferrals;
  counts.lost_to_resets <- counts.lost_to_resets + c.lost_to_resets;
  result

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"run\": %d, \"engine\": %S, \
             \"name\": %S, \"start_ns\": %Ld, \"end_ns\": %Ld, \"words\": %.17g}\n"
            s.id s.parent s.run s.engine s.name s.t0 s.t1 s.words)
        (List.rev !spans))

type total = { mutable s : float; mutable w : float; mutable calls : int }

(* One fold over the spans: per (engine, span name) the seconds, words and
   calls; probe time under a monitor span also counts as "monitor.probe";
   and the least share of a run's root span covered by its direct
   children. *)
let fold_spans () =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.id sp) !spans;
  let totals = Hashtbl.create 64 and covered = Hashtbl.create 256 in
  let add engine name d words =
    let t =
      match Hashtbl.find_opt totals (engine, name) with
      | Some t -> t
      | None ->
        let t = { s = 0.; w = 0.; calls = 0 } in
        Hashtbl.add totals (engine, name) t;
        t
    in
    t.s <- t.s +. d;
    t.w <- t.w +. words;
    t.calls <- t.calls + 1
  in
  List.iter
    (fun sp ->
      let d = seconds_between sp.t0 sp.t1 in
      add sp.engine sp.name d sp.words;
      if sp.parent <> 0 then begin
        let p = Hashtbl.find by_id sp.parent in
        if p.parent = 0 then
          Hashtbl.replace covered p.id
            (d +. Option.value (Hashtbl.find_opt covered p.id) ~default:0.);
        if p.name = "monitor" then add sp.engine "monitor.probe" d 0.
      end)
    !spans;
  let coverage =
    Hashtbl.fold
      (fun id sp acc ->
        if sp.parent <> 0 then acc
        else
          let c = Option.value (Hashtbl.find_opt covered id) ~default:0. in
          Float.min acc (c /. seconds_between sp.t0 sp.t1))
      by_id 1.
  in
  let get engine name =
    Option.value
      (Hashtbl.find_opt totals (engine, name))
      ~default:{ s = 0.; w = 0.; calls = 0 }
  in
  (get, coverage)

let shares_layers = [ "staticcheck"; "engine"; "converge"; "inject" ]

(* Each layer's share of an engine's run time; monitor shows its self
   time. *)
let print_shares get engines =
  Printf.printf "%-11s %9s" "engine" "run_s";
  List.iter (Printf.printf " %11s") (shares_layers @ [ "monitor_self"; "probe" ]);
  print_newline ();
  List.iter
    (fun (slug, _) ->
      let run_s = (get slug "run").s in
      let pct x = Printf.printf " %10.1f%%" (100. *. x /. run_s) in
      Printf.printf "%-11s %9.3f" slug run_s;
      List.iter (fun l -> pct (get slug l).s) shares_layers;
      pct ((get slug "monitor").s -. (get slug "monitor.probe").s);
      pct (get slug "probe").s;
      print_newline ())
    engines

let traced w ~seed ~spans_path =
  let engines = engines () in
  let inp = setup w in
  let reference = load_reference w ~seed in
  let jobs = jobs inp.specs engines in
  let counts = List.map (fun (slug, _) -> (slug, new_counts ())) engines in
  let runner_s = ref 0. and replay_s = ref 0. in
  let failed = ref 0 in
  Array.iteri
    (fun k ((i, slug, _) as job) ->
      let timed f =
        let t0 = now () in
        let x = f () in
        (x, since t0)
      in
      let run_runner () =
        let r, s = timed (fun () -> run_job inp ~seed job) in
        runner_s := !runner_s +. s;
        r
      in
      let run_replay () =
        let r, s =
          timed (fun () ->
              replay ~run:k ~counts:(List.assoc slug counts) inp ~seed job)
        in
        replay_s := !replay_s +. s;
        r
      in
      (* alternate which goes first, so neither always inherits a warm heap *)
      match
        if k mod 2 = 0 then
          let r = run_runner () in
          (r, run_replay ())
        else
          let p = run_replay () in
          (run_runner (), p)
      with
      | r, p ->
        if r <> p then
          error "scenario %d %s: replay %s (checkpoints %d), Runner %s \
                 (checkpoints %d)"
            i slug (digest p) p.checkpoints (digest r) r.checkpoints;
        if not (Sim.equal_verdict r.verdict Sim.Converged) then incr failed;
        check_result reference ~seed job r
      | exception e ->
        incr failed;
        error "scenario %d %s raised %s" i slug (Printexc.to_string e))
    jobs;
  write_spans spans_path;
  let get, coverage = fold_spans () in
  print_shares get engines;
  let metrics = ref [] in
  let metric name unit value = metrics := (name, unit, value) :: !metrics in
  List.iter
    (fun (slug, c) ->
      let get = get slug in
      let runs = float_of_int (get "run").calls in
      let m name unit v = metric (name ^ "." ^ slug) unit v in
      let per_run name = (get name).s /. runs in
      let probe = get "probe" and converge = get "converge" in
      let events = float_of_int c.converge_events in
      m "staticcheck.s" "s" (per_run "staticcheck");
      m "engine.create_s" "s" (per_run "engine");
      m "engine.create_mw" "Mword" ((get "engine").w /. runs /. 1e6);
      m "converge.s" "s" (per_run "converge");
      m "converge.events" "count" (events /. runs);
      m "converge.ns_per_event" "ns" (converge.s *. 1e9 /. events);
      m "converge.words_per_event" "word" (converge.w /. events);
      m "monitor.s" "s" (per_run "monitor");
      m "monitor.self_s" "s" (per_run "monitor" -. per_run "monitor.probe");
      m "monitor.events" "count" (float_of_int c.monitor_events /. runs);
      m "probe.s" "s" (per_run "probe");
      m "probe.calls" "count" (float_of_int probe.calls /. runs);
      m "probe.useful_ratio" "ratio"
        (float_of_int c.probe_useful /. float_of_int probe.calls);
      m "probe.words_per_call" "word" (probe.w /. float_of_int probe.calls);
      m "session.updates" "count" (float_of_int c.updates /. runs);
      m "session.mrai_deferrals" "count" (float_of_int c.mrai_deferrals /. runs);
      m "session.lost_to_resets" "count" (float_of_int c.lost_to_resets /. runs))
    counts;
  let runs_f = float_of_int (Array.length jobs) in
  metric "gc.minor_words" "word" (!gc_minor_words /. runs_f);
  metric "gc.minor_collections" "count"
    (float_of_int !gc_minor_collections /. runs_f);
  metric "gc.major_collections" "count"
    (float_of_int !gc_major_collections /. runs_f);
  (* traced runs_per_s over untraced runs_per_s, on the same jobs *)
  metric "trace.overhead_ratio" "ratio" (!runner_s /. !replay_s);
  metric "trace.coverage_min" "ratio" coverage;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!errors = []) (Array.length jobs) !failed
    (String.concat ", "
       (List.rev_map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
          !metrics))

(* --- set-up and reference recording ------------------------------------- *)

let setup_mode w =
  let timed = kernel_timer () in
  let samples = List.init w.reps (fun _ -> timed (fun () -> setup w)) in
  let setup_s = List.map (fun (_, dt, k) -> on_reference_host dt k) samples in
  let host_s = List.map (fun (_, dt, _) -> dt) samples in
  let gen_s = List.map (fun (i, _, _) -> i.topo_gen_s) samples in
  Printf.printf
    "{\"setup_s\": %.17g, \"host_setup_s\": %.17g, \"topo_gen_s\": %.17g, \
     \"reps\": %d}\n"
    (median setup_s) (median host_s) (median gen_s) w.reps

(* Replaces the seed's lines in the workload's reference file with the
   digests of its runs: the workload's scenarios, or all of the fig2
   snapshot's instances at its configuration. *)
let record w ~seed =
  let engines = engines () in
  let specs =
    match fig2_config w ~seed with
    | Some (instances, _) -> max instances w.specs
    | None -> w.specs
  in
  let inp = setup { w with specs } in
  let fresh =
    Array.to_list (jobs inp.specs engines)
    |> List.map (fun ((i, slug, _) as job) ->
           ((seed, i, slug), digest (run_job inp ~seed job)))
  in
  let kept = List.filter (fun ((s, _, _), _) -> s <> seed) (read_reference w) in
  let lines =
    List.stable_sort
      (fun ((a, _, _), _) ((b, _, _), _) -> compare a b)
      (kept @ fresh)
  in
  let path = reference_path w in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun ((s, i, slug), d) -> Printf.fprintf oc "%d %d %s %s\n" s i slug d)
        lines);
  Printf.printf "{\"wrote\": %S, \"seed\": %d, \"runs\": %d}\n" path seed
    (List.length fresh)

(* --- command line ------------------------------------------------------- *)

let () =
  let usage () =
    prerr_endline
      "usage: bench.exe (setup|pass|traced|record) --workload W [--seed S] \
       [--seconds T] [--spans FILE]";
    exit 2
  in
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, opts =
    match args with mode :: rest -> (mode, rest) | [] -> usage ()
  in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--"
      ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] opts in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let w =
    match List.find_opt (fun (w : workload) -> w.name = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed () = int_of_string (get "seed") in
  (match mode with
  | "setup" -> setup_mode w
  | "pass" -> pass w ~seed:(seed ()) ~seconds:(float_of_string (get "seconds"))
  | "traced" -> traced w ~seed:(seed ()) ~spans_path:(get "spans")
  | "record" -> record w ~seed:(seed ())
  | _ -> usage ());
  List.iter prerr_endline (List.rev !errors);
  if !errors <> [] then exit 1
