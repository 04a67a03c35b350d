(* Tests for the discrete-event simulation kernel. *)

(* --- Event_heap ------------------------------------------------------ *)

(* the earliest (time, payload), removed; [None] when empty *)
let pop_min h =
  if Event_heap.is_empty h then None
  else
    let time = Event_heap.min_time h in
    Some (time, Event_heap.pop h)

let test_heap_ordering () =
  let h = Event_heap.create ~filler:"" in
  Event_heap.push h ~time:3. "c";
  Event_heap.push h ~time:1. "a";
  Event_heap.push h ~time:2. "b";
  let pop () = Option.get (pop_min h) in
  Alcotest.(check (pair (float 0.) string)) "first" (1., "a") (pop ());
  Alcotest.(check (pair (float 0.) string)) "second" (2., "b") (pop ());
  Alcotest.(check (pair (float 0.) string)) "third" (3., "c") (pop ());
  Alcotest.(check bool) "empty" true (pop_min h = None)

let test_heap_fifo_ties () =
  let h = Event_heap.create ~filler:0 in
  for i = 0 to 9 do
    Event_heap.push h ~time:1. i
  done;
  for i = 0 to 9 do
    match pop_min h with
    | Some (_, x) -> Alcotest.(check int) "fifo" i x
    | None -> Alcotest.fail "heap empty"
  done

let test_heap_nan_rejected () =
  let h = Event_heap.create ~filler:() in
  Alcotest.check_raises "nan" (Invalid_argument "Event_heap.push: NaN time")
    (fun () -> Event_heap.push h ~time:Float.nan ())

let test_heap_peek () =
  let h = Event_heap.create ~filler:() in
  Alcotest.check_raises "empty peek"
    (Invalid_argument "Event_heap.min_time: empty heap") (fun () ->
      ignore (Event_heap.min_time h));
  Alcotest.check_raises "empty pop" (Invalid_argument "Event_heap.pop: empty heap")
    (fun () -> Event_heap.pop h);
  Event_heap.push h ~time:5. ();
  Alcotest.(check (float 0.)) "peek" 5. (Event_heap.min_time h);
  Alcotest.(check int) "size" 1 (Event_heap.size h)

(* Popped payloads must not stay reachable through the heap's vacated
   slots: a simulation's delivered events would otherwise pin their
   closures and messages up to the heap's high-water mark. *)
let test_heap_releases_popped () =
  let n = 100 in
  let h = Event_heap.create ~filler:(ref (-1)) in
  let tracked = Weak.create n in
  let[@inline never] push_all () =
    for i = 0 to n - 1 do
      let payload = ref i in
      Weak.set tracked i (Some payload);
      Event_heap.push h ~time:(float_of_int (i * 37 mod n)) payload
    done
  in
  let[@inline never] pop_all () =
    while Option.is_some (pop_min h) do
      ()
    done
  in
  push_all ();
  pop_all ();
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check tracked i then incr alive
  done;
  Alcotest.(check int) "popped payloads still reachable" 0 !alive;
  (* the heap itself is still live here *)
  Alcotest.(check int) "drained" 0 (Event_heap.size h)

(* The same, with the heap still holding entries: the slot a pop vacates
   (between the size and the capacity) must not keep the payload either. *)
let test_heap_releases_popped_interleaved () =
  let n = 100 in
  let h = Event_heap.create ~filler:(ref (-1)) in
  let tracked = Weak.create n in
  let[@inline never] push_all () =
    for i = 0 to n - 1 do
      let payload = ref i in
      Weak.set tracked i (Some payload);
      Event_heap.push h ~time:(float_of_int (i mod 10)) payload
    done
  in
  let[@inline never] pop_half () =
    List.init (n / 2) (fun _ -> !(Event_heap.pop h))
  in
  push_all ();
  let popped = pop_half () in
  Gc.full_major ();
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "popped payload %d collected" i)
        false (Weak.check tracked i))
    popped;
  Alcotest.(check int) "the rest stays queued" (n / 2) (Event_heap.size h);
  Alcotest.(check int) "queued payloads alive" (n / 2)
    (List.length
       (List.filter (Weak.check tracked)
          (List.filter (fun i -> not (List.mem i popped)) (List.init n Fun.id))))

(* Model check: any interleaving of pushes and pops behaves like a list
   kept stably sorted by time — equal times pop in insertion order. Times
   are drawn from a small range so ties are common, and runs of up to 300
   pushes grow the arrays well past their initial capacity of 16. *)
let prop_heap_model =
  Test_support.qtest ~count:200 "heap = stable sort model under push/pop"
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (frequency [ (3, map Option.some (int_range 0 12)); (1, pure None) ]))
    QCheck2.Print.(list (option int))
    (fun ops ->
      let h = Event_heap.create ~filler:(-1) in
      let model = ref [] (* (time, id), kept stably sorted *) in
      let next = ref 0 in
      List.for_all
        (function
          | Some time ->
            let id = !next in
            incr next;
            Event_heap.push h ~time:(float_of_int time) id;
            model :=
              List.stable_sort
                (fun (a, _) (b, _) -> compare a b)
                (!model @ [ (time, id) ]);
            Event_heap.size h = List.length !model
          | None -> (
            match (!model, pop_min h) with
            | [], None -> true
            | (t, id) :: rest, Some (t', id') ->
              model := rest;
              float_of_int t = t' && id = id'
            | [], Some _ | _ :: _, None -> false))
        ops
      && List.for_all
           (fun (t, id) -> pop_min h = Some (float_of_int t, id))
           !model
      && Event_heap.is_empty h)

let prop_heap_sorts =
  Test_support.qtest "heap pops in nondecreasing time order"
    QCheck2.Gen.(list_size (int_range 1 200) (float_range 0. 100.))
    QCheck2.Print.(list float)
    (fun times ->
      let h = Event_heap.create ~filler:() in
      List.iter (fun t -> Event_heap.push h ~time:t ()) times;
      let rec drain last =
        match pop_min h with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain neg_infinity)

(* --- Sim -------------------------------------------------------------- *)

let test_sim_schedule_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:2. (fun _ -> log := "b" :: !log);
  Sim.schedule sim ~delay:1. (fun s ->
      log := "a" :: !log;
      Sim.schedule s ~delay:0.5 (fun _ -> log := "a2" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "a2"; "b" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 2. (Sim.now sim);
  Alcotest.(check int) "events" 3 (Sim.events_processed sim)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(float_of_int i) (fun _ -> incr fired)
  done;
  Sim.run ~until:5.5 sim;
  Alcotest.(check int) "fired" 5 !fired;
  Alcotest.(check int) "pending" 5 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "all fired" 10 !fired

let test_sim_negative_delay () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Sim.schedule: negative or NaN delay") (fun () ->
      Sim.schedule sim ~delay:(-1.) (fun _ -> ()))

let test_sim_schedule_at_past () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:5. (fun s ->
      try
        Sim.schedule_at s ~time:1. (fun _ -> ());
        Alcotest.fail "expected failure"
      with Invalid_argument _ -> ());
  Sim.run sim

(* Regression: [run ~until] must not warp the clock past pending events
   when a [max_events] budget stops the run early. The old code set the
   clock to [until] unconditionally, so a subsequent [run] would have
   processed the remaining events "in the past". *)
let test_sim_no_clock_warp_on_budget () =
  let sim = Sim.create () in
  let times = ref [] in
  for i = 1 to 3 do
    Sim.schedule sim ~delay:(float_of_int i) (fun s ->
        times := Sim.now s :: !times)
  done;
  Sim.run ~until:10. ~max_events:1 sim;
  Alcotest.(check (float 1e-9)) "clock at last processed event" 1. (Sim.now sim);
  Alcotest.(check int) "two events still pending" 2 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "remaining events at their own times"
    [ 1.; 2.; 3. ] (List.rev !times);
  Alcotest.(check (float 1e-9)) "final clock" 3. (Sim.now sim)

let test_run_guarded_converged () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 5 do
    Sim.schedule sim ~delay:(float_of_int i) (fun _ -> incr fired)
  done;
  let v = Sim.run_guarded sim in
  Alcotest.(check string) "verdict" "converged" (Sim.verdict_name v);
  Alcotest.(check int) "all fired" 5 !fired;
  Alcotest.(check bool) "equal_verdict" true
    (Sim.equal_verdict v Sim.Converged)

let test_run_guarded_time_budget () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(float_of_int i) (fun _ -> incr fired)
  done;
  let v = Sim.run_guarded ~until:5.5 sim in
  Alcotest.(check string) "verdict" "time-budget-exhausted"
    (Sim.verdict_name v);
  Alcotest.(check int) "only due events fired" 5 !fired;
  Alcotest.(check int) "rest pending" 5 (Sim.pending sim);
  (* the clock stayed at the last processed event, not at [until] *)
  Alcotest.(check (float 1e-9)) "clock" 5. (Sim.now sim)

let test_run_guarded_event_budget () =
  (* a self-rescheduling tick never quiesces: without the event budget
     this run would never return *)
  let sim = Sim.create () in
  let rec tick s =
    Sim.schedule s ~delay:1. tick
  in
  Sim.schedule sim ~delay:1. tick;
  let v = Sim.run_guarded ~max_events:100 sim in
  Alcotest.(check string) "verdict" "event-budget-exhausted"
    (Sim.verdict_name v);
  Alcotest.(check int) "stopped at the budget" 100 (Sim.events_processed sim);
  Alcotest.(check int) "tick still pending" 1 (Sim.pending sim)

let test_sim_deterministic_rng () =
  let draw seed =
    let sim = Sim.create ~seed () in
    Random.State.float (Sim.rng sim) 1.
  in
  Alcotest.(check (float 0.)) "same seed" (draw 9) (draw 9);
  Alcotest.(check bool) "different seed" true (draw 9 <> draw 10)

(* The determinism contract in sim.mli rests on two kernel invariants:
   same-timestamp events fire in schedule order (FIFO ties, inherited
   from Event_heap but re-checked through the Sim API), and the
   processed/pending accounting stays exact under any interleaving of
   schedule, step and bounded run calls. *)

let prop_sim_fifo_same_time =
  Test_support.qtest "same-timestamp events fire in schedule order"
    QCheck2.Gen.(list_size (int_range 1 120) (int_range 0 3))
    QCheck2.Print.(list int)
    (fun buckets ->
      (* few distinct times over many events: ties are the common case *)
      let sim = Sim.create () in
      let log = ref [] in
      List.iteri
        (fun i b ->
          Sim.schedule sim
            ~delay:(float_of_int b /. 10.)
            (fun _ -> log := (b, i) :: !log))
        buckets;
      Sim.run sim;
      let fired = List.rev !log in
      let expected =
        (* stable sort by time keeps schedule order within each tie *)
        List.stable_sort
          (fun (b1, _) (b2, _) -> compare b1 b2)
          (List.mapi (fun i b -> (b, i)) buckets)
      in
      fired = expected)

type sim_op = Op_schedule of int | Op_step | Op_run_until of int

let print_sim_op = function
  | Op_schedule b -> Printf.sprintf "schedule(%d)" b
  | Op_step -> "step"
  | Op_run_until b -> Printf.sprintf "run_until(+%d)" b

let prop_sim_counters_consistent =
  Test_support.qtest
    "events_processed + pending = scheduled under any interleaving"
    QCheck2.Gen.(
      list_size (int_range 1 80)
        (oneof
           [
             map (fun b -> Op_schedule b) (int_range 0 20);
             return Op_step;
             map (fun b -> Op_run_until b) (int_range 0 10);
           ]))
    QCheck2.Print.(list print_sim_op)
    (fun ops ->
      let sim = Sim.create () in
      let scheduled = ref 0 in
      let ok = ref true in
      let last_now = ref (Sim.now sim) in
      let check () =
        ok :=
          !ok
          && Sim.events_processed sim + Sim.pending sim = !scheduled
          && Sim.now sim >= !last_now;
        last_now := Sim.now sim
      in
      List.iter
        (fun op ->
          (match op with
          | Op_schedule b ->
            (* schedule relative to now: never in the past *)
            Sim.schedule sim ~delay:(float_of_int b /. 7.) (fun _ -> ());
            incr scheduled
          | Op_step -> ignore (Sim.step sim)
          | Op_run_until b ->
            Sim.run ~until:(Sim.now sim +. (float_of_int b /. 3.)) sim);
          check ())
        ops;
      Sim.run sim;
      check ();
      !ok && Sim.pending sim = 0 && Sim.events_processed sim = !scheduled)

(* --- Channel ----------------------------------------------------------- *)

let test_channel_delay_bounds () =
  let sim = Sim.create ~seed:3 () in
  let received = ref [] in
  let ch = Channel.create sim ~deliver:(fun x -> received := (x, Sim.now sim) :: !received) in
  Channel.send ch 1;
  Sim.run sim;
  match !received with
  | [ (1, at) ] ->
    Alcotest.(check bool)
      (Printf.sprintf "delay %.4f in [0.010, 0.020]" at)
      true
      (at >= 0.010 && at <= 0.020)
  | _ -> Alcotest.fail "expected one message"

let test_channel_fifo () =
  (* send many messages back-to-back; each draws an independent delay but
     delivery order must match send order *)
  let sim = Sim.create ~seed:11 () in
  let received = ref [] in
  let ch = Channel.create sim ~deliver:(fun x -> received := x :: !received) in
  for i = 1 to 100 do
    Channel.send ch i
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" (List.init 100 (fun i -> i + 1))
    (List.rev !received);
  Alcotest.(check int) "sent count" 100 (Channel.sent_count ch)

let test_channel_fifo_across_time () =
  let sim = Sim.create ~seed:4 () in
  let received = ref [] in
  let ch = Channel.create sim ~delay_lo:0.01 ~delay_hi:0.10
             ~deliver:(fun x -> received := x :: !received) in
  Channel.send ch "first";
  (* second message sent 1 ms later could draw a much smaller delay *)
  Sim.schedule sim ~delay:0.001 (fun _ -> Channel.send ch "second");
  Sim.run sim;
  Alcotest.(check (list string)) "order" [ "first"; "second" ] (List.rev !received)

let prop_channel_never_reorders =
  Test_support.qtest "channel preserves order for any send schedule"
    QCheck2.Gen.(
      tup2 small_nat (list_size (int_range 1 30) (float_range 0. 0.05)))
    QCheck2.Print.(tup2 int (list float))
    (fun (seed, gaps) ->
      let sim = Sim.create ~seed () in
      let received = ref [] in
      let ch = Channel.create sim ~deliver:(fun x -> received := x :: !received) in
      let t = ref 0. in
      List.iteri
        (fun i gap ->
          t := !t +. gap;
          Sim.schedule_at sim ~time:!t (fun _ -> Channel.send ch i))
        gaps;
      Sim.run sim;
      List.rev !received = List.init (List.length gaps) Fun.id)

let () =
  Alcotest.run "simkernel"
    [
      ( "event_heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "nan rejected" `Quick test_heap_nan_rejected;
          Alcotest.test_case "peek/size" `Quick test_heap_peek;
          Alcotest.test_case "popped payloads are released" `Quick
            test_heap_releases_popped;
          Alcotest.test_case "popped payloads released, heap non-empty" `Quick
            test_heap_releases_popped_interleaved;
          prop_heap_sorts;
          prop_heap_model;
        ] );
      ( "sim",
        [
          Alcotest.test_case "schedule order" `Quick test_sim_schedule_order;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "negative delay" `Quick test_sim_negative_delay;
          Alcotest.test_case "schedule_at past" `Quick test_sim_schedule_at_past;
          Alcotest.test_case "deterministic rng" `Quick test_sim_deterministic_rng;
          Alcotest.test_case "no clock warp on budget" `Quick
            test_sim_no_clock_warp_on_budget;
          Alcotest.test_case "guarded: converged" `Quick
            test_run_guarded_converged;
          Alcotest.test_case "guarded: time budget" `Quick
            test_run_guarded_time_budget;
          Alcotest.test_case "guarded: event budget" `Quick
            test_run_guarded_event_budget;
          prop_sim_fifo_same_time;
          prop_sim_counters_consistent;
        ] );
      ( "channel",
        [
          Alcotest.test_case "delay bounds" `Quick test_channel_delay_bounds;
          Alcotest.test_case "fifo burst" `Quick test_channel_fifo;
          Alcotest.test_case "fifo across time" `Quick test_channel_fifo_across_time;
          prop_channel_never_reorders;
        ] );
    ]
