(* Error-path coverage for the text-format loaders: Scenario_io and
   Topo_io must reject truncated, malformed and inconsistent inputs with
   an [Invalid_argument] that names the problem and the (physical) line,
   and the Topology.Builder must refuse duplicate links whose
   relationships disagree; the session core refuses vertex pairs that
   share no link. The exact messages are asserted — they are the
   user interface of every CLI that loads these files. *)

let diamond = Test_support.diamond

let check_invalid name expected_msg f =
  Alcotest.check_raises name (Invalid_argument expected_msg) (fun () ->
      ignore (f ()))

(* --- Scenario_io -------------------------------------------------------- *)

let test_scenario_missing_dest () =
  let topo = diamond () in
  check_invalid "no dest directive" "Scenario_io: missing dest directive"
    (fun () -> Scenario_io.parse topo "fail_link 3 1\n");
  check_invalid "empty file" "Scenario_io: missing dest directive" (fun () ->
      Scenario_io.parse topo "");
  check_invalid "comments only" "Scenario_io: missing dest directive"
    (fun () -> Scenario_io.parse topo "# a comment\n\n  # another\n")

let test_scenario_duplicate_directives () =
  let topo = diamond () in
  check_invalid "duplicate dest"
    "Scenario_io: duplicate dest directive on line 2" (fun () ->
      Scenario_io.parse topo "dest 3\ndest 1\n");
  check_invalid "duplicate detect"
    "Scenario_io: duplicate detect directive on line 3" (fun () ->
      Scenario_io.parse topo "dest 3\ndetect 1.5\ndetect 2.0\n")

let test_scenario_bad_numbers () =
  let topo = diamond () in
  check_invalid "non-numeric ASN"
    "Scenario_io: bad AS number \"x\" on line 1" (fun () ->
      Scenario_io.parse topo "dest x\n");
  check_invalid "unknown ASN" "Scenario_io: AS 999 not in topology on line 2"
    (fun () -> Scenario_io.parse topo "dest 3\nfail_node 999\n");
  check_invalid "non-numeric detect"
    "Scenario_io: bad number \"fast\" on line 2" (fun () ->
      Scenario_io.parse topo "dest 3\ndetect fast\n")

let test_scenario_malformed_events () =
  let topo = diamond () in
  check_invalid "unknown event kind"
    "Scenario_io: malformed event \"frobnicate 3 1\" on line 2" (fun () ->
      Scenario_io.parse topo "dest 3\nfrobnicate 3 1\n");
  (* a truncated [at] (delay but no wrapped event) is malformed, not an
     event with defaults *)
  check_invalid "truncated at" "Scenario_io: malformed event \"at 5\" on line 2"
    (fun () -> Scenario_io.parse topo "dest 3\nat 5\n");
  check_invalid "fail_link missing endpoint"
    "Scenario_io: malformed event \"fail_link 3\" on line 2" (fun () ->
      Scenario_io.parse topo "dest 3\nfail_link 3\n");
  (* error lines are physical line numbers, comments and blanks included *)
  check_invalid "line numbers skip comments"
    "Scenario_io: malformed event \"bogus\" on line 4" (fun () ->
      Scenario_io.parse topo "dest 3\n# comment\n\nbogus\n")

(* a file cut off mid-line must fail cleanly through the [load] path too *)
let test_scenario_truncated_file () =
  let topo = diamond () in
  let path = Filename.temp_file "scn_trunc" ".scn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "dest 3\nat 40 recover_lin";
      close_out oc;
      (* [at] recurses into its wrapped event, so the message names the
         truncated inner tokens *)
      check_invalid "truncated event line"
        "Scenario_io: malformed event \"recover_lin\" on line 2" (fun () ->
          Scenario_io.load topo path))

let test_scenario_good_inputs_still_parse () =
  let topo = diamond () in
  let spec =
    Scenario_io.parse topo
      "# tabs, comments and repeated events are all fine\n\
       dest 3\n\
       detect 0.5\n\
       fail_link 3\t1\n\
       at 40 recover_link 3 1\n"
  in
  Alcotest.(check int) "both events parsed" 2 (List.length spec.Scenario.events);
  Alcotest.(check (option (float 0.))) "detect parsed" (Some 0.5)
    spec.Scenario.detect_delay

(* --- Topo_io: relationship files ---------------------------------------- *)

let test_topo_bad_as_numbers () =
  List.iter
    (fun (label, content, msg) ->
      check_invalid label msg (fun () -> Topo_io.parse_relationships content))
    [
      ( "non-numeric ASN",
        "x|2|0\n",
        "Topo_io: bad AS number \"x\" on line 1" );
      ("zero ASN", "0|2|0\n", "Topo_io: bad AS number \"0\" on line 1");
      ("negative ASN", "-3|2|0\n", "Topo_io: bad AS number \"-3\" on line 1");
    ]

let test_topo_unknown_code () =
  check_invalid "unknown relationship code"
    "Topo_io: unknown relationship code \"7\" on line 1" (fun () ->
      Topo_io.parse_relationships "1|2|7\n");
  (* physical line numbers survive comments and blank lines *)
  check_invalid "line number past comments"
    "Topo_io: unknown relationship code \"9\" on line 3" (fun () ->
      Topo_io.parse_relationships "# caida header\n\n1|2|9\n")

let test_topo_malformed_lines () =
  check_invalid "two fields" "Topo_io: malformed relationship line 1"
    (fun () -> Topo_io.parse_relationships "1|2\n");
  check_invalid "four fields" "Topo_io: malformed relationship line 1"
    (fun () -> Topo_io.parse_relationships "1|2|0|extra\n");
  (* a download cut off mid-line: the earlier complete lines don't mask
     the truncated last one *)
  check_invalid "truncated last line" "Topo_io: malformed relationship line 2"
    (fun () -> Topo_io.parse_relationships "10|20|0\n1|2")

let test_topo_builder_rejections () =
  check_invalid "self link" "Topology.Builder: self link" (fun () ->
      Topo_io.parse_relationships "5|5|0\n");
  (* the same physical link with disagreeing relationships: 1 provider of
     2 on one line, 2 provider of 1 on the next *)
  check_invalid "conflicting duplicate link"
    "Topology.Builder: conflicting relationship for link 1-2" (fun () ->
      Topo_io.parse_relationships "1|2|-1\n2|1|-1\n");
  check_invalid "peer vs p2c conflict"
    "Topology.Builder: conflicting relationship for link 1-2" (fun () ->
      Topo_io.parse_relationships "1|2|0\n1|2|-1\n")

let test_topo_consistent_duplicates_ok () =
  (* byte-identical duplicate lines and the same peer link stated from
     both ends are consistent, hence accepted and deduplicated *)
  let t = Topo_io.parse_relationships "1|2|-1\n1|2|-1\n1|3|0\n3|1|0\n" in
  Alcotest.(check int) "three ASes" 3 (Topology.num_vertices t);
  let links = ref 0 in
  for v = 0 to Topology.num_vertices t - 1 do
    links := !links + Array.length (Topology.neighbors t v)
  done;
  Alcotest.(check int) "two undirected links (four directed entries)" 4 !links

let test_topo_bad_paths () =
  check_invalid "non-numeric hop" "Topo_io: bad AS number \"x\" on line 1"
    (fun () -> Topo_io.parse_paths "10 20 x\n");
  check_invalid "zero hop" "Topo_io: bad AS number \"0\" on line 2" (fun () ->
      Topo_io.parse_paths "10 20\n30 0\n")

let test_missing_files () =
  let missing = "/nonexistent/definitely_not_here.rel" in
  let raises_sys_error f =
    match f () with
    | _ -> false
    | exception Sys_error _ -> true
  in
  Alcotest.(check bool) "relationships" true
    (raises_sys_error (fun () -> Topo_io.load_relationships missing));
  Alcotest.(check bool) "scenario" true
    (raises_sys_error (fun () -> Scenario_io.load (diamond ()) missing))

(* --- the transient monitor and its traffic fold ------------------------ *)

let test_transient_interval () =
  let run interval () =
    Transient.run_guarded (Sim.create ()) ~interval
      ~probe:(fun () -> [| Fwd_walk.Delivered |])
      ()
  in
  let msg = "Transient.run_guarded: non-positive or NaN interval" in
  check_invalid "zero" msg (run 0.);
  check_invalid "negative" msg (run (-0.02));
  check_invalid "NaN" msg (run Float.nan)

let test_traffic_interval_and_bucket () =
  let observe ~interval ~bucket () =
    Traffic.observe (Sim.create ()) ~interval ~bucket
      ~probe:(fun () -> [| Fwd_walk.Delivered |])
      ()
  in
  let msg = "Traffic.observe: non-positive interval or bucket" in
  check_invalid "zero interval" msg (observe ~interval:0. ~bucket:1.);
  check_invalid "negative interval" msg (observe ~interval:(-1.) ~bucket:1.);
  check_invalid "zero bucket" msg (observe ~interval:0.02 ~bucket:0.);
  check_invalid "negative bucket" msg (observe ~interval:0.02 ~bucket:(-1.))

(* --- Session_core ------------------------------------------------------- *)

(* Sending or advertising between two ASes that share no link names the
   engine and the operation, instead of failing inside the edge-indexed
   arrays (an out-of-bounds index or a bare Not_found). *)
let test_session_not_adjacent () =
  let topo = diamond () in
  let v = Test_support.vtx topo in
  let core : (unit, unit) Session_core.t =
    Session_core.create ~who:"Probe_net" Engine.default_config (Sim.create ())
      topo
  in
  (* 10 and 3 share no link; neither do 1 and 2 in the plain diamond *)
  check_invalid "send" "Probe_net.send: vertices not adjacent" (fun () ->
      Session_core.send core ~src:(v 10) ~dst:(v 3) ~kind:`Announce ());
  check_invalid "send, other direction"
    "Probe_net.send: vertices not adjacent" (fun () ->
      Session_core.send core ~src:(v 2) ~dst:(v 1) ~kind:`Withdraw ());
  check_invalid "advertise" "Probe_net.advertise: vertices not adjacent"
    (fun () ->
      Session_core.advertise core ~proc:0 ~src:(v 1) ~dst:(v 2) ~slot:0
        ~rib_out:[||]
        (Some ()));
  check_invalid "advertise a withdrawal"
    "Probe_net.advertise: vertices not adjacent" (fun () ->
      Session_core.advertise core ~proc:0 ~src:(v 3) ~dst:(v 10) ~slot:0
        ~rib_out:[||] None);
  check_invalid "link_state" "Link_state.fail_link: vertices not adjacent"
    (fun () -> Link_state.fail_link (Link_state.create topo) (v 1) (v 2))

let () =
  Alcotest.run "io_errors"
    [
      ( "scenario_io",
        [
          Alcotest.test_case "missing dest" `Quick test_scenario_missing_dest;
          Alcotest.test_case "duplicate directives" `Quick
            test_scenario_duplicate_directives;
          Alcotest.test_case "bad numbers" `Quick test_scenario_bad_numbers;
          Alcotest.test_case "malformed events" `Quick
            test_scenario_malformed_events;
          Alcotest.test_case "truncated file" `Quick
            test_scenario_truncated_file;
          Alcotest.test_case "good inputs still parse" `Quick
            test_scenario_good_inputs_still_parse;
        ] );
      ( "topo_io",
        [
          Alcotest.test_case "bad AS numbers" `Quick test_topo_bad_as_numbers;
          Alcotest.test_case "unknown relationship code" `Quick
            test_topo_unknown_code;
          Alcotest.test_case "malformed lines" `Quick test_topo_malformed_lines;
          Alcotest.test_case "builder rejects conflicts" `Quick
            test_topo_builder_rejections;
          Alcotest.test_case "consistent duplicates accepted" `Quick
            test_topo_consistent_duplicates_ok;
          Alcotest.test_case "bad path files" `Quick test_topo_bad_paths;
          Alcotest.test_case "missing files raise Sys_error" `Quick
            test_missing_files;
        ] );
      ( "session",
        [
          Alcotest.test_case "non-adjacent pair" `Quick
            test_session_not_adjacent;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "transient interval" `Quick
            test_transient_interval;
          Alcotest.test_case "traffic interval and bucket" `Quick
            test_traffic_interval_and_bucket;
        ] );
    ]
