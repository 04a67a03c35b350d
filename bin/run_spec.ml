(* The run front end shared by sim_run and `stamp_trace record`: the eight
   arguments that pick a topology, a scenario, a protocol, a seed and an
   MRAI base, resolved and checked before anything runs. A bad input ends
   in a one-line command-line error (exit 124) naming the ASN or link. *)

open Cmdliner

type t = {
  topo : Topology.t;
  spec : Scenario.spec;
  protocol : Runner.protocol;
  seed : int;
  mrai : float;
}

let table_conv what table print =
  let parse s =
    match List.assoc_opt s table with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown %s %S" what s))
  in
  Arg.conv (parse, print)

let protocol_conv =
  table_conv "protocol"
    [
      ("bgp", Runner.Bgp);
      ("rbgp", Runner.Rbgp);
      ("rbgp-norci", Runner.Rbgp_no_rci);
      ("stamp", Runner.Stamp);
    ]
    (fun ppf p -> Format.pp_print_string ppf (Runner.protocol_name p))

let scenarios =
  [
    ("single", Scenario.single_link);
    ("two-apart", Scenario.two_links_apart);
    ("two-shared", Scenario.two_links_shared);
    ("node", Scenario.node_failure);
    ("policy", Scenario.policy_withdraw);
  ]

let scenario_conv =
  table_conv "scenario"
    (List.map (fun (kind, _) -> (kind, kind)) scenarios)
    Format.pp_print_string

let link_conv =
  let parse s =
    match List.map int_of_string_opt (String.split_on_char ':' s) with
    | [ Some a; Some b ] -> Ok (a, b)
    | _ -> Error (`Msg "expected ASN:ASN")
  in
  let print ppf (a, b) = Format.fprintf ppf "%d:%d" a b in
  Arg.conv (parse, print)

exception Bad_input of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_input msg)) fmt

let vertex topo asn =
  match Topology.vertex_of_asn topo asn with
  | Some v -> v
  | None -> bad "ASN %d is not in the topology" asn

let fail_link topo (a, b) =
  let u = vertex topo a in
  let v = vertex topo b in
  if Topology.rel topo u v = None then
    bad "--fail %d:%d: ASes %d and %d share no link" a b a b;
  Scenario.Fail_link (u, v)

let resolve topo_file n seed protocol dest fails kind mrai =
  try
    (match (dest, fails) with
    | Some asn, [] -> bad "--dest %d needs at least one --fail" asn
    | None, (a, b) :: _ -> bad "--fail %d:%d needs --dest" a b
    | Some _, _ :: _ | None, [] -> ());
    let topo =
      match topo_file with
      | Some path -> Topo_io.load_relationships path
      | None -> Topo_gen.generate (Topo_gen.default_params ~seed ~n ())
    in
    let spec =
      match dest with
      | None -> List.assoc kind scenarios (Random.State.make [| seed |]) topo
      | Some asn ->
        let dest = vertex topo asn in
        let events = List.map (fail_link topo) fails in
        { Scenario.dest; events; detect_delay = None }
    in
    `Ok { topo; spec; protocol; seed; mrai }
  with Bad_input msg | Invalid_argument msg | Sys_error msg ->
    `Error (false, msg)

let term =
  let topo_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "topo" ] ~docv:"FILE" ~doc:"CAIDA relationship file to load.")
  in
  let n =
    Arg.(
      value & opt int 1000
      & info [ "n" ] ~docv:"N" ~doc:"Generated topology size (without --topo).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"RNG seed.")
  in
  let protocol =
    Arg.(
      value
      & opt protocol_conv Runner.Stamp
      & info [ "protocol" ] ~docv:"P"
          ~doc:"Protocol: bgp, rbgp, rbgp-norci or stamp.")
  in
  let dest =
    Arg.(
      value
      & opt (some int) None
      & info [ "dest" ] ~docv:"ASN"
          ~doc:
            "Destination AS of an explicit scenario (needs --fail; without \
             both, a random --scenario is drawn).")
  in
  let fails =
    Arg.(
      value & opt_all link_conv []
      & info [ "fail" ] ~docv:"ASN:ASN"
          ~doc:"Link to fail after convergence (repeatable; needs --dest).")
  in
  let scenario =
    Arg.(
      value
      & opt scenario_conv "single"
      & info [ "scenario" ] ~docv:"KIND"
          ~doc:
            "Random scenario kind: single, two-apart, two-shared, node or \
             policy.")
  in
  let mrai =
    Arg.(
      value & opt float 30.
      & info [ "mrai" ] ~docv:"SECONDS" ~doc:"MRAI base interval.")
  in
  Term.(
    ret
      (const resolve $ topo_file $ n $ seed $ protocol $ dest $ fails
     $ scenario $ mrai))
