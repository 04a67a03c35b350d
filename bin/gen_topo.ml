(* Generate a synthetic Internet-like AS topology and write it as a CAIDA
   serial-1 relationship file.

     dune exec bin/gen_topo.exe -- -n 4000 -o topo.txt
     dune exec bin/gen_topo.exe -- -n 1000 --tier1 12 --peers 3.0 --stats *)

open Cmdliner

(* The bad flag, checked before generating: [Topo_gen.generate]'s own
   refusal names record fields, not flags. *)
let bad_flag n tier1 mid_fraction stub_q mid_q max_providers peers =
  let in_unit_interval x = 0. <= x && x < 1. in
  if tier1 < 1 then Some "--tier1 must be at least 1"
  else if n < tier1 + 2 then
    Some (Printf.sprintf "-n must be at least --tier1 + 2 = %d" (tier1 + 2))
  else if not (0. <= mid_fraction && mid_fraction <= 1.) then
    Some "--mid-fraction must be in [0, 1]"
  else if not (in_unit_interval stub_q) then
    Some "--stub-multihoming must be in [0, 1)"
  else if not (in_unit_interval mid_q) then
    Some "--mid-multihoming must be in [0, 1)"
  else if max_providers < 1 then Some "--max-providers must be at least 1"
  else if not (0. <= peers) then Some "--peers must be at least 0"
  else None

let run n tier1 mid_fraction stub_q mid_q max_providers peers seed output
    stats =
  match bad_flag n tier1 mid_fraction stub_q mid_q max_providers peers with
  | Some msg -> `Error (false, msg)
  | None ->
    let topo =
      Topo_gen.generate
        {
          Topo_gen.n;
          n_tier1 = tier1;
          mid_fraction;
          stub_extra_provider_prob = stub_q;
          mid_extra_provider_prob = mid_q;
          max_providers;
          peers_per_mid = peers;
          seed;
        }
    in
    (match output with
    | Some path ->
      Topo_io.save_relationships topo path;
      Format.printf "wrote %s@." path
    | None -> print_string (Topo_io.relationships_to_string topo));
    if stats then Format.eprintf "%a@." Topology.pp_stats topo;
    `Ok 0

let n =
  Arg.(value & opt int 1000 & info [ "n" ] ~docv:"N" ~doc:"Number of ASes.")

let tier1 =
  Arg.(
    value & opt int 10
    & info [ "tier1" ] ~docv:"K" ~doc:"Size of the tier-1 clique.")

let mid_fraction =
  Arg.(
    value & opt float 0.15
    & info [ "mid-fraction" ] ~docv:"F"
        ~doc:"Fraction of non-tier-1 ASes that are mid-tier transit.")

let stub_q =
  Arg.(
    value & opt float 0.45
    & info [ "stub-multihoming" ] ~docv:"Q"
        ~doc:"Geometric tail probability of extra providers for stubs.")

let mid_q =
  Arg.(
    value & opt float 0.5
    & info [ "mid-multihoming" ] ~docv:"Q"
        ~doc:"Geometric tail probability of extra providers for mid-tier ASes.")

let max_providers =
  Arg.(
    value & opt int 6
    & info [ "max-providers" ] ~docv:"K" ~doc:"Cap on providers per AS.")

let peers =
  Arg.(
    value & opt float 2.0
    & info [ "peers" ] ~docv:"P"
        ~doc:"Expected lateral peer links per mid-tier AS.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"RNG seed.")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Output file (stdout if omitted).")

let stats =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print topology statistics to stderr.")

let cmd =
  let doc = "generate a synthetic Internet-like AS topology" in
  Cmd.v
    (Cmd.info "gen_topo" ~doc)
    Term.(
      ret
        (const run $ n $ tier1 $ mid_fraction $ stub_q $ mid_q $ max_providers
       $ peers $ seed $ output $ stats))

let () = exit (Cmd.eval' cmd)
