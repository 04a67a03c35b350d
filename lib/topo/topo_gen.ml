type params = {
  n : int;
  n_tier1 : int;
  mid_fraction : float;
  stub_extra_provider_prob : float;
  mid_extra_provider_prob : float;
  max_providers : int;
  peers_per_mid : float;
  seed : int;
}

let default_params ?(seed = 42) ~n () =
  {
    n;
    n_tier1 = min 10 (max 1 (n / 20));
    mid_fraction = 0.15;
    stub_extra_provider_prob = 0.45;
    mid_extra_provider_prob = 0.5;
    max_providers = 6;
    peers_per_mid = 2.0;
    seed;
  }

let validate p =
  if p.n < p.n_tier1 + 2 then invalid_arg "Topo_gen: n too small for n_tier1";
  if p.n_tier1 < 1 then invalid_arg "Topo_gen: n_tier1 < 1";
  if p.mid_fraction < 0. || p.mid_fraction > 1. then
    invalid_arg "Topo_gen: mid_fraction out of [0,1]";
  if
    p.stub_extra_provider_prob < 0.
    || p.stub_extra_provider_prob >= 1.
    || p.mid_extra_provider_prob < 0.
    || p.mid_extra_provider_prob >= 1.
  then invalid_arg "Topo_gen: extra-provider probabilities must be in [0,1)";
  if p.max_providers < 1 then invalid_arg "Topo_gen: max_providers < 1";
  if p.peers_per_mid < 0. then invalid_arg "Topo_gen: peers_per_mid < 0"

(* Number of providers: [base] plus a geometric tail with parameter [q],
   capped. *)
let draw_provider_count st ~base ~q ~cap =
  let rec loop k = if k >= cap || Random.State.float st 1. >= q then k else loop (k + 1) in
  loop base

(* Preferential attachment over the transit ASNs [1..size]: each weighs
   its customer count + 1, held in a Fenwick tree ([tree.(i)] sums the
   weights of [(i - lowbit i) + 1 .. i]) so a weighted draw and a weight
   update cost O(log n). *)
type draws = { weight : int array; tree : int array (* both 1-based *) }

let draws size =
  let tree = Array.make (size + 1) 0 in
  for i = 1 to size do
    tree.(i) <- tree.(i) + 1;
    let j = i + (i land -i) in
    if j <= size then tree.(j) <- tree.(j) + tree.(i)
  done;
  { weight = Array.make (size + 1) 1; tree }

let add d asn delta =
  let i = ref asn in
  while !i < Array.length d.tree do
    d.tree.(!i) <- d.tree.(!i) + delta;
    i := !i + (!i land - !i)
  done

let prefix d asn =
  let i = ref asn and acc = ref 0 in
  while !i > 0 do
    acc := !acc + d.tree.(!i);
    i := !i - (!i land - !i)
  done;
  !acc

(* The smallest ASN whose weight prefix exceeds [r]: where a scan adding
   the weights one by one first passes [r]. The weights are integers, so
   the float comparisons are exact. *)
let find d r =
  let size = Array.length d.tree - 1 in
  let step = ref 1 in
  while 2 * !step <= size do
    step := 2 * !step
  done;
  let pos = ref 0 and acc = ref 0 in
  while !step > 0 do
    let next = !pos + !step in
    if next <= size && float_of_int (!acc + d.tree.(next)) <= r then begin
      pos := next;
      acc := !acc + d.tree.(next)
    end;
    step := !step / 2
  done;
  !pos + 1

(* Weighted choice of [k] distinct provider ASNs among [1..among], with
   weight (customer count + 1) — preferential attachment. A chosen ASN
   weighs nothing until the draw is over. *)
let choose_providers d st ~k ~among =
  let rec loop i acc =
    let total = prefix d among in
    if i = 0 || total <= 0 then acc
    else begin
      let r = Random.State.float st (float_of_int total) in
      let asn = find d r in
      let asn =
        if asn <= among then asn
        else
          (* [r] = [total] (the draw's bound is inclusive): the last
             candidate still unchosen *)
          let rec last a = if List.mem a acc then last (a - 1) else a in
          last among
      in
      add d asn (-d.weight.(asn));
      loop (i - 1) (asn :: acc)
    end
  in
  let chosen = loop k [] in
  List.iter (fun asn -> add d asn d.weight.(asn)) chosen;
  chosen

let add_customer d asn =
  d.weight.(asn) <- d.weight.(asn) + 1;
  add d asn 1

let generate p =
  validate p;
  let st = Random.State.make [| p.seed |] in
  let b = Topology.Builder.create () in
  let n_non_t1 = p.n - p.n_tier1 in
  let n_mid =
    min (n_non_t1 - 1)
      (max 1 (int_of_float (Float.round (float_of_int n_non_t1 *. p.mid_fraction))))
  in
  let n_stub = n_non_t1 - n_mid in
  (* ASNs: tier-1 = 1..n_tier1, mid = n_tier1+1 .. n_tier1+n_mid, stubs after. *)
  let t1_lo = 1 and t1_hi = p.n_tier1 in
  let mid_lo = t1_hi + 1 and mid_hi = t1_hi + n_mid in
  let weights = draws mid_hi in
  (* Tier-1 clique: full mesh of peer links. *)
  for a = t1_lo to t1_hi do
    for a' = a + 1 to t1_hi do
      Topology.Builder.add_p2p b a a'
    done
  done;
  (* Special case: a single tier-1 has no links yet; attach it when its
     first customer arrives (below, candidates always include it). *)
  let attach asn ~among ~base ~q =
    let k = draw_provider_count st ~base ~q ~cap:p.max_providers in
    let provs = choose_providers weights st ~k ~among in
    List.iter
      (fun prov ->
        Topology.Builder.add_p2c b ~provider:prov ~customer:asn;
        add_customer weights prov)
      provs
  in
  (* Mid-tier ASes: providers among tier-1s and earlier mid ASes. *)
  for asn = mid_lo to mid_hi do
    (* all ASNs < asn are tier-1 or earlier mid: transit-capable *)
    attach asn ~among:(asn - 1) ~base:2 ~q:p.mid_extra_provider_prob
  done;
  (* Lateral peering among mid-tier ASes. *)
  if n_mid >= 2 && p.peers_per_mid > 0. then begin
    let n_peer_links =
      int_of_float (Float.round (float_of_int n_mid *. p.peers_per_mid /. 2.))
    in
    let attempts = ref 0 in
    let added = ref 0 in
    while !added < n_peer_links && !attempts < n_peer_links * 20 do
      incr attempts;
      let a = mid_lo + Random.State.int st n_mid in
      let a' = mid_lo + Random.State.int st n_mid in
      if a <> a' then
        (* skip pairs already linked (provider or peer) *)
        try
          Topology.Builder.add_p2p b a a';
          incr added
        with Invalid_argument _ -> ()
    done
  end;
  (* Stub ASes: providers among all transit ASes (tier-1 + mid). *)
  for asn = mid_hi + 1 to p.n do
    attach asn ~among:mid_hi ~base:1 ~q:p.stub_extra_provider_prob
  done;
  ignore n_stub;
  Topology.Builder.build b
