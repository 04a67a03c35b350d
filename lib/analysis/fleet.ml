type t = {
  topo : Topology.t;
  prefixes : Prefix.t array; (* by vertex *)
  fibs : Topology.vertex Lpm.t array; (* by vertex *)
  origins : Topology.vertex Lpm.t; (* prefix -> originating vertex *)
}

let build ?(validate = `Warn) topo =
  (* an any-to-any data plane exercises every destination, so pre-flight
     the whole topology (no spec: the per-origin checks sweep all ASes) *)
  (match validate with
  | `Off -> ()
  | (`Warn | `Strict) as v ->
    Staticcheck.enforce ~what:"Fleet topology" v (Staticcheck.analyze topo));
  let n = Topology.num_vertices topo in
  let prefixes =
    Array.init n (fun v -> Prefix.of_asn (Topology.asn topo v))
  in
  let origins =
    Lpm.of_list (List.init n (fun v -> (prefixes.(v), v)))
  in
  let fibs = Array.make n Lpm.empty in
  for dest = 0 to n - 1 do
    let table = Static_route.compute topo ~dest in
    for v = 0 to n - 1 do
      if v <> dest then
        match Static_route.next_hop table v with
        | Some nh -> fibs.(v) <- Lpm.add prefixes.(dest) nh fibs.(v)
        | None -> ()
    done
  done;
  { topo; prefixes; fibs; origins }

let topology t = t.topo
let prefix_of t v = t.prefixes.(v)
let origin_of t addr = Option.map snd (Lpm.lookup t.origins addr)
let fib t v = t.fibs.(v)

type trace = {
  hops : Topology.vertex list;
  outcome : [ `Delivered | `No_route ];
}

let route t ~src addr =
  let n = Topology.num_vertices t.topo in
  let rec go v acc hops =
    if Prefix.mem t.prefixes.(v) addr then
      { hops = List.rev (v :: acc); outcome = `Delivered }
    else if hops > n then
      (* cannot happen on converged loop-free tables; guards the walk *)
      { hops = List.rev (v :: acc); outcome = `No_route }
    else
      match Lpm.lookup t.fibs.(v) addr with
      | Some (_, nh) -> go nh (v :: acc) (hops + 1)
      | None -> { hops = List.rev (v :: acc); outcome = `No_route }
  in
  go src [] 0
