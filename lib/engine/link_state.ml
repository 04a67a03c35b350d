type t = {
  topo : Topology.t;
  edge_down : Bytes.t;  (* one byte per directed edge: '\001' = failed *)
  node_down : bool array;
}

let create topo =
  {
    topo;
    edge_down = Bytes.make (Topology.num_edges topo) '\000';
    node_down = Array.make (Topology.num_vertices topo) false;
  }

let set_link ~op t u v down =
  let e = Topology.edge t.topo u v in
  if e < 0 then invalid_arg ("Link_state." ^ op ^ ": vertices not adjacent");
  let c = if down then '\001' else '\000' in
  Bytes.set t.edge_down e c;
  Bytes.set t.edge_down (Topology.edge t.topo v u) c

let fail_link t u v = set_link ~op:"fail_link" t u v true
let recover_link t u v = set_link ~op:"recover_link" t u v false
let fail_node t v = t.node_down.(v) <- true
let recover_node t v = t.node_down.(v) <- false

let edge_up t ~src ~dst e =
  (not t.node_down.(src))
  && (not t.node_down.(dst))
  && Bytes.get t.edge_down e = '\000'

let link_up t u v =
  let e = Topology.edge t.topo u v in
  if e < 0 then (not t.node_down.(u)) && not t.node_down.(v)
  else edge_up t ~src:u ~dst:v e

let node_up t v = not t.node_down.(v)

let failed_links t =
  let acc = ref [] in
  for u = Topology.num_vertices t.topo - 1 downto 0 do
    let first = Topology.first_edge t.topo u in
    let nbrs = Topology.neighbors t.topo u in
    for s = Array.length nbrs - 1 downto 0 do
      let v = fst nbrs.(s) in
      if u < v && Bytes.get t.edge_down (first + s) <> '\000' then
        acc := (u, v) :: !acc
    done
  done;
  !acc
