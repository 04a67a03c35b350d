include Path_vector.Make (struct
  include Path_vector.Plain

  type ext = unit
  type params = unit

  let who = "Bgp_net"
  let init () _ _ = ()
end)

let name = "BGP"
let create sim topo ~dest config = create () sim topo ~dest config
let () = Engine.Registry.register (engine ~name ~forwarding:(walk ~fallback:drop) ())
