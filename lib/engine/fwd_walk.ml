type status = Delivered | Looped | Blackholed

let equal_status a b =
  match (a, b) with
  | Delivered, Delivered | Looped, Looped | Blackholed, Blackholed -> true
  | (Delivered | Looped | Blackholed), _ -> false

let pp_status ppf s =
  Format.pp_print_string ppf
    (match s with
    | Delivered -> "delivered"
    | Looped -> "looped"
    | Blackholed -> "blackholed")

let walk_one ~dest ~start ~step ~src ~max_hops =
  let rec go v s hops =
    if v = dest then Delivered
    else if hops > max_hops then Looped
    else
      match step v s with
      | `Drop -> Blackholed
      | `Deliver -> Delivered
      | `Forward (u, s') -> go u s' (hops + 1)
  in
  go src start 0
