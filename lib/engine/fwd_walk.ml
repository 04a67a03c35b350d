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
