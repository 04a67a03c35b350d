let better (a : Route.t) (b : Route.t) =
  let pa = Relationship.local_pref a.cls and pb = Relationship.local_pref b.cls in
  if pa <> pb then pa > pb
  else
    let la = Route.length a and lb = Route.length b in
    if la <> lb then la < lb
    else
      match (a.as_path, b.as_path) with
      | [], _ -> true
      | _ :: _, [] -> false
      | x :: _, y :: _ -> x < y

let select = function
  | [] -> None
  | r :: rest ->
    Some (List.fold_left (fun acc r -> if better r acc then r else acc) r rest)

let select_by ?(keep = fun _ -> true) better rib =
  let best = ref None in
  for s = 0 to Array.length rib - 1 do
    match (rib.(s), !best) with
    | None, _ -> ()
    | Some r, _ when not (keep r) -> ()
    | (Some _ as c), None -> best := c
    | (Some r as c), Some b -> if better r b then best := c
  done;
  !best

let select_rib rib = select_by better rib
