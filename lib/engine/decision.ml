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

(* --- cached alternate picks ------------------------------------------ *)

type pick = {
  mutable slot : int;
  mutable score : int;
  mutable against : Route.t option;
}

let fresh_pick () = { slot = -1; score = 0; against = None }
let no_change = -1
let several = -2

(* [c] (at [slot], kept) replaces the pick if it scores lower, ties to
   [better] *)
let offer pk rib ~score slot c =
  let sc = score c in
  if
    pk.slot < 0 || sc < pk.score
    || (sc = pk.score && better c (Option.get rib.(pk.slot)))
  then begin
    pk.slot <- slot;
    pk.score <- sc
  end

let rescan pk ~keep ~score rib =
  pk.slot <- -1;
  for s = 0 to Array.length rib - 1 do
    match rib.(s) with
    | Some c when keep c -> offer pk rib ~score s c
    | Some _ | None -> ()
  done

let repick pk ~best ~changed ~keep ~score rib =
  if
    pk.against != best
    || changed = several
    || (changed >= 0 && changed = pk.slot)
  then begin
    pk.against <- best;
    rescan pk ~keep ~score rib
  end
  else if changed >= 0 then begin
    match rib.(changed) with
    | Some c when keep c -> offer pk rib ~score changed c
    | Some _ | None -> ()
  end;
  if pk.slot < 0 then None else rib.(pk.slot)

let pick_agrees pk ~best ~keep ~score rib =
  pk.against != best
  ||
  let reference =
    select_by ~keep
      (fun alt cur ->
        let sa = score alt and sc = score cur in
        sa < sc || (sa = sc && better alt cur))
      rib
  in
  (if pk.slot < 0 then None else rib.(pk.slot)) == reference
