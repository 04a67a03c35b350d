type t = { as_path : Topology.vertex list; cls : Relationship.t }

let origin = { as_path = []; cls = Relationship.Customer }
let learned_from r = match r.as_path with [] -> None | nh :: _ -> Some nh
let via r v = match r.as_path with nh :: _ -> nh = v | [] -> false

let same_neighbor a b =
  match (a.as_path, b.as_path) with
  | x :: _, y :: _ -> x = y
  | [], [] -> true
  | _ :: _, [] | [], _ :: _ -> false

let same_path a b = a == b || List.equal Int.equal a.as_path b.as_path

let equal a b =
  a == b
  || Relationship.equal a.cls b.cls
     && List.equal Int.equal a.as_path b.as_path

let length r = List.length r.as_path
let contains r v = List.mem v r.as_path

let pp ppf r =
  Format.fprintf ppf "[%a] via %a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       Format.pp_print_int)
    r.as_path Relationship.pp r.cls
