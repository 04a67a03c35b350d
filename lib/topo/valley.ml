type step = Up | Flat | Down | Side

let step_of_rel : Relationship.t -> step = function
  | Provider -> Up (* forwarding to my provider: climbing *)
  | Peer -> Flat
  | Customer -> Down
  | Sibling -> Side

let steps t path =
  let rec loop = function
    | [] | [ _ ] -> []
    | u :: (v :: _ as rest) -> begin
      match Topology.rel t u v with
      | None ->
        invalid_arg
          (Printf.sprintf "Valley.steps: no link %d-%d" (Topology.asn t u)
             (Topology.asn t v))
      | Some r -> step_of_rel r :: loop rest
    end
  in
  loop path

(* State machine over Up* Flat? Down*, with Side transparent. *)
let is_valley_free t path =
  match path with
  | [] | [ _ ] -> true
  | _ ->
    let rec check state = function
      | [] -> true
      | s :: rest -> begin
        match (state, s) with
        | _, Side -> check state rest
        | `Uphill, Up -> check `Uphill rest
        | `Uphill, Flat -> check `Peered rest
        | (`Uphill | `Peered | `Downhill), Down -> check `Downhill rest
        | `Peered, (Up | Flat) | `Downhill, (Up | Flat) -> false
      end
    in
    check `Uphill (steps t path)

let decompose t path =
  if not (is_valley_free t path) then
    invalid_arg "Valley.decompose: path is not valley-free";
  match path with
  | [] -> ([], [])
  | [ v ] -> ([ v ], [])
  | _ ->
    let ss = steps t path in
    (* index of the first Down step, if any *)
    let rec first_down i = function
      | [] -> None
      | Down :: _ -> Some i
      | (Up | Flat | Side) :: rest -> first_down (i + 1) rest
    in
    begin
      match first_down 0 ss with
      | None -> (path, [])
      | Some i ->
        (* the downhill portion starts at vertex [i] (the provider end of
           the first provider→customer link) *)
        let rec split k = function
          | [] -> ([], [])
          | v :: rest ->
            if k < i then
              let up, down = split (k + 1) rest in
              (v :: up, down)
            else ([], v :: rest)
        in
        split 0 path
    end

(* The same state machine as [is_valley_free], walked once: the first
   provider->customer hop starts the downhill suffix. *)
let downhill_or_whole t path =
  let rec go state down = function
    | u :: (v :: _ as rest) as here -> begin
      let s = Topology.slot t u v in
      if s < 0 then path
      else
        match (state, step_of_rel (snd (Topology.neighbors t u).(s))) with
        | _, Side -> go state down rest
        | `Uphill, Up -> go `Uphill down rest
        | `Uphill, Flat -> go `Peered down rest
        | (`Uphill | `Peered), Down -> go `Downhill here rest
        | `Downhill, Down -> go `Downhill down rest
        | (`Peered | `Downhill), (Up | Flat) -> path
    end
    | [] | [ _ ] -> down
  in
  go `Uphill [] path

let downhill_nodes t path () =
  let _, down = decompose t path in
  List.sort_uniq compare down

let exists_path ?(avoid = fun _ -> false) t ~src ~dst =
  if src = dst then true
  else begin
    let n = Topology.num_vertices t in
    (* phases: 0 = uphill, 1 = crossed a peer link, 2 = downhill *)
    let visited = Array.make (n * 3) false in
    let queue = Queue.create () in
    let push v phase =
      let idx = (v * 3) + phase in
      if not visited.(idx) then begin
        visited.(idx) <- true;
        Queue.add (v, phase) queue
      end
    in
    push src 0;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let v, phase = Queue.pop queue in
      Array.iter
        (fun (w, r) ->
          let next_phase =
            match ((r : Relationship.t), phase) with
            | Provider, 0 -> Some 0
            | Peer, 0 -> Some 1
            | Customer, _ -> Some 2
            | Sibling, p -> Some p
            | (Provider | Peer), _ -> None
          in
          match next_phase with
          | Some p when w = dst -> begin
            ignore p;
            found := true
          end
          | Some p when not (avoid w) -> push w p
          | Some _ | None -> ())
        (Topology.neighbors t v)
    done;
    !found
  end

let downhill_disjoint t p1 p2 =
  let endpoints p =
    match p with
    | [] -> invalid_arg "Valley.downhill_disjoint: empty path"
    | x :: _ -> (x, List.nth p (List.length p - 1))
  in
  let s1, d1 = endpoints p1 and s2, d2 = endpoints p2 in
  if s1 <> s2 || d1 <> d2 then
    invalid_arg "Valley.downhill_disjoint: paths differ in endpoints";
  let n1 = downhill_nodes t p1 () and n2 = downhill_nodes t p2 () in
  let module S = Set.Make (Int) in
  let set1 = S.of_list n1 and set2 = S.of_list n2 in
  let shared = S.inter set1 set2 in
  S.subset shared (S.of_list [ s1; d1 ])
