(* Cell codes: a walked cell holds its status's code (0-2); [unknown]
   marks a cell not walked since it was last cleared, [on_stack] a cell on
   the current walk's path (reaching it again closes a loop). *)
let unknown = 3
let on_stack = 4

let code : Fwd_walk.status -> int = function
  | Delivered -> 0
  | Looped -> 1
  | Blackholed -> 2

let status_of_code : int -> Fwd_walk.status = function
  | 0 -> Delivered
  | 1 -> Looped
  | _ -> Blackholed

(* Cell [c] is (AS [c / k], packet state [c mod k]). Every walked cell
   sits in the predecessor list of its successor cell (a doubly linked
   list threaded through [next_pred]/[prev_pred]), so the cells whose
   chain reaches a given cell are found without scanning the plane. The
   lists are built from [succ] at the first incremental probe after a
   whole-plane walk: a run that never probes incrementally (a cold start)
   never allocates them. *)
type t = {
  n : int;
  mutable whole : bool;  (** the next probe walks everything *)
  mutable k : int;  (** packet states; 0 until the first probe *)
  mutable cell : int array;
  mutable succ : int array;
      (** a walked cell's successor cell; -1 when the walk resolved at this
          hop or the next hop is the destination *)
  mutable linked : bool;  (** the predecessor lists match [succ] *)
  mutable first_pred : int array;
  mutable next_pred : int array;
  mutable prev_pred : int array;
  mutable start_cell : int array;
      (** per AS: the cell its status was read from (-1 at the
          destination) *)
  mutable queued : Bytes.t;  (** per AS: in [pending] *)
  mutable pending : int array;
      (** ASes to re-walk: the dirty ones first, then those whose start
          cell was cleared *)
  mutable npending : int;
  mutable statuses : Fwd_walk.status array;  (** the last returned *)
}

let create n =
  {
    n;
    whole = true;
    k = 0;
    cell = [||];
    succ = [||];
    linked = false;
    first_pred = [||];
    next_pred = [||];
    prev_pred = [||];
    start_cell = [||];
    queued = Bytes.empty;
    pending = [||];
    npending = 0;
    statuses = [||];
  }

let queue m v =
  if Bytes.get m.queued v = '\000' then begin
    Bytes.set m.queued v '\001';
    m.pending.(m.npending) <- v;
    m.npending <- m.npending + 1
  end

(* Before the first probe, and while the whole plane is dirty, the next
   probe walks everything anyway. *)
let touch m v = if not m.whole then queue m v

let touch_all m = m.whole <- true

let link m c d =
  m.succ.(c) <- d;
  if d >= 0 then begin
    let h = m.first_pred.(d) in
    m.next_pred.(c) <- h;
    m.prev_pred.(c) <- -1;
    if h >= 0 then m.prev_pred.(h) <- c;
    m.first_pred.(d) <- c
  end

let unlink m c =
  let d = m.succ.(c) in
  if d >= 0 then begin
    let p = m.prev_pred.(c) and nx = m.next_pred.(c) in
    if p >= 0 then m.next_pred.(p) <- nx else m.first_pred.(d) <- nx;
    if nx >= 0 then m.prev_pred.(nx) <- p;
    m.succ.(c) <- -1
  end

(* Forget cell [c] and, transitively, every cell whose chain runs through
   it; an AS whose status was read from a forgotten cell is queued for a
   re-walk. Each cleared predecessor unlinks itself, so the list head
   advances until the list is empty. *)
let rec clear m c =
  if m.cell.(c) <> unknown then begin
    m.cell.(c) <- unknown;
    unlink m c;
    let v = c / m.k in
    if m.start_cell.(v) = c then queue m v;
    while m.first_pred.(c) >= 0 do
      clear m m.first_pred.(c)
    done
  end

let allocate m k =
  let cells = m.n * k in
  m.k <- k;
  m.cell <- Array.make cells unknown;
  m.succ <- Array.make cells (-1);
  m.start_cell <- Array.make m.n (-1);
  m.queued <- Bytes.make m.n '\000';
  m.pending <- Array.make m.n 0

let reset m =
  let cells = m.n * m.k in
  Array.fill m.cell 0 cells unknown;
  Array.fill m.succ 0 cells (-1);
  m.linked <- false;
  for i = 0 to m.npending - 1 do
    Bytes.set m.queued m.pending.(i) '\000'
  done;
  m.npending <- 0

let link_all m =
  let cells = m.n * m.k in
  if Array.length m.first_pred = 0 then begin
    m.first_pred <- Array.make cells (-1);
    m.next_pred <- Array.make cells (-1);
    m.prev_pred <- Array.make cells (-1)
  end
  else Array.fill m.first_pred 0 cells (-1);
  for c = 0 to cells - 1 do
    link m c m.succ.(c)
  done;
  m.linked <- true

let same_statuses a b =
  Array.length a = Array.length b
  && Array.for_all2 Fwd_walk.equal_status a b

let rewalk m ~dest ~start ~step ~state_id ~num_states =
  if m.k = 0 then allocate m num_states;
  let k = m.k in
  let cell_of v s =
    let sid = state_id s in
    assert (sid >= 0 && sid < k);
    (v * k) + sid
  in
  let rec visit c v s =
    let cc = m.cell.(c) in
    if cc = unknown then begin
      m.cell.(c) <- on_stack;
      let st : Fwd_walk.status =
        match step v s with
        | `Drop -> Blackholed
        | `Deliver -> Delivered
        | `Forward (u, s') ->
          if u = dest then Delivered
          else begin
            let d = cell_of u s' in
            if m.linked then link m c d else m.succ.(c) <- d;
            visit d u s'
          end
      in
      m.cell.(c) <- code st;
      st
    end
    else if cc = on_stack then Looped
    else status_of_code cc
  in
  (* the status of AS [v], re-deriving its start state *)
  let walk_from v =
    if v = dest then begin
      m.start_cell.(v) <- -1;
      Fwd_walk.Delivered
    end
    else begin
      let s = start v in
      let c = cell_of v s in
      m.start_cell.(v) <- c;
      visit c v s
    end
  in
  if m.whole then begin
    reset m;
    let fresh = Array.init m.n walk_from in
    m.whole <- false;
    if not (same_statuses fresh m.statuses) then m.statuses <- fresh
  end
  else begin
    if not m.linked then link_all m;
    for i = 0 to m.npending - 1 do
      let base = m.pending.(i) * k in
      for s = 0 to k - 1 do
        clear m (base + s)
      done
    done;
    (* copy on the first changed status: returned arrays stay immutable *)
    let out = ref m.statuses in
    for i = 0 to m.npending - 1 do
      let v = m.pending.(i) in
      Bytes.set m.queued v '\000';
      let st = walk_from v in
      if not (Fwd_walk.equal_status st !out.(v)) then begin
        if !out == m.statuses then out := Array.copy m.statuses;
        !out.(v) <- st
      end
    done;
    m.npending <- 0;
    m.statuses <- !out
  end;
  m.statuses

let probe m ~dest ~start ~step ~state_id ~num_states =
  if m.k <> 0 && num_states <> m.k then
    invalid_arg "Fwd_monitor.probe: number of packet states changed";
  if (not m.whole) && m.npending = 0 then m.statuses
  else rewalk m ~dest ~start ~step ~state_id ~num_states
