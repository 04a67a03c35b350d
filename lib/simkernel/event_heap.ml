type 'a cell = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable data : 'a cell array;
  mutable size : int;
  mutable next_seq : int;
  empty : 'a cell;  (** occupies every slot at or beyond [size] *)
}

let create ~filler =
  {
    data = [||];
    size = 0;
    next_seq = 0;
    empty = { time = infinity; seq = max_int; payload = filler };
  }

let cell_lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let new_cap = max 16 (cap * 2) in
    let data = Array.make new_cap t.empty in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let push t ~time payload =
  if Float.is_nan time then invalid_arg "Event_heap.push: NaN time";
  let cell = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  grow t;
  (* sift up *)
  let i = ref t.size in
  t.size <- t.size + 1;
  t.data.(!i) <- cell;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if cell_lt t.data.(!i) t.data.(parent) then begin
      let tmp = t.data.(parent) in
      t.data.(parent) <- t.data.(!i);
      t.data.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let pop_min t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    let last = t.data.(t.size) in
    (* clear the vacated slot so the popped payload can be collected *)
    t.data.(t.size) <- t.empty;
    if t.size > 0 then begin
      t.data.(0) <- last;
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && cell_lt t.data.(l) t.data.(!smallest) then smallest := l;
        if r < t.size && cell_lt t.data.(r) t.data.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = t.data.(!smallest) in
          t.data.(!smallest) <- t.data.(!i);
          t.data.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some (top.time, top.payload)
  end

let peek_time t = if t.size = 0 then None else Some t.data.(0).time
let size t = t.size
let is_empty t = t.size = 0
