(* Structure of arrays: entry [i] is ([times.(i)], [seqs.(i)],
   [payloads.(i)]). Times live in an unboxed float array, so pushing and
   popping box nothing; sifting moves a hole instead of swapping. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
  filler : 'a;  (** occupies every payload slot at or beyond [size] *)
}

let create ~filler =
  { times = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0; filler }

let grow t =
  let cap = Array.length t.times in
  let new_cap = max 16 (cap * 2) in
  let times = Array.make new_cap 0. and seqs = Array.make new_cap 0 in
  let payloads = Array.make new_cap t.filler in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.payloads 0 payloads 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

let push t ~time payload =
  if Float.is_nan time then invalid_arg "Event_heap.push: NaN time";
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  (* sift the hole up from the end; [seq] is the largest so far, so on an
     equal time the new entry never passes its parent *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if time < times.(parent) then begin
      times.(!i) <- times.(parent);
      seqs.(!i) <- seqs.(parent);
      payloads.(!i) <- payloads.(parent);
      i := parent
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  payloads.(!i) <- payload

let pop t =
  if t.size = 0 then invalid_arg "Event_heap.pop: empty heap";
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  let top = payloads.(0) in
  let n = t.size - 1 in
  t.size <- n;
  let time = times.(n) and seq = seqs.(n) and payload = payloads.(n) in
  (* clear the vacated slot so the popped payload can be collected *)
  payloads.(n) <- t.filler;
  if n > 0 then begin
    (* sift the hole down from the root and drop the last entry into it *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (times.(r) < times.(l)
               || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          payloads.(!i) <- payloads.(c);
          i := c
        end
        else continue := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    payloads.(!i) <- payload
  end;
  top

let min_time t =
  if t.size = 0 then invalid_arg "Event_heap.min_time: empty heap";
  t.times.(0)

let size t = t.size
let is_empty t = t.size = 0
