type outcome = {
  transient : bool array;
  final : Fwd_walk.status array;
  checkpoints : int;
  converged_at : float;
  last_status_change : float;
}

let transient_count o =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 o.transient

(* The one probe loop: drive the simulation in [interval]-sized slices,
   probing the forwarding plane after every slice in which events fired,
   until the queue drains or a budget runs out. *)
let run_guarded sim ?(interval = 0.02) ?(max_events = 50_000_000)
    ?(max_vtime = infinity) ?(on_status = fun ~changed:_ _ _ -> ()) ~probe () =
  (* [not (interval > 0.)] also rejects NaN, which would otherwise run the
     whole reconvergence as one slice *)
  if not (interval > 0.) then
    invalid_arg "Transient.run_guarded: non-positive or NaN interval";
  let first = probe () in
  let n = Array.length first in
  let troubled = Array.make n false in
  let prev = ref first in
  let last_status_change = ref (Sim.now sim) in
  (* one per-AS diff against the previous checkpoint: it feeds the
     troubled set, [last_status_change] and the observer. The previous
     array itself means no status changed (the probe contract), and it
     was already folded in. *)
  let note statuses =
    let before = !prev in
    if statuses != before then begin
      let any = ref false in
      Array.iteri
        (fun v s ->
          if not (Fwd_walk.equal_status s Fwd_walk.Delivered) then
            troubled.(v) <- true;
          if not (Fwd_walk.equal_status s before.(v)) then begin
            any := true;
            on_status ~changed:true v s
          end)
        statuses;
      if !any then last_status_change := Sim.now sim;
      prev := statuses
    end
  in
  (* baseline snapshot: every AS's status at the observation start, before
     any checkpoint — reported unchanged so observers can seed their state *)
  Array.iteri
    (fun v s ->
      on_status ~changed:false v s;
      if not (Fwd_walk.equal_status s Fwd_walk.Delivered) then
        troubled.(v) <- true)
    first;
  let checkpoints = ref 1 in
  let events_budget = ref max_events in
  let verdict = ref Sim.Converged in
  while Sim.pending sim > 0 && !verdict = Sim.Converged do
    if Sim.now sim >= max_vtime then verdict := Sim.Time_budget_exhausted
    else begin
      let upto = Float.min (Sim.now sim +. interval) max_vtime in
      let before = Sim.events_processed sim in
      Sim.run ~until:upto ~max_events:(max 0 !events_budget) sim;
      let processed = Sim.events_processed sim - before in
      events_budget := !events_budget - processed;
      if !events_budget <= 0 && Sim.pending sim > 0 then
        verdict := Sim.Event_budget_exhausted
      else if processed > 0 && Sim.pending sim > 0 then begin
        (* nothing happened, nothing changed: skip the redundant probe *)
        note (probe ());
        incr checkpoints
      end
    end
  done;
  let final = probe () in
  incr checkpoints;
  (* the final probe is not a [note]d checkpoint (it never moves
     [last_status_change] or the troubled set — historical semantics);
     report its deltas as unchanged corrections so observers still see the
     end state of every AS *)
  if final != !prev then
    Array.iteri
      (fun v s ->
        if not (Fwd_walk.equal_status s !prev.(v)) then
          on_status ~changed:false v s)
      final;
  let transient =
    Array.mapi
      (fun v bad -> bad && Fwd_walk.equal_status final.(v) Fwd_walk.Delivered)
      troubled
  in
  ( {
      transient;
      final;
      checkpoints = !checkpoints;
      converged_at = Sim.now sim;
      last_status_change = !last_status_change;
    },
    !verdict )
