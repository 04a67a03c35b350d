(** Binary min-heap of timestamped events with FIFO tie-breaking.

    Events pushed with equal timestamps pop in insertion order, which makes
    simulations deterministic regardless of heap internals.

    Layout: times, insertion numbers and payloads sit in three parallel
    arrays (times unboxed), and sifting moves a hole rather than swapping
    entries, so {!push} allocates only when the arrays grow and {!pop} and
    {!min_time} never allocate. *)

type 'a t

val create : filler:'a -> 'a t
(** An empty heap. [filler] occupies vacated slots, so popped payloads
    are not kept reachable by the heap. *)

val push : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument if [time] is NaN. *)

val min_time : 'a t -> float
(** Timestamp of the earliest event, which stays queued.
    @raise Invalid_argument when the heap is empty. *)

val pop : 'a t -> 'a
(** Remove the earliest event and return its payload (its time is
    {!min_time} just before the call).
    @raise Invalid_argument when the heap is empty. *)

val size : 'a t -> int

val is_empty : 'a t -> bool
