(** A bulkhead: at most [capacity] calls run concurrently, at most
    [max_waiting] more may queue for a slot, and everything beyond that is
    {e shed} immediately — the caller gets [Error `Shed] instead of an
    unbounded queue. Admission accounting is a single atomic step inside
    {!Hio_std.Combinators.bracket}, so a killed or timed-out occupant
    always returns both its queue position and its semaphore unit.

    With [queue_target] the waiting room additionally gets CoDel-style
    {e queue-deadline} admission: a waiter's sojourn is tracked on the
    virtual clock, and one that has waited longer than the target is shed
    from the queue ([Error `Shed]) instead of eventually occupying a slot
    it can no longer use in time. The bounded wait arms the timer in the
    waiting thread itself and catches the signal around [Sem.wait]
    (whose withdraw-on-exception conserves units) — wrapping the wait in
    [Combinators.timeout] would let a kill separate the acquired unit
    from its release. *)

open Hio

type t

val create :
  ?name:string ->
  ?metrics:Obs.Metrics.t ->
  ?queue_target:int ->
  capacity:int ->
  ?max_waiting:int ->
  unit ->
  t Io.t
(** [max_waiting] defaults to [0] (shed as soon as all slots are busy).
    [queue_target] (µs, virtual; off by default) bounds a waiter's
    sojourn in the waiting room. The registry carries
    [sup_bulkhead_entered{name}] (occupants + waiters, with its
    high-water mark) and [sup_bulkhead_shed_total{name}]; with
    [queue_target] also [sup_bulkhead_queue_depth{name}] (current CoDel
    waiters, high-water = worst queue), [sup_bulkhead_queue_delay{name}]
    (last waiter's sojourn in µs, high-water = worst sojourn — bounded
    by the target plus one scheduling quantum) and
    [sup_bulkhead_queue_shed_total{name}]. *)

val run : t -> 'a Io.t -> ('a, [ `Shed ]) result Io.t
(** Admit-or-shed, then run the call inside the concurrency semaphore.
    Exceptions from the call (including asynchronous ones) propagate
    after the slot accounting is released. With [queue_target], a waiter
    whose sojourn exceeds the target resolves to [Error `Shed]. *)

val entered : t -> int Io.t
(** Occupants plus waiters right now (snapshot, for tests/monitoring). *)
