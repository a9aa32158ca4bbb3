(** A hierarchical timer wheel: O(1) arm and cancel, exact next-deadline
    queries, and bulk firing in deterministic order.

    This is the runtime's single timer store, serving both clocks:

    - the {e simulated} clock jumps to {!next_deadline} when no thread is
      runnable (the seed semantics, byte-compatible with the golden
      traces);
    - the {e real} event manager uses {!next_deadline} as the epoll/poll
      timeout, so sleeping threads wake without a per-call clock thread
      or an O(n) scan over live timers.

    Four levels of 256 slots each (1 tick = 1 µs, horizon 2^32 ticks,
    beyond that an overflow list). Each slot is a doubly linked list, so
    {!cancel} unlinks its entry at once: the wheel holds only live
    entries, and memory stays flat however many timers are armed and
    cancelled without ever firing.

    Determinism: entries firing at the same instant are returned in
    {e descending insertion order}, which is the seed runtime's wake
    order for same-deadline timers (its list consed newest first); across
    instants, ascending deadline. *)

type 'a t
(** A wheel holding payloads of type ['a]. Not thread-safe; owned by one
    scheduler. *)

type 'a entry
(** A handle to one armed timer, for {!cancel}. *)

val create : ?start:int -> unit -> 'a t
(** A fresh wheel whose clock starts at [start] (default 0) ticks. *)

val add : 'a t -> deadline:int -> 'a -> 'a entry
(** Arm a timer at absolute tick [deadline]. A deadline already in the
    past fires at the current instant. O(1). *)

val cancel : 'a t -> 'a entry -> unit
(** Withdraw an entry: it leaves its slot at once, in O(1) and without
    allocating. Idempotent, and a no-op once the entry has fired. *)

val live : 'a t -> int
(** Armed-and-not-cancelled entries — the "is any timer pending" the
    deadlock watchdog asks. *)

val next_deadline : 'a t -> int option
(** The exact earliest deadline, or [None] when no timer is pending.
    Bounded slot walk (≤ 256 probes per level) plus a content scan of
    the first occupied slot — never a scan over all entries except in
    the far-future overflow case. *)

val advance : 'a t -> now:int -> 'a list
(** Move the wheel's clock to [now] and return every payload whose
    deadline is ≤ [now]: ascending deadline, and within one deadline
    descending insertion order (see the determinism note above). *)
