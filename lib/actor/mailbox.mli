(** A typed actor mailbox: a {!Hio_std.Chan} in arrival order, plus a
    {e stash} for selective receive — messages the current receive
    pattern does not match are parked (still in arrival order) and
    offered again to later receives, Erlang-style.

    Ownership discipline: any thread may {!push}; exactly one thread —
    the owning actor — calls {!receive}/{!receive_timeout}. The stash is
    plain mutable state touched only inside atomic [lift] steps of that
    single consumer, so no lock is needed.

    Depth accounting: {!length} (queued + stashed) is tracked on every
    push/consume, with an optional [mailbox_depth{name}] gauge whose
    high-water mark is the worst depth. With [bound] the mailbox becomes
    bounded with a deterministic {e shed-newest} overflow policy: a push
    into a full mailbox drops the {e new} message (reported to
    [on_drop]) rather than blocking the pusher or evicting an older
    message someone may already be waiting on — under overload the
    pushers keep going and the load-shedding layers above decide what
    the lost message costs.

    Asynchronous-exception safety (the reason this module exists rather
    than "just use [Chan]"): the whole receive loop runs under
    {!Hio.Io.mask_}. The only interruptible point is the [Chan.recv]
    wait itself (§5.3: blocked threads are killable), so a kill can
    never land {e between} taking a message off the channel and either
    returning it or stashing it — messages are delivered once or not
    taken at all, never lost in flight. *)

open Hio

type 'a t

val create :
  ?bound:int ->
  ?on_drop:('a -> unit) ->
  ?metrics:Obs.Metrics.t ->
  ?name:string ->
  unit ->
  'a t Io.t
(** Unbounded by default. [bound] caps {!length}; an overflowing push is
    dropped (shed-newest) after calling [on_drop] on the message (a pure
    callback inside the push's atomic step — for accounting, not I/O).
    [metrics] registers a [mailbox_depth{name}] gauge (default name
    ["mailbox"]) whose high-water mark is the worst depth seen. *)

val push : 'a t -> 'a -> unit Io.t
(** Enqueue a message; safe from any thread. On a full bounded mailbox
    the message is dropped (see {!create}). Runs masked, and waits only
    while another pusher holds the channel's write cursor; a kill
    delivered at that interruptible wait (§5.3) enqueues nothing and
    leaves {!length} as it was. *)

val push_urgent : 'a t -> 'a -> unit Io.t
(** {!push} that ignores the bound and always completes — for control
    messages (stop requests, monitor downs) whose exactly-once/liveness
    contracts must survive overload and a second kill. A kill delivered
    while it waits is re-posted to the pusher and the send retried
    ({!Hio_std.Combinators.critical}), so it surfaces at the pusher's
    next interruptible point instead. Still counted in {!length}. *)

val receive : 'a t -> ('a -> 'b option) -> 'b Io.t
(** [receive t f] returns [x] for the first message [m] (stash first,
    then arrivals) with [f m = Some x], removing [m]. Non-matching
    arrivals are appended to the stash. Blocks interruptibly while the
    mailbox has no matching message. *)

val receive_timeout : int -> 'a t -> ('a -> 'b option) -> 'b option Io.t
(** Like {!receive} with a deadline of virtual µs on the timer wheel.
    Returns [None] on expiry. Built on {!Hio.Io.arm_timer} in the
    calling thread — no helper thread that could be holding a message
    when killed — and the timer is cancelled (posted token purged)
    before returning, so no ghost wakeup survives. *)

val next : 'a t -> 'a Io.t
(** [receive t Option.some]: the plain FIFO head. *)

val stashed : 'a t -> int Io.t
(** Messages currently parked by selective receives (tests/metrics). *)

val length : 'a t -> int Io.t
(** Messages in the mailbox right now: queued arrivals + stashed. *)
