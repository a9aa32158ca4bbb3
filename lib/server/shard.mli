(** The §11 server, sharded: N serving shards, each connection's shard
    named by the consistent-hash ring {!Hactor.Router}. Each shard is a
    supervised actor ({!Hactor.Actor.body} as a {!Hsup.Sup} child)
    pulling accepted connections off its own mailbox and forking
    [Transient] connection workers, with {!Hsup.Bulkhead} backpressure
    per shard.

    The tree:
    {v
    shard-root (One_for_one, Permanent children)
    ├── shard-0                 owns a nested tree:
    │     shard-sup-0 (One_for_one)
    │     ├── shard-serve      the shard actor (Permanent)
    │     └── conn-worker*     one per connection (Transient)
    ├── shard-1 ...
    └── accept-pump            only with an explicit ?backend
    v}

    There is no routing thread: the caller of {!connect} (or the accept
    pump) picks the shard on the immutable ring and pushes straight into
    that shard's mailbox, masked, with the routed-backlog count undone
    if a kill interrupts the push.

    Killing anything — a worker, a shard actor, a nested supervisor,
    even shard-root — degrades (503s, closed connections, a routed
    backlog held in mailboxes until the restart) and never wedges: the
    [actor] kill-sweep suite drives a client load against every one of
    those targets. Each connection worker runs the request pipeline
    {!Server} runs — the same code, not a copy: progress
    protocol, degrade-on-restart, bounded writes, absorbed read faults,
    escaping write faults, and keep-alive (with [config.keep_alive] a
    worker serves requests off one connection until close/timeout/parse
    error). A shard's worker is admitted through its shard's bulkhead
    and feeds its shard's breaker.

    Overload posture (the pieces the [overload] sweep drives):
    every routed connection carries an {!Hsup.Deadline} minted at the
    route point, so mailbox/queue time counts against the request and a
    worker sheds (503) anything whose budget lapsed before it started;
    each shard's bulkhead honours [config.queue_target] (CoDel
    queue-deadline shedding); [config.mailbox_bound] caps each shard
    mailbox (shed-newest, counted in [server_rejected_total]); and each
    shard owns a {!Hsup.Breaker} fed by its workers — while it rejects,
    the route points answer an immediate degraded 503 {e instead of
    queueing} (brownout), so a sick shard gets no new load. *)

open Hio

type t

val start :
  ?config:Server.config ->
  ?metrics:Obs.Metrics.t ->
  ?backend:Ev.Backend.t ->
  shards:int ->
  Server.handler ->
  t Io.t
(** Start the tree with [shards] serving shards (≥ 1; per-shard
    capacity is [config.max_concurrent]/[max_waiting]). Reuses
    {!Server.config} and {!Server.stats}; [supervised] is ignored (a
    sharded server is always supervised). Metrics carry a
    [layer="shard"] label so a shared registry can hold both servers. *)

val connect : ?key:string -> t -> Http.Conn.t Io.t
(** A client connection. Without [?backend] at {!start}: a simulated
    pipe pushed, in the calling thread, into the mailbox of the shard
    that owns [key] on the consistent-hash ring (default key: a
    per-server sequence ["conn-N"]); a connection queued in a dead
    shard's mailbox is served after the restart; if that shard's
    breaker is rejecting, the pipe carries an immediate degraded 503
    instead (brownout). With a
    backend: [l_dial] bounded by [config.dial_timeout] (the one
    client-dial patience knob, shared with {!Server.connect}); failures
    are counted in [client_dial_errors_total{kind}] before re-raising.
    @raise Server.Server_stopped after {!shutdown}.
    @raise Server.Dial_timeout as {!Server.connect}. *)

val shutdown : t -> Server.stats Io.t
(** Stop accepting, quiesce (queued + in-flight drain, bounded by a
    multiple of the request timeout — a killed tree cannot drain, so
    the wait also bails when shard-root is dead), tear the whole tree
    down through [Sup.stop], and return totals. [restarts] sums the
    root and every nested shard supervisor. *)

val owner :
  t -> string -> [ `Serve of Http.Conn.t * Hsup.Deadline.t ] Hactor.Actor.t
(** The serving actor of the shard that owns a key (tests, kill
    drivers). *)

val supervisor : t -> Hsup.Sup.t
(** shard-root. *)

val metrics : t -> Obs.Metrics.t
val shards : t -> int
