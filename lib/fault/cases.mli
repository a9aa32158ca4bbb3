(** Ready-made sweep cases over the §7 abstractions ({!Hio_std}) and the
    §11 server ({!Hserver}): each does its concurrent work in the armed
    window, then disarms and probes its own invariants with
    {!Sweep.require} — semaphore units conserved, barrier arrivals
    withdrawn, channel cursors restored, cleanup flags consistent, the
    server quiescent after shutdown. *)

open Hserver

val join : 'a Hio_std.Task.t -> unit Hio.Io.t
(** Await a task, discarding its outcome — unless the awaited exception
    was aimed at {e us} while waiting (the task is still unfinished), in
    which case it is re-thrown so a killed main dies properly. The
    standard way for a sweep case to reap children that may themselves
    be kill victims. *)

(** {1 The serving protocol}

    Every server case — [server-requests], [sup-server], [actor-shard],
    and the chaos and overload suites' [io-server], [overload-server],
    [overload-shard] — checks one contract through {!serve}, and
    supplies only a {!service} value:

    - {b clients}: each arrives (at once, or after its [at] delay),
      connects (routed by its [key] on a sharded tree), sends
      [GET /hello] and reads the answer within [timeout]. The result is
      an {!outcome}; transient transport errors and
      {!Hserver.Server.Dial_timeout} are [Transport].
    - {b lawful outcomes}: after the kill window (and the chaos plan)
      is disarmed, every client that finished holds [Status 200],
      [Status 503], [Status 504], [Timed_out] or [Transport]. Only the
      kill exempts a client: one that ended in [Kill_thread] is the
      victim; any other exception fails the run, named in the message.
    - {b steady state}: each probe key answers 200 within [attempts]
      tries, 300 µs apart. If the first key fails, that is a violation
      while the root supervisor is still alive; a dead root gets one
      fresh tree on a clean transport, whose probes must answer 200
      before it is shut down. Once a key has answered 200, every later
      key must too, whatever the root. Without a chaos plan the
      transport is clean, so a probe that meets a transport fault fails
      the run.
    - {b shutdown}: after it, connect raises
      {!Hserver.Server.Server_stopped}. *)

type outcome = Status of int | Timed_out | Transport

type tree = Single | Sharded of int
(** A {!Hserver.Server}, or a {!Hserver.Shard} of [n] shards. *)

type client = { at : int option; key : string option }
(** Arrival delay in virtual µs ([None]: start at once, no [sleep]) and
    routing key ([None]: the server's own). *)

type service = {
  name : string;  (** the case name, prefixed to every violation *)
  tree : tree;
  config : Server.config;
  handler : Server.handler;
  clients : client list;
  timeout : int;  (** per request, clients and probes alike *)
  probes : string option list;  (** probe keys, probed in order *)
  attempts : int;  (** tries per probe key *)
}

val hello : Server.handler
(** Answers [/hello] with 200. *)

val at_once : int -> client list
(** [n] unkeyed clients that start at once. *)

val serve :
  ?chaos:Ev.Chaos.ctl ->
  service ->
  (outcome option array * Obs.Metrics.t) Hio.Io.t
(** Run the protocol: start the tree, run the clients in the armed
    window, then disarm and check lawful outcomes, steady state and
    refusal after shutdown. Without [chaos] the tree runs on its
    default transport (a server's own sim listener, a shard's keyed
    in-process connect); with it, on an [Ev.Backend.sim ()] wrapped
    through that ctl, and the ctl is disarmed with the kill window.
    Returns each client's outcome ([None] for a kill victim) and the
    tree's metrics registry. *)

val std : Sweep.case list
(** [sem-units], [barrier-withdraw], [chan-conserve], [bchan-conserve],
    [mvar-lock], [cleanup-flags] — swept with {!Plan.Acting}. *)

val server : Sweep.case
(** [server-requests]: two clients against the §11 server under the
    serving protocol. Sweep it with {!Plan.Acting} and with
    [Named "listener"] / [Named "conn-worker"] for the targeted "kill the
    accept loop mid-accept" / "kill a worker mid-request" adversaries. *)

val server_targets : Plan.target list
(** The three adversaries above, in that order. *)

val sup_server : Sweep.case
(** Four clients saturate the supervised server (capacity 2 + 1
    waiting, so the baseline sheds), under the serving protocol with
    two probes. *)

val actor_link : Sweep.case
(** A monitored, linked child that crashes on demand: whatever single
    kill lands (watcher, parent, child, main), a monitor's [Down]
    arrives {e at most} once — and exactly once when both the watcher
    and the armed monitor outlived the watched actor. The link must
    always unblock the parent (an actor death is never silent). *)

val actor_call : Sweep.case
(** Two clients [call] a counter server: a killed server fails waiting
    calls fast via its exit protocol (no timeout wedge); if the server
    survived, its state is bounded by the completed calls and a
    graceful [stop] drains the mailbox FIFO before acknowledging. *)

val sup : (Sweep.case * Plan.target) list
(** The supervision cases with their kill targets: the one-for-one,
    all-for-one, retry-over-breaker and bulkhead cases, then
    {!sup_server} against [Acting], the supervisor, the listener and a
    worker. *)

val actor : (Sweep.case * Plan.target) list
(** The actor cases with their kill targets: {!actor_link},
    {!actor_call} and a token ring, then the sharded server — two keyed
    clients against 2 shards — against [Acting] and every layer of its
    tree: [shard-0], [shard-sup-0], [shard-serve], [conn-worker] and
    [shard-root]. *)

val naive_lock : Sweep.case
(** A deliberately §5.2-violating lock (bare [take]/[put], nothing
    masked, no restore) — the harness must find and shrink its wedge;
    used by the tests to validate the sweep itself, never part of the
    shipped suites. *)
