(** The fault-tolerant server of the paper's §11 prototype [8]: one thread
    per connection, a per-request timeout covering both the
    (interruptible, possibly trickling) read and the handler, and graceful
    shutdown by [throwTo].

    Since the supervision rework the server runs, by default, under an
    {!Hsup.Sup} tree: the accept loop is a [Permanent] child and every
    connection worker a [Transient] one, so a killed worker is restarted
    within the tree's intensity budget — the restarted incarnation
    degrades its half-served connection to a 503 rather than re-running
    the handler. Admission goes through an {!Hsup.Bulkhead}: at most
    [max_concurrent] requests in flight, at most [max_waiting] queued,
    everything beyond {e shed} with an immediate 503 instead of an
    unbounded queue. Set [supervised = false] for the original bare
    [forkIO]+semaphore prototype (kept for comparison benchmarks). Both
    modes, and {!Shard}, run the same connection worker; they differ
    only in how it is spawned and admitted.

    Every robustness property comes from a §7 combinator: workers release
    their admission slot via [bracket]; a killed or timed-out worker
    cannot wedge a connection (channel ends are restored per §5.2); the
    accept loop takes each connection and hands it to its worker under
    [mask], closing it if the hand-off is interrupted, so a kill never
    strands an accepted connection; and shutdown is a plain asynchronous
    exception into the accept loop.

    Since the overload rework every request carries an {!Hsup.Deadline}
    budget of [request_timeout] µs minted when the accept loop takes the
    connection: time spent waiting in the admission queue counts against
    the request, every nested bound derives from the remaining budget,
    and a request whose budget is exhausted before a worker picks it up
    is shed early with a 503 instead of burning a worker on a guaranteed
    504.

    Since the I/O-chaos hardening the per-request deadline also covers
    the {e response write} (a stalled or trickling reader cannot hold a
    worker past [request_timeout]); transport faults during the read —
    the peer reset, closed, or never finished its request — are absorbed
    as a counted close ([server_io_faults_total{kind}]) rather than
    escaping as crashes; a fault {e during} the response write escapes
    on purpose so the supervisor restarts the worker, whose fresh
    incarnation closes the broken connection; the accept loop survives
    transient accept failures; and the shutdown drain's 503s are
    individually bounded and fault-tolerant. The combined kill×I/O sweep
    ([chrun sweep --suite chaos]) holds all of this at zero failures. *)

open Hio

type handler = Http.request -> Http.response Io.t

type config = {
  request_timeout : int;
      (** µs per request, end to end {e including the response write} —
          virtual time by default, real time under a backend with an
          event source ([Ev.Real]) *)
  dial_timeout : int;
      (** µs budget for {!connect}'s [l_dial] when the server runs on an
          explicit backend; expiry raises {!Dial_timeout}. This is the
          {e single} knob for client-side dial patience — [Shard.connect]
          reuses it — and is deliberately generous (50ms = 250× the
          200µs [request_timeout]): it exists so a dead or fault-injected
          listener cannot strand a client forever, not to race healthy
          dials. Every failed dial is counted in
          [client_dial_errors_total{kind=timeout|refused|fds|reset|eof}]
          before the exception reaches the caller. *)
  max_concurrent : int;
  accept_queue : int;  (** listener backlog *)
  max_waiting : int;
      (** admission queue beyond [max_concurrent]; arrivals past it are
          shed with a 503 (supervised mode only) *)
  queue_target : int option;
      (** CoDel-style queue-deadline for the admission waiting room
          (supervised mode): a request whose sojourn in the bulkhead
          queue exceeds this many virtual µs is shed (503) instead of
          eventually occupying a worker it can no longer use within its
          deadline. [None] (default) keeps the plain bounded queue. See
          {!Hsup.Bulkhead}. *)
  mailbox_bound : int option;
      (** cap on each shard actor's mailbox ({!Shard} only): a routed
          connection arriving at a full mailbox is shed (dropped,
          counted) instead of growing the queue without bound — the
          client's own deadline turns the silence into a timeout.
          [None] (default) keeps mailboxes unbounded. *)
  supervised : bool;  (** run under a supervision tree (default) *)
  restart_intensity : Hsup.Sup.intensity;
      (** worker/listener restart budget before the tree escalates *)
  keep_alive : bool;
      (** serve multiple requests per connection, in both modes: the
          worker loops until the peer closes (counted as
          [server_io_faults_total{kind=eof}]), a request times out, or
          parsing fails. Each request mints a fresh deadline and runs
          the degrade-on-restart protocol afresh. Off by default — the
          one-shot path's step counts are pinned by the sweep
          baselines. *)
}

val default_config : config

type stats = {
  served : int;
  timeouts : int;
  bad_requests : int;
  rejected : int;  (** queued at shutdown (503); Shard: mailbox drops *)
  shed : int;  (** connections refused by the bulkhead (503) *)
  restarts : int;  (** supervisor restarts over the server's lifetime *)
}

type t
(** A running server. *)

exception Server_stopped

exception Dial_timeout
(** {!connect} could not reach the backend listener within
    [config.dial_timeout]. *)

val start :
  ?config:config ->
  ?metrics:Obs.Metrics.t ->
  ?backend:Ev.Backend.t ->
  handler ->
  t Io.t
(** Open a listener on the backend ([b_listen ~backlog:accept_queue]),
    fork the accept loop on it (under a supervisor unless
    [config.supervised = false]) and return a handle. The loop runs as
    the thread named ["listener"]: it accepts each connection, mints its
    deadline and starts its worker.

    [?backend] selects the transport, [Ev.Backend.sim ()] when omitted.
    An explicit backend adds a [backend=sim|real] label to every metric
    below (the default stays label-free) and bounds {!connect}'s dial by
    [config.dial_timeout]. Running with a real backend additionally
    requires installing its event source into the runtime:
    [Hio.Runtime.run ~config:(Ev.Backend.install b cfg)].

    All accounting goes through an {!Obs.Metrics} registry — pass one to
    share a table with the runtime's own collector
    ({!Obs.Runtime_obs.metrics}); a private registry is created otherwise.
    The server maintains [server_requests_total{outcome=ok|timeout|
    bad_request|shed|degraded}], [server_rejected_total],
    [server_io_faults_total{kind=eof|reset|refused|accept|deadline}]
    (transport faults absorbed by the hardened paths), the
    [server_in_flight] gauge and the [server_request_latency_steps]
    histogram (end-to-end request latency on the virtual-step clock); in
    supervised mode the tree and bulkhead add [sup_restarts_total],
    [sup_children], [sup_bulkhead_*]. *)

val metrics : t -> Obs.Metrics.t
(** The registry backing this server's accounting. *)

val supervisor : t -> Hsup.Sup.t option
(** The supervision tree (None when [supervised = false]) — exposed for
    probes, demos and the kill sweep. *)

val connect : t -> Http.Conn.t Io.t
(** Dial the server's listener ([l_dial]) and return the client end;
    a failed dial is counted in [client_dial_errors_total{kind}]. Only
    an explicit [?backend]'s dial is bounded: nothing outside the
    program can stall the default sim listener's.
    @raise Server_stopped (as a synchronous throw) after {!shutdown}.
    @raise Dial_timeout when an explicit backend's listener does not
    answer the dial within [config.dial_timeout].
    @raise Ev.Backend.Connection_refused when the listener closes while
    the dial waits. *)

val shutdown : t -> stats Io.t
(** Stop the accept loop (a supervised listener is retired, not
    restarted), close the listener, answer every connection still queued
    on it with a 503 (counted in [rejected]), wait for in-flight workers
    (each bounded by the request timeout), stop the supervisor, and
    return final statistics. *)

val route : (string * (string -> Http.response)) list -> handler
(** A tiny router over exact paths; the handler value receives the request
    body. Unknown paths get 404. *)
