(** A circuit breaker over {!Io.mask}: closed / open / half-open, with its
    state mirrored into an {!Obs.Metrics} gauge.

    While {e closed}, calls pass through and consecutive failures are
    counted; at [failure_threshold] the breaker trips {e open} and calls
    fail fast with {!Open_circuit} (no work started). After
    [reset_timeout] virtual µs the next call is admitted as a {e
    half-open} trial: its success closes the breaker, its failure re-opens
    it. State transitions and the outcome bookkeeping run masked, so an
    asynchronous kill can neither wedge the breaker with a phantom
    in-flight trial nor count as a service failure. *)

open Hio

type t

type state = Closed | Half_open | Open

exception Open_circuit
(** Thrown (synchronously) by {!run} when the breaker rejects the call. *)

val create :
  ?name:string ->
  ?metrics:Obs.Metrics.t ->
  ?failure_threshold:int ->
  ?reset_timeout:int ->
  unit ->
  t Io.t
(** Defaults: [name = "default"], [failure_threshold = 3],
    [reset_timeout = 1_000] virtual µs. Every exception except
    {!Io.Kill_thread} counts toward the threshold: a kill aimed at the
    {e caller} is not evidence about the service. The registry (a
    private one if [?metrics] is omitted) carries
    [sup_breaker_state{name}] (0 closed, 1 half-open, 2 open),
    [sup_breaker_trips_total{name}] and
    [sup_breaker_rejected_total{name}]. *)

val state : t -> state Io.t

val run : t -> 'a Io.t -> 'a Io.t
(** Run the call through the breaker: admission decision, the call itself
    (under the caller's mask state), and success/failure recording.
    @raise Open_circuit when rejected. *)

(** {1 Peek/note — the brownout surface}

    For callers (the sharded server's route point) that do not wrap work
    in {!run} but decide {e before queueing} whether a backend is worth
    sending work to, and record outcomes observed elsewhere (its
    workers). *)

val rejecting : t -> bool Io.t
(** Would new work for this backend be brownout-shed right now? [true]
    while open within the reset window, or while a {!run} trial is in
    flight. Never mutates: once the reset window has passed, traffic
    flows again and the first recorded outcome plays the half-open
    probe's role (see {!note_failure}). *)

val note_success : t -> unit Io.t
(** Record an externally-observed success: resets the failure count and
    closes the circuit from any state. *)

val note_failure : t -> exn -> unit Io.t
(** Record an externally-observed failure. While closed, countable
    failures (all but {!Io.Kill_thread}) accumulate toward the
    threshold; past the reset window of an open circuit, a countable
    failure re-trips it (the implicit half-open probe failed),
    refreshing the window. *)
