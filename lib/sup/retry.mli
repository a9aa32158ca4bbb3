(** [retry] — re-run a failing computation with deterministic exponential
    backoff over {e virtual} time.

    Everything here is a pure function of the attempt number: the jitter
    is a splitmix-style integer hash of the attempt index, not a draw from
    mutable [Random] state, so a retried program costs the same virtual
    time on every run and on every [Par] worker domain — backoff schedules
    are part of the deterministic schedule the kill sweep replays. *)

open Hio

val backoff : ?base:int -> ?jitter:int -> int -> int
(** [backoff k] is the delay in virtual µs slept after the [k]th failure
    ([k >= 1]): [min 5_000 (base * 2^(k-1))] plus a bounded
    deterministic jitter in [[0, jitter)]. Defaults: [base = 10],
    [jitter = 8]. *)

val schedule : ?base:int -> ?jitter:int -> int -> int list
(** The first [n] delays, [backoff 1 .. backoff n]. Pure. *)

val retry :
  ?attempts:int ->
  ?base:int ->
  ?jitter:int ->
  ?retry_on:(exn -> bool) ->
  'a Io.t ->
  'a Io.t
(** [retry io] runs [io]; on an exception [e] with [retry_on e] it sleeps
    [backoff k] and tries again, up to [attempts] runs in total (default
    [4]); the last exception is re-thrown once attempts are exhausted.

    [retry_on] defaults to retrying everything {e except}
    {!Io.Kill_thread} and {!Io.Timeout} — an asynchronous kill (the
    sweep's injection, a supervisor takedown) or an enclosing
    {!Hio_std.Combinators.timeout} must terminate the computation, not
    restart it. *)

val transient_io : exn -> bool
(** The retry-on-reset policy for clients of a chaos-prone transport:
    [true] exactly for the transient transport faults — [End_of_file],
    [Ev.Backend.Connection_reset], [Ev.Backend.Connection_refused],
    [Ev.Backend.Accept_failed], and the resource-exhaustion pair
    [Ev.Backend.Too_many_fds] / [Ev.Backend.Buffer_full] (EMFILE and a
    full send buffer recover when load drains — exactly what a capped
    backoff is for). Pass as [~retry_on] to {!retry} to
    redial through resets and refusals while still letting kills,
    timeouts and real bugs terminate the computation. *)
