(** Exception-linked actors: Erlang's process-linking discipline rebuilt
    on nothing but the paper's primitives. Failure propagation {e is}
    [throwTo] — a link delivers the peer's abnormal exit as an
    {!Exit_signal} asynchronous exception, cut through by the ordinary
    mask discipline (an actor blocked in {!receive} is at an
    interruptible §5.3 wait, so the signal lands there and nowhere
    else); a monitor turns the same event into a {!down} {e message} in
    the watcher's mailbox instead.

    An actor is a {!Mailbox} plus a {e cell} of link/monitor state. The
    body runs fully masked — like a {!Hsup.Sup} supervisor, it receives
    asynchronous exceptions only while waiting in {!receive} — and its
    termination runs an exit protocol under
    {!Hio.Io.uninterruptibly}: bookkeeping (deactivate monitors,
    snapshot and sever links, record the result) happens in one atomic
    step, then signals and [down] messages are delivered exactly once
    even if a second kill is already aimed at the dying actor.

    Restart-friendliness (the deliberate deviation from Erlang pids):
    the handle, its mailbox and any queued messages survive the body's
    death, so an actor body can run as a {!Hsup.Sup} child and a
    restarted incarnation resumes draining the same mailbox. Links and
    monitors are {e per-incarnation}: they fire at a death and are gone;
    re-arm them from the restarted body if desired. *)

open Hio

type 'm t
(** Handle to an actor with message type ['m]. *)

type down = {
  down_id : int;  (** {!id} of the actor that died *)
  down_name : string;
  down_reason : (unit, exn) Stdlib.result;
      (** [Ok ()]: normal return or graceful {!stop}; [Error e]: crash
          or kill. *)
}
(** What a monitor delivers (as a message, via its [inject]). *)

exception Exit_signal of { aid : int; name : string; reason : exn }
(** Thrown {e to} linked peers when an actor dies abnormally — this is
    the link mechanism, nothing more. [aid]/[name] identify the dead
    actor. *)

exception Stopped
(** Raised out of {!receive} inside the actor's own body when a
    {!stop} request is consumed; the body wrapper turns it into a
    normal ([Ok ()]) exit. Visible so a body's own [catch]-all can
    re-throw it. *)

exception Call_timeout
(** {!call} gave up waiting for the reply. *)

(* --- lifecycle --------------------------------------------------------- *)

val create :
  ?name:string ->
  ?bound:int ->
  ?on_drop:('m -> unit) ->
  ?metrics:Obs.Metrics.t ->
  unit ->
  'm t Io.t
(** A cell + mailbox with no thread yet; run the body via {!fork_body}
    (directly, or inside a {!Hsup.Sup.child}). [name] defaults to
    ["actor"] and is used for the fork name, {!Exit_signal}, {!down} and
    the mailbox's metrics label. [bound]/[on_drop]/[metrics] configure
    the mailbox ({!Mailbox.create}): a bounded mailbox sheds the newest
    message on overflow — [on_drop] sees only user messages ({!send}),
    never the control envelopes, which bypass the bound. *)

val body : 'm t -> ('m t -> unit Io.t) -> unit Io.t
(** The runnable body: masked, registers the current thread as the
    actor's incarnation, runs [f], then runs the exit protocol. Give
    this to {!Hsup.Sup.child} to supervise an actor. *)

val fork_body : 'm t -> ('m t -> unit Io.t) -> unit Io.t
(** Fork {!body} under [block] and record the thread id, so a kill
    cannot slip in between fork and registration. *)

val spawn : ?name:string -> ('m t -> unit Io.t) -> 'm t Io.t
(** [create] + {!fork_body}. *)

val spawn_link : parent:'p t -> ?name:string -> ('m t -> unit Io.t) -> 'm t Io.t
(** Spawn atomically linked to [parent] (link installed before the
    fork, under [block] — no window where either death goes
    unnoticed). *)

(* --- links and monitors ------------------------------------------------ *)

val link : 'a t -> 'b t -> unit Io.t
(** Bidirectional link: when either dies abnormally the survivor gets
    {!Exit_signal} via [throw_to]. Linking to an already-dead actor
    delivers immediately (if that death was abnormal). Idempotent. *)

type monitor_ref

val monitor : watcher:'w t -> inject:(down -> 'w) -> 'a t -> monitor_ref Io.t
(** One-shot monitor: when the watched actor dies (any reason), push
    [inject down] into [watcher]'s mailbox — exactly once. Monitoring an
    already-dead actor fires immediately (Erlang's [noproc]
    convention). *)

val demonitor : monitor_ref -> unit Io.t
(** Deactivate; a [down] not yet pushed will never be. Idempotent. *)

(* --- messaging --------------------------------------------------------- *)

val send : 'm t -> 'm -> unit Io.t
(** Cast: enqueue and return — a message to a dead (or never-started)
    actor just sits in the mailbox. Waits only behind a concurrent
    sender ({!Mailbox.push}). *)

val receive : 'm t -> ('m -> 'a option) -> 'a Io.t
(** Selective receive on the actor's own mailbox ({!Mailbox.receive}).
    Consuming a {!stop} request raises {!Stopped}. Call only from the
    actor's own body. *)

val receive_timeout : int -> 'm t -> ('m -> 'a option) -> 'a option Io.t

type 'r reply
(** Write-once reply capability carried inside a call message. *)

val reply : 'r reply -> 'r -> unit Io.t
(** Fulfil a call. Idempotent; a late reply to a timed-out or dead
    caller is silently dropped. *)

val call : ?timeout:int -> 'm t -> ('r reply -> 'm) -> 'r Io.t
(** Synchronous request: [call srv make] sends [make r], waits for
    {!reply}. A monitor on [srv] fails the call fast with
    {!Exit_signal} if the server dies first (or is already dead);
    [?timeout] (virtual µs, timer wheel, same-thread arming) raises
    {!Call_timeout}. *)

(* --- termination ------------------------------------------------------- *)

val stop : 'm t -> (unit, exn) Stdlib.result Io.t
(** Graceful stop, reusing the supervisor's FIFO-mailbox teardown
    barrier: a stop request is enqueued {e behind} everything already in
    the mailbox, the body raises {!Stopped} when it consumes it, and
    [stop] returns when the actor acknowledged its own exit — so all
    earlier messages were handled first. Returns the actor's exit
    result; on an already-dead actor, that recorded result
    immediately. *)

val kill : 'm t -> unit Io.t
(** [throw_to] {!Hio.Io.Kill_thread} at the current incarnation, if
    any. The mailbox survives. *)

val await : 'm t -> (unit, exn) Stdlib.result Io.t
(** First recorded exit of this actor (a restarted actor keeps the
    first). *)

(* --- introspection ----------------------------------------------------- *)

val alive : 'm t -> bool Io.t
val id : 'm t -> int
(** Unique per run (derived from the done-MVar's id — deterministic
    under the sweep, unlike any global counter). *)

val name : 'm t -> string
val tid : 'm t -> Io.thread_id option Io.t

val stashed : 'm t -> int Io.t
(** Messages parked by selective receives (tests/metrics). *)
