(** Erlang-style supervision trees, built purely from the paper's
    primitives: [forkIO] + [throwTo] for starting and stopping children,
    [block]/[catch] for the exit-notification protocol, an MVar-based
    {!Hio_std.Chan} as the supervisor's mailbox.

    A supervisor is a thread owning a set of {e child slots}. Each child
    runs wrapped so that its termination — normal return, synchronous
    exception, or an asynchronous kill — is reported to the supervisor's
    mailbox; the supervisor restarts it according to its {!lifetime} and
    the tree's {!strategy}, within a {!intensity} budget of restarts per
    virtual-time window. Exhausting the budget {e escalates}: the
    supervisor kills every child, waits for them, and terminates with
    {!Escalated} (a parent supervisor sees that as an abnormal child
    exit).

    The supervisor body runs {e masked} and receives asynchronous
    exceptions only while waiting on its mailbox (§5.3 interruptible
    wait): message handling — including the fork-and-record of a restart
    — is atomic with respect to kills, the same safe-update discipline as
    {!Hio.Mvar.modify}. A killed supervisor takes its whole subtree down
    before dying, so supervision never {e strands} children: that is the
    invariant the [sup] kill-sweep suite checks at every step. *)

open Hio

type lifetime =
  | Permanent  (** always restarted *)
  | Transient  (** restarted only after an abnormal exit *)
  | Temporary  (** never restarted *)

type strategy =
  | One_for_one  (** restart just the failed child *)
  | All_for_one  (** kill and restart all (non-{!Temporary}) children *)

type intensity = { max_restarts : int; window : int }
(** Allow at most [max_restarts] restarts in any sliding [window] of
    virtual µs; one more escalates. *)

exception Escalated of string
(** The supervisor (named by the payload) exhausted its restart budget,
    took its children down, and terminated. *)

type spec
(** What to run and how to treat its exits. *)

val child : ?lifetime:lifetime -> string -> unit Io.t -> spec
(** [child name io] — [lifetime] defaults to {!Permanent}. Names need not
    be unique (a worker pool shares one); name-based operations act on
    the matching slots. *)

type t
(** A handle to a running supervisor. *)

val start :
  ?name:string ->
  ?strategy:strategy ->
  ?intensity:intensity ->
  ?metrics:Obs.Metrics.t ->
  spec list ->
  t Io.t
(** Fork the supervisor thread (named [name], default ["supervisor"]) and
    start the given children in order. Defaults: {!One_for_one},
    [{ max_restarts = 3; window = 1_000 }]. The registry (private if
    [?metrics] omitted) carries [sup_restarts_total{strategy}],
    [sup_escalations_total{strategy}] and the live-children gauge
    [sup_children{sup}]. *)

val start_child : t -> spec -> unit Io.t
(** Ask the supervisor to add and start one more child. Asynchronous
    (a channel send that waits at most behind a concurrent sender): use
    {!child_up} / {!children} to observe the start. Dropped if the
    supervisor is dead. *)

val stop_child : t -> string -> unit Io.t
(** Ask the supervisor to kill every live child with this name, without
    restarting it: its slot is retired, and a retired child leaves the
    supervisor. Asynchronous, like {!start_child}: poll {!child_up} to
    observe completion. *)

val stop : t -> (unit, exn) Stdlib.result Io.t
(** Graceful shutdown: the supervisor kills its children, waits for all
    of them, and terminates. Returns the supervisor's final outcome
    ([Ok ()] here; [Error _] if it had already died or escalated).
    Idempotent and safe to call on a dead supervisor. *)

val await : t -> (unit, exn) Stdlib.result Io.t
(** Wait for the supervisor thread to terminate, however that happens. *)

val alive : t -> bool Io.t
val thread : t -> Io.thread_id
(** The supervisor's own thread — the sweep's [Named] target. *)

val children : t -> (string * bool) list Io.t
(** Every child slot (in start order), with whether its thread is
    currently live. A retired child (stopped, or exited and not to be
    restarted) has left the supervisor and is not listed. *)

val child_up : t -> string -> bool Io.t
(** Is some live child running under this name right now? *)

val child_tid : t -> string -> Io.thread_id option Io.t
(** The newest live thread under this name (to aim a [throw_to] at, in
    tests and demos). *)

val child_starts : t -> string -> int Io.t
(** Total number of times children under this name were (re)started. *)

val restart_log : t -> (int * string) list Io.t
(** [(virtual time, child name)] per restart performed, newest first. An
    {!All_for_one} cycle logs one entry (the child that triggered it). *)

val restart_count : t -> int Io.t
