(** The hio runtime: a green-thread scheduler implementing the paper's §8.

    Substitutions with respect to the paper's GHC substrate (see DESIGN.md):
    the scheduler runs inside one OCaml thread with a scheduling point at
    {e every} monadic step (strictly more preemption points than a real
    RTS time-slice), and [sleep] uses a virtual clock that advances only
    when no thread is runnable, making timing-dependent programs
    deterministic under the round-robin policy. *)

(** Scheduler events, observable through {!Config.tracer}: the runtime's
    analogue of the semantics' rule applications, for tests, debugging and
    visualization. *)
type wait_reason = Hio_types.wait_reason =
  | W_take_mvar
  | W_put_mvar
  | W_sleep
  | W_get_char
  | W_throw_to  (** the §9 synchronous [throw_to] awaiting delivery *)
  | W_fd_read  (** event manager: fd not yet readable *)
  | W_fd_write  (** event manager: fd not yet writable *)
      (** The closed set of reasons a thread can block. Previously a
          free-form string; the variant ensures a new blocking primitive
          cannot slip past the deadlock watchdog, the tracer, or the
          observability layer unhandled. *)

val wait_reason_label : wait_reason -> string
(** The legacy rendering — ["takeMVar"], ["sleep"], ["fdRead"], … — used
    by every printer, so pre-variant golden traces are byte-identical. *)

type event =
  | Ev_fork of { parent : int; child : int; name : string option }
  | Ev_exit of { tid : int; uncaught : exn option }
  | Ev_throw_to of { source : int; target : int; exn : exn }
  | Ev_deliver of { tid : int; exn : exn }
      (** an asynchronous exception is raised at [tid]'s current point *)
  | Ev_blocked of { tid : int; why : wait_reason; mvar : int option }
      (** [mvar] is the box the thread waits on, when the blocking
          operation is [takeMVar]/[putMVar] *)
  | Ev_wakeup of { tid : int }
      (** a blocked thread was made runnable by a {e normal} wakeup — an
          MVar handoff, a timer firing, or a synchronous [throw_to]
          completing. A thread woken by an exception gets {!Ev_deliver}
          instead. *)
  | Ev_mask of { tid : int; masked : bool }
  | Ev_clock of { now : int }  (** virtual time advanced while idle *)

type fd_event = { fde_fd : int; fde_readable : bool; fde_writable : bool }
(** One readiness notification from an {!event_source}. *)

type event_source = {
  es_now : unit -> int;
      (** monotonic microseconds; drives [Io.now] and timer deadlines *)
  es_modify : fd:int -> read:bool -> write:bool -> unit;
      (** interest update: called whenever the set of threads waiting on
          [fd] changes; [read = write = false] means deregister *)
  es_wait : timeout_us:int option -> fd_event list;
      (** collect readiness, waiting at most [timeout_us] ([None] =
          indefinitely, [Some 0] = poll); the scheduler passes the timer
          wheel's exact next deadline *)
}
(** The pluggable clock-and-readiness substrate behind [Io.wait_readable]
    / [Io.wait_writable] and — when installed — real-time [Io.sleep].
    [Ev] (lib/ev) provides the epoll-backed implementation; leaving it
    unset keeps the seed's deterministic simulated runtime: virtual
    clock, no fds, [Wait_fd] blocks forever (and is reported in the
    deadlock wait graph). *)

module Config : sig
  type policy =
    | Round_robin  (** deterministic FIFO *)
    | Random of int  (** uniformly random runnable thread, seeded *)

  type t = {
    policy : policy;
    input : string;  (** what {!Io.get_char} reads *)
    collapse_mask_frames : bool;
        (** the §8.1 adjacent block/unblock frame collapse; [true] in
            normal operation, switchable for the C5 ablation benchmark *)
    fork_inherits_mask : bool;
        (** [true] (GHC refinement): a child forked inside [block] starts
            blocked, closing the window before its first [catch] frame is
            pushed. [false] matches Figure 5's (Fork) literally. *)
    sync_throw_to : bool;
        (** the §9 design alternative: [throw_to] waits until the exception
            has been raised in the target (and is itself interruptible) *)
    max_steps : int;  (** runaway-program bound *)
    tracer : (event -> unit) option;  (** scheduler event hook *)
    inject : (step:int -> running:int -> (int * exn) option) option;
        (** fault-injection hook, consulted once per scheduler step just
            before the step executes, with the global step index and the
            tid about to run. Returning [Some (tid, e)] posts [e] on
            thread [tid]'s pending queue at exactly this step boundary
            (waking it by rule (Interrupt) if it is blocked
            interruptibly), as if an external [throw_to] had landed here.
            Returning [None] makes the hook a pure step observer — the
            sweep driver in [Fault.Sweep] uses that to record a schedule
            before re-running it once per kill point. Dead or unknown
            targets are ignored. *)
    journal : Step_journal.t option;
        (** when set, the scheduler notes [(step, running tid)] into the
            journal once per step — one packed word store, cheap enough
            to leave on under many-thread load where the closure-based
            hooks above would cost double-digit percent. {!Obs.Rec}
            reconstructs per-thread run slices from it after the run. *)
    event_source : event_source option;
        (** [None] (default): the simulated runtime — virtual clock
            advancing only when idle, fully deterministic, used by every
            golden trace, the kill sweep and the explorer. [Some es]: the
            real event manager — idle waits block in [es.es_wait] with
            the timer wheel's next deadline as timeout, the clock follows
            [es.es_now], and a busy scheduler polls readiness every 1024
            steps so fd waiters and deadlines are serviced under load. *)
    domains : int;
        (** [1] (default): the seed's deterministic single-domain
            scheduler. [N > 1]: shard across [N] OCaml domains, each with
            its own work-stealing deque; [throw_to] appends to the
            target's pending queue under the shared-state lock, on any
            domain, and the target takes it at its next step boundary.
            A multi-domain run is {e scheduling}-nondeterministic but
            records every decision into a replay log
            (see {!field-result.replay_log}); it rejects [tracer],
            [inject], [event_source] and the [Random] policy with
            [Invalid_argument] — trace or inject into the replay
            instead. *)
    replay : Step_journal.Replay.t option;
        (** re-execute a recorded multi-domain run deterministically on
            one domain. Reproduces outcome, output, thread ids,
            per-thread statistics and the step journal. [tracer] and
            [inject] are fully supported (that is how the kill sweep
            explores multi-domain schedules); if the program or a fault
            hook diverges from the log, the replay continues under the
            free single-domain scheduler from the exact divergence state
            (still deterministic) and sets
            {!field-result.replay_diverged}. Takes precedence over
            [domains]. *)
  }

  val default : t
end

val pp_event : Format.formatter -> event -> unit

val logs_tracer : ?src:Logs.src -> unit -> event -> unit
(** A ready-made tracer that reports every event at [Logs.Debug] level
    (default src ["hio.runtime"]); plug it into {!Config.tracer} to watch
    the scheduler through the logs infrastructure. *)

type 'a outcome =
  | Value of 'a  (** the main computation returned *)
  | Uncaught of exn  (** an exception escaped the main computation *)
  | Deadlock
      (** no thread runnable, no timer pending: every thread is blocked *)
  | Out_of_steps  (** [max_steps] exceeded *)

type thread_stat = {
  ts_id : int;  (** thread id (0 is main) *)
  ts_name : string option;
  ts_steps : int;  (** scheduler steps this thread executed *)
  ts_blocked : int;  (** times it blocked (takeMVar, sleep, …) *)
  ts_delivered : int;  (** asynchronous exceptions raised into it *)
}
(** Per-thread step accounting, maintained by O(1) counter bumps on the
    scheduler hot path. The sum of [ts_steps] over all threads equals the
    run's total {!field-result.steps}. *)

type blocked_thread = {
  bt_tid : int;  (** the blocked thread *)
  bt_name : string option;
  bt_why : wait_reason;
  bt_mvar : int option;  (** the MVar it waits on, if any *)
  bt_mvar_full : bool option;  (** that MVar's state when the run ended *)
  bt_last_taker : int option;
      (** tid that last emptied that MVar — for a lock-style MVar, the
          current holder *)
  bt_fd : int option;  (** the fd it waits on, for the event-manager waits *)
}
(** One node of the deadlock watchdog's wait graph. *)

type domain_stat = {
  ds_dom : int;  (** domain index *)
  ds_steps : int;  (** scheduler steps this domain executed *)
  ds_steals : int;  (** threads it stole from other domains' deques *)
  ds_records : int;  (** replay-log records it contributed *)
}
(** Per-domain accounting for a live multi-domain run ([Config.domains >
    1]); empty otherwise. *)

type 'a result = {
  outcome : 'a outcome;
  output : string;  (** everything written with [put_char]/[put_string] *)
  steps : int;  (** scheduler steps executed *)
  time : int;  (** final virtual time, microseconds *)
  forks : int;  (** threads created, incl. main *)
  max_frame_depth : int;
      (** high-water continuation-stack depth over all threads (§8.1) *)
  thread_stats : thread_stat list;
      (** one entry per thread ever created, in ascending thread id *)
  blocked_at_exit : blocked_thread list;
      (** the wait graph when the scheduler stopped, ascending tid: under
          {!Deadlock} this is the watchdog's report (no thread runnable,
          none sleeping — who waits on what, and who held it); under the
          other outcomes, the threads a finished main left stranded.
          Empty iff the program quiesced. *)
  injections : int;
      (** asynchronous exceptions posted by {!Config.t.inject} that found
          a live target *)
  domain_stats : domain_stat list;
      (** per-domain counters of a live multi-domain run, ascending
          domain index; [[]] on single-domain runs and replays *)
  replay_log : Step_journal.Replay.t option;
      (** the interleaving record of a live multi-domain run (feed it to
          {!Config.t.replay}); on a replay, the log that was replayed *)
  replay_diverged : bool;
      (** a replay left its log (program changed, or a fault hook
          perturbed the run) and continued under the free single-domain
          scheduler *)
}

val pp_thread_stat : Format.formatter -> thread_stat -> unit

val pp_blocked_thread : Format.formatter -> blocked_thread -> unit
(** One wait-graph node: [t2 (worker) blocked on takeMVar m3 [empty, last
    held by t1]]. *)

val pp_wait_graph : Format.formatter -> blocked_thread list -> unit
(** The whole graph, one node per line, each MVar edge annotated with the
    co-waiters queued on the same box. *)

val run : ?config:Config.t -> 'a Io.t -> 'a result

val run_value : ?config:Config.t -> 'a Io.t -> 'a
(** Convenience for tests: {!run} and require a {!Value} outcome.
    @raise Failure describing the outcome otherwise (an [Uncaught e]
    re-raises [e]). *)

val pp_outcome :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a outcome -> unit
