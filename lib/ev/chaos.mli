(** [Chaos] — a deterministic fault-injecting decorator over
    {!Backend.t}.

    [wrap ctl b] returns a backend observationally identical to [b]
    except where the {e fault plan} inside [ctl] says otherwise: the
    decorator interposes on each send, recv, accept and dial (a
    connection's [c_try_recv] passes straight through, and [c_close] is
    never faulted), numbers the operations of each kind in scheduler
    order ({e sites}),
    and when site [at] of op [op] matches a plan rule it injects that
    rule's fault instead of (or around) the real operation.

    Everything is deterministic: sites are counted by a single [lift]
    step at each operation, so for a fixed program and plan the same
    faults land at the same operations on every run — which is what lets
    {!Fault.Io_sweep} enumerate sites from one recorded run, re-run
    with each fault at each site, replay any failure, and shrink it with
    the same discipline as the kill sweep's [Plan]/[Shrink].

    With an empty plan the wrapped backend performs the same operations
    with the same blocking behaviour as the bare one (the interposition
    costs scheduler steps, so step {e counts} differ; replies, metrics
    and outcomes do not). Goldens never construct a [Chaos] backend, so
    they are untouched by this module's existence. *)

open Hio

(** Which operation a rule attacks. *)
type op = Send | Recv | Accept | Dial

type fault =
  | Eof  (** The op raises [End_of_file]. *)
  | Reset
      (** The op raises {!Backend.Connection_reset} (ECONNRESET); on
          [Dial] it raises {!Backend.Connection_refused}, on [Accept]
          {!Backend.Accept_failed}. *)
  | Short_write of int
      (** [Send] delivers only the first [n] bytes, then raises
          {!Backend.Connection_reset} — the partial-write-then-reset
          case. On other ops, behaves like [Reset]. *)
  | Delay of int
      (** The op sleeps [n] µs first (arming the timer wheel, so the
          virtual clock advances in sim runs), then proceeds normally —
          delayed readiness / a back-pressure stall. *)
  | Trickle of int
      (** [Recv]: this and {e every later} read on the same connection
          sleeps [n] µs first and returns a single byte — a
          byte-at-a-time trickling peer. [Send]:
          the bytes go out one at a time with an [n] µs stall between
          each. Elsewhere, like [Delay]. *)

type rule = { r_op : op; r_at : int; r_fault : fault }
(** Inject [r_fault] at the [r_at]-th (0-based) armed occurrence of
    [r_op], counted globally across all connections of the wrapped
    backend. *)

type plan = rule list

type resources = {
  fd_budget : int option;
      (** Max connections live at once through the wrapped listener
          (accepted + dialled, minus closed). Once reached, [l_accept]
          and [l_dial] raise {!Backend.Too_many_fds} — the EMFILE
          mapping — and recover as connections close. *)
  backlog_cap : int option;
      (** Max dialled-but-not-yet-accepted connections. An [l_dial]
          past the cap raises {!Backend.Connection_refused} — listener
          backlog overflow. *)
  send_cap : int option;
      (** Max bytes a single send may carry. A larger send delivers the
          capped prefix then raises {!Backend.Buffer_full}. Applies to
          every connection wrapped by this [ctl]. *)
}
(** A deterministic resource-exhaustion plan, orthogonal to the fault
    plan: budgets are checked in the same atomic decision step as the
    fault lookup (after it, so site numbering is unchanged), denials are
    ordinary exceptions on the attacked operation, and the budgets
    recover as connections close. Only enforced while armed. *)

val no_resources : resources
(** All budgets off — with this (the default), the wrapped backend takes
    exactly the same scheduler steps as before resource plans existed,
    so fault-only baselines are unaffected. *)

type ctl
(** Per-run injection state: the plan, the per-op site counters, the
    armed flag and the log of injections. Create a fresh one inside each
    run ([lift (fun () -> create plan)]) — sharing a [ctl] across runs
    would leak site counts between them and break determinism, exactly
    like sharing a metrics registry would. *)

val create : ?metrics:Obs.Metrics.t -> ?resources:resources -> plan -> ctl
(** When [metrics] is given, every injection increments
    [chaos_injected_total{op,kind}] and every resource denial
    [chaos_resource_denied_total{kind}]. [resources] defaults to
    {!no_resources}. *)

val wrap : ctl -> Backend.t -> Backend.t
val wrap_conn : ctl -> Backend.conn -> Backend.conn
(** Decorate a single connection — for attacking a bare {!Backend.sim_pipe}
    without a listener. *)

val disarm : ctl -> unit Io.t
(** Stop counting sites and injecting faults — pass-through from here
    on. Cases call this before their quiescence probe so the probe's
    operations can neither be faulted nor shift site numbering. Also
    clears any sticky [Trickle] state. *)

val site_counts : ctl -> (op * int) list
(** How many armed sites of each op the run reached, in {!all_ops}
    order. Zero-count ops are included. *)

val injected : ctl -> (op * int * fault) list
(** The injections performed, in execution order. *)

val all_ops : op list

val default_faults : op -> fault list
(** The faults {!Fault.Io_sweep} tries at each site of an op: every
    fault kind applicable to it, with small default delays (50 µs
    stalls, 25 µs trickles) sized against the server's 200 µs request
    deadline so both the absorbed and the timed-out paths get
    exercised. *)

val op_label : op -> string
val fault_label : fault -> string
(** Short stable labels ("send", "reset", "short4", …) — used as metric
    label values and in the sweep JSON's fault-kind breakdown. *)

val pp_rule : Format.formatter -> rule -> unit
