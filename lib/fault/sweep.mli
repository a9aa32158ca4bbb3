(** The kill-point sweep driver for hio programs.

    A {!case} is a program built for adversarial testing: it does its
    concurrent work while the sweep is {e armed}, then calls {!disarm}
    and checks its own invariants with {!require} (probe threads, unit
    counts, cleanup flags). {!sweep} records the case's schedule once,
    then re-runs it once per armed scheduler step with
    {!Hio.Io.Kill_thread} injected at exactly that step — mechanising the
    paper's §5.2/§7 claims, which are universally quantified over where
    the exception lands.

    Verdict per faulted run:
    - the injection victim resolved to the main thread: the whole program
      was killed, so [Value ()] and [Uncaught Kill_thread] are both fine
      and quiescence is not judged (the scheduler stops the instant main
      dies, abandoning well-behaved children mid-step);
    - otherwise the run must end in [Value ()] — every [require] held —
      with {e no thread blocked at exit} ({!Hio.Runtime.blocked_at_exit},
      the deadlock watchdog's wait graph, must be empty).

    Any other outcome is a failure; the plan is shrunk with {!Shrink}
    (restricted to armed steps so a counterexample never names the
    disarmed probe phase) and reported.

    The I/O sweep ({!Io_sweep}) and the overload sweep ({!Load_sweep})
    run on this pipeline too, and all three return one {!report}: the
    case, its baseline and faulted step counts and its failures, plus a
    {!payload} for what only one driver counts. {!pp_report} prints any
    of them. *)

exception Violation of string
(** What {!require} throws; uncaught it fails the run with the message. *)

val require : string -> bool -> unit Hio.Io.t
(** [require what ok]: assert an invariant from inside a case. *)

val disarm : unit Hio.Io.t
(** End the armed window: steps after this (probes, final checks) are
    not kill points. Runs as a single [lift] step. *)

type case
(** A named program prepared for sweeping. *)

val case : ?max_steps:int -> string -> unit Hio.Io.t -> case
(** [case name io] with a per-run step budget (default [200_000]; a
    faulted run that exceeds it counts as a livelock failure). *)

val case_name : case -> string

type schedule = {
  s_steps : int;  (** baseline scheduler steps to completion *)
  s_armed : (int * int) array;  (** (step index, acting tid), armed only *)
  s_names : (int * string) list;  (** forked thread names, in fork order *)
  s_log : Hio.Step_journal.Replay.t option;
      (** the interleaving log of the multi-domain baseline, when the
          sweep was recorded with [domains > 1]: every faulted run
          replays it, so the kill points probe a schedule with real
          cross-domain interleavings — deterministically *)
}

val record : ?domains:int -> case -> schedule
(** Run the case once with the injection hook as a pure observer. With
    [domains > 1] the baseline first runs live on that many domains to
    capture its replay log, then the schedule (armed steps, names) is
    derived by replaying the log on one domain — observer hooks are not
    supported on live multi-domain runs, and the replay is where the
    faulted runs will live anyway.
    @raise Failure if the baseline does not end in [Value ()] with no
    blocked threads — a case must be correct before it is swept. *)

type fault =
  | Kill  (** nothing: the kill sweep *)
  | Io of { rule : Ev.Chaos.rule; shrunk_rule : Ev.Chaos.rule }
      (** {!Io_sweep}'s transport fault and its site moved as early as
          it still fails ([rule] itself under a layered kill) *)
  | Load of { mult : int; resource : string option }
      (** {!Load_sweep}'s ramp multiplier and resource plan name *)
(** What a failing run had armed besides its kill plan. *)

type failure = {
  f_case : string;
  f_fault : fault;
  f_plan : Plan.t;  (** the failing kill plan ([[]] when none was layered) *)
  f_shrunk : Plan.t;  (** its {!Shrink.minimize} reduction *)
  f_reason : string;
}
(** One failure of any hio sweep driver. *)

type tally = {
  lt_offered : int;  (** arrivals the ramp issued *)
  lt_ok : int;  (** 200s — goodput *)
  lt_shed : int;  (** 503s: bulkhead/queue/deadline/brownout sheds *)
  lt_late : int;  (** 504s and client-side timeouts *)
  lt_transport : int;
      (** transport-level degradation: resets, refusals, dial failures,
          resource exhaustion *)
  lt_max_qdelay : int;
      (** worst bulkhead queue sojourn observed (virtual µs) *)
}
(** What one {!Load_sweep} ramp measured. [lt_ok + lt_shed + lt_late +
    lt_transport] accounts for every client that survived the run. *)

type ramp = { lp_mult : int; lp_tally : tally; lp_steps : int }
(** One clean ramp of the overload sweep: its multiplier, tally and
    steps. *)

type payload =
  | Kills of {
      target : Plan.target;
      kill_points : int;  (** distinct armed steps injected (runs made) *)
      applied : int;  (** runs whose injection found a live target *)
    }  (** the kill sweep's *)
  | Chaos of {
      sites : (Ev.Chaos.op * int) list;
          (** armed sites per op in the recorded schedule,
              {!Ev.Chaos.all_ops} order *)
      fault_points : int;  (** (site, fault) pairs injected *)
      kill_runs : int;  (** combined kill×I/O runs made on top *)
      by_kind : (string * int) list;
          (** fault points per {!Ev.Chaos.fault_label} kind (plus a
              ["kill"] entry for combined runs), label-sorted *)
    }  (** {!Io_sweep}'s *)
  | Overload of {
      capacity : int;  (** goodput of the lowest clean multiplier *)
      ramps : ramp list;  (** clean ramps, multiplier order *)
      kill_runs : int;
      resource_ramps : int;
    }  (** {!Load_sweep}'s *)
(** What one driver counts that the others do not. *)

type report = {
  r_case : string;
  r_baseline_steps : int;
      (** the recorded schedule's steps; for {!Overload}, the lowest
          clean ramp's ([0] when none ran clean) *)
  r_faulted_steps : int;  (** total steps across all faulted runs *)
  r_failures : failure list;
  r_payload : payload;
}
(** The report of every sweep driver. *)

val run_plan : case -> schedule -> Plan.t -> string option * unit Hio.Runtime.result
(** One faulted run; [None] means all invariants held. *)

val sample : int -> 'a array -> 'a list
(** [sample n arr] down-samples [arr] to at most [n] entries, evenly
    spaced, keeping the first and last — the sampling policy of every
    sweep driver.
    @raise Invalid_argument if [n < 1]. *)

val probe :
  ?shrink:bool ->
  fault:fault ->
  case ->
  schedule ->
  Plan.t ->
  unit Hio.Runtime.result * failure option
(** [probe ~fault c schedule plan]: one {!run_plan}; if it fails, the
    failure (with [fault] as its context) carries the plan reduced by
    {!Shrink.minimize} within [schedule]'s armed steps — a candidate
    naming a disarmed step would fail for the wrong reason. With
    [~shrink:false] the plan is reported unreduced. *)

val layered_kills :
  fault:fault -> int -> case -> schedule -> int * int * failure list
(** [layered_kills ~fault k c schedule] {!probe}s a kill at each of [k]
    evenly {!sample}d armed steps of [schedule] (none when [k = 0]):
    the runs made, their total steps, and the failures in step order. *)

val sweep :
  ?max_points:int ->
  ?target:Plan.target ->
  ?shrink:bool ->
  ?jobs:int ->
  ?domains:int ->
  case ->
  report
(** Sweep every armed step (down-sampled evenly to [max_points] if
    given), injecting into [target] (default {!Plan.Acting}).

    [domains] (default 1) records the baseline on that many scheduler
    domains and sweeps over the captured replay log (see {!record}):
    same verdicts, same determinism, but the kill points land in a
    schedule with genuine cross-domain interleavings. The faulted run
    replays the log up to the injection, then continues under the free
    single-domain scheduler from the perturbed state.

    [jobs] (default 1) farms the faulted re-runs to that many worker
    domains via {!Par}. The report is deterministic and identical for
    every [jobs] value: workers return per-kill-point partial results
    indexed by position, and the driver merges them in kill-point
    order. Safe because each [Hio.Runtime.run] builds its entire
    scheduler state per call and the armed flag is domain-local. *)

val pp_report : Format.formatter -> report -> unit
(** One line per sweep in its driver's format, plus one block per
    failure: the fault context and kill plan, the shrunk form, the
    reason. *)
