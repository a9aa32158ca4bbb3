(** The I/O fault sweep: {!Sweep}'s discipline, aimed at the transport.

    Where the kill sweep injects {!Hio.Io.Kill_thread} at every armed
    {e scheduler step}, this driver injects transport faults at every
    armed {e I/O operation site}: it records the case once with an empty
    {!Ev.Chaos} plan, reads how many sends / recvs / accepts / dials the
    schedule reached, and re-runs the case once per (site, fault) pair —
    EOF, ECONNRESET, short writes, delayed readiness, trickled reads —
    demanding the same verdict as the kill sweep ([Value ()], invariants
    held, no thread blocked at exit).

    {b Combined kill×I/O mode} ([kills_per_point > 0]) goes one step
    further: for each fault point whose run was clean, the faulted
    schedule is re-recorded and {!Hio.Io.Kill_thread} is additionally
    injected at a sample of its armed steps — asynchronous exceptions
    landing {e while the transport is misbehaving}, the paper's §5.2
    adversary composed with partial failure.

    Everything is deterministic: the chaos control state is created
    fresh inside each run (one [lift] step), plans are plain data, and
    re-runs are farmed to worker domains with results merged in point
    order, so the {!Sweep.report} it returns is byte-identical for every
    [jobs] value. *)

type case = Ev.Chaos.plan -> Ev.Chaos.ctl option ref -> Sweep.case
(** A named program prepared for I/O sweeping: given one run's chaos
    plan, it builds that run's {!Sweep.case}, which creates the run's
    {!Ev.Chaos.ctl} in its first [lift] step and stores it in the ref.
    The body receives the ctl so it can build a wrapped backend (or wrap
    bare pipe ends) and call {!Ev.Chaos.disarm} before its probe
    phase. *)

val case :
  ?max_steps:int -> string -> (Ev.Chaos.ctl -> unit Hio.Io.t) -> case
(** Default [max_steps] is [400_000] — I/O cases run servers. *)

val record :
  ?domains:int -> case -> Sweep.schedule * (Ev.Chaos.op * int) list
(** One clean-plan run: the schedule plus the armed site counts.
    [domains > 1] records the baseline live on that many scheduler
    domains and derives the schedule from its replay log (see
    {!Sweep.record}); the site counts come from the single-domain
    replay, where the per-run ctl lives on the driver domain.
    @raise Failure if the baseline does not end in [Value ()] with no
    blocked threads. *)

val run_rule :
  case ->
  Sweep.schedule ->
  Ev.Chaos.rule ->
  Plan.t ->
  string option * unit Hio.Runtime.result
(** One faulted run with [rule] armed and the kill plan layered on top
    ([[]] for fault-only); [None] means all invariants held. Exposed for
    replaying a reported failure. *)

val sweep :
  ?max_sites_per_op:int ->
  ?kills_per_point:int ->
  ?jobs:int ->
  ?domains:int ->
  case ->
  Sweep.report
(** Enumerate every (op, site, fault) point — sites down-sampled evenly
    per op to [max_sites_per_op] if given, faults from
    {!Ev.Chaos.default_faults} — and re-run the case once per point.
    [kills_per_point] (default [0]) additionally re-records each clean
    point's faulted schedule and layers a kill at that many of its armed
    steps, evenly sampled ({!Sweep.layered_kills}). A failing rule's
    site is moved as early as it still fails; a failing layered kill
    plan is {!Shrink.minimize}d within its schedule's armed steps.
    [jobs] farms points to worker domains; the
    report is identical for every value. [domains] (default 1) records
    the baseline on that many scheduler domains; faulted runs replay
    its log until the injected fault diverges the schedule, then
    continue deterministically under the free single-domain scheduler.
    Combined-mode re-recordings of faulted schedules stay single-domain
    regardless.

    The report's payload is {!Sweep.Chaos}; each failure carries a
    {!Sweep.Io} context, and its [f_plan] is the layered kill plan,
    [[]] for a pure I/O failure. *)
