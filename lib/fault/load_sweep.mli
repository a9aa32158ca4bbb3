(** The overload sweep: open-loop load ramps against a server case,
    composed with the kill sweep and with {!Ev.Chaos} resource
    exhaustion.

    Where {!Sweep} asks "does a kill anywhere break the invariants?" and
    {!Io_sweep} asks the same of a transport fault, this driver asks the
    capacity-planning question: {e when offered load exceeds what the
    system can serve, does it degrade or collapse?} A {!case} runs one
    deterministic open-loop ramp — arrivals on the timer wheel at a rate
    scaled by a multiplier, each client recording a lawful outcome — and
    returns a {!Sweep.tally}. The driver runs the ramp clean at each
    multiplier (1x, 2x, 5x, 10x of nominal), then re-runs it
    with resource-exhaustion plans armed (fd budgets, backlog caps, send
    caps) and with kills layered at sampled armed steps.

    Verdicts come in two layers. Inside a run, the case's own
    {!Sweep.require}s hold (every surviving client got a lawful
    outcome, steady state returns once load drains). Across runs, the
    driver gates the curve itself: goodput at the top multiplier must
    stay at least {e half of capacity} (capacity = goodput of the lowest
    clean ramp), and no admitted request may have outstayed the case's
    declared CoDel queue-delay bound. Overload must shed — 503s, brownout,
    dropped mailbox pushes — not wedge or starve.

    Everything is deterministic: arrivals are virtual-clock sleeps,
    each run's program is built from a closure over its multiplier and
    resource plan (the ctl is created in its first [lift] step, the
    tally comes back through a ref local to the run), and re-runs are
    farmed to worker domains with results merged in item order, so the
    {!Sweep.report} it returns is byte-identical for every [jobs]
    value. *)

type case
(** A named server program prepared for load sweeping. The body gets the
    per-run {!Ev.Chaos.ctl} (wrap the backend through it so resource
    plans bite) and the ramp multiplier; it must run the ramp, disarm
    both sweeps, check its own invariants, and return the tally. *)

val case :
  ?max_steps:int ->
  ?qdelay_bound:int ->
  string ->
  (Ev.Chaos.ctl -> mult:int -> Sweep.tally Hio.Io.t) ->
  case
(** Default [max_steps] is [2_000_000] — a 10x ramp runs many clients.
    [qdelay_bound] declares the largest lawful [lt_max_qdelay] (set it
    to the bulkhead's CoDel target plus scheduling slop); the driver
    fails any clean ramp that exceeds it. *)

val record :
  case ->
  mult:int ->
  resources:Ev.Chaos.resources ->
  Sweep.schedule * Sweep.tally option
(** One ramp at [mult] with [resources] armed. [None] tally means the
    body never reached its final step (cannot happen for a lawful case).
    @raise Failure if the run does not end in [Value ()] with no blocked
    threads. *)

val run_kill :
  case ->
  Sweep.schedule ->
  mult:int ->
  resources:Ev.Chaos.resources ->
  Plan.t ->
  string option * unit Hio.Runtime.result
(** One ramp with a kill plan layered on top; [None] means all
    invariants held. Exposed for replaying a reported failure. *)

val sweep : ?kills_per_ramp:int -> ?jobs:int -> case -> Sweep.report
(** Run the clean ramps at 1x, 2x, 5x and 10x, judge the goodput and
    queue-delay gates, then compose: the ramp is re-recorded at every
    multiplier under each named resource plan — [fd-budget] (live
    connections, EMFILE), [backlog] (listener backlog, dial refusals),
    [send-cap] (send buffer, short writes) — and [kills_per_ramp]
    (default 0) kills land at that many evenly-sampled armed steps of
    every clean and resource-faulted schedule
    ({!Sweep.layered_kills}; a failing kill plan is shrunk within the
    schedule's armed steps). [jobs] farms phase 2 to worker domains;
    the report is identical for every value.

    The report's payload is {!Sweep.Overload}; each failure carries a
    {!Sweep.Load} context, and its [f_plan] is the layered kill plan,
    [[]] for a ramp or gate failure. {!Sweep.pp_report} prints one line
    per case — capacity, the goodput curve per multiplier, the worst
    queue delay, run counts — plus one block per failure. *)

