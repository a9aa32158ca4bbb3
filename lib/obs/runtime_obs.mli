(** [Runtime_obs] — feed a {!Metrics} registry from the hio runtime, live
    (through the same two hooks {!Rec.attach} uses) and post-run (from
    the {!Hio.Runtime.result} record). *)

val metrics :
  ?labels:(string * string) list ->
  Metrics.t ->
  Hio.Runtime.Config.t ->
  Hio.Runtime.Config.t
(** Chain a live collector onto the configuration's [tracer]/[inject]
    hooks. [labels] (default none) is stamped on every instrument —
    pass [[("backend", b.Ev.Backend.b_name)]] to keep scheduler series
    from simulated and real runs apart in one registry. Registers and maintains:
    - [hio_steps_total], [hio_context_switches_total] (running thread
      changed between consecutive steps);
    - [hio_forks_total], [hio_exits_total], [hio_throwto_total],
      [hio_deliveries_total], [hio_wakeups_total];
    - [hio_blocked_threads] and [hio_runnable_threads] gauges (the
      latter's high-water mark is the run-queue depth the scheduler
      actually saw). *)

val observe_result :
  ?labels:(string * string) list -> Metrics.t -> 'a Hio.Runtime.result -> unit
(** Record a finished run ([labels] as in {!metrics}): [hio_virtual_time_us], [hio_max_frame_depth]
    and [hio_blocked_at_exit] gauges, plus per-thread
    [hio_thread_steps_total{thread=tN}] and
    [hio_thread_delivered_total{thread=tN}] counters (the latter only for
    threads that received an exception). A multi-domain run additionally
    records per-domain [hio_domain_steps_total{domain=dN}],
    [hio_domain_steals_total] and [hio_domain_replay_records_total]
    counters from
    [result.domain_stats], and [hio_replay_divergences_total] counts
    replays that left their log. *)
