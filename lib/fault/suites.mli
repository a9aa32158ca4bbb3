(** The suites [chrun sweep] runs, by name, in the order it runs them:
    [std] (each {!Cases.std} case, {!Plan.Acting}), [server]
    ({!Cases.server} against each of {!Cases.server_targets}), [sup]
    ({!Cases.sup}) and [actor] ({!Cases.actor}) through the kill sweep
    ({!Sweep.sweep}), then [chaos] ({!Io_cases.chaos}) through
    {!Io_sweep.sweep} and [overload] ({!Load_cases.overload}) through
    {!Load_sweep.sweep}. *)

val all :
  (string
  * (max_points:int option ->
    max_sites:int ->
    kills_per_point:int ->
    jobs:int ->
    domains:int ->
    Sweep.report)
    list)
  list
(** Each case's sweep takes every suite's settings and reads only its
    driver's: [max_points] (kill points per case, [None] for all) and
    [domains] (baseline scheduler domains) the kill sweep's, [max_sites]
    (I/O sites per operation kind), [kills_per_point] and [domains]
    chaos's, [kills_per_point] (kills per ramp) overload's. [jobs]
    worker domains run every suite's faulted re-runs. *)
