open Hio

let metrics ?(labels = []) reg (config : Runtime.Config.t) =
  let steps = Metrics.counter reg ~labels "hio_steps_total" in
  let switches = Metrics.counter reg ~labels "hio_context_switches_total" in
  let forks = Metrics.counter reg ~labels "hio_forks_total" in
  let exits = Metrics.counter reg ~labels "hio_exits_total" in
  let sends = Metrics.counter reg ~labels "hio_throwto_total" in
  let delivers = Metrics.counter reg ~labels "hio_deliveries_total" in
  let wakeups = Metrics.counter reg ~labels "hio_wakeups_total" in
  let blocked = Metrics.gauge reg ~labels "hio_blocked_threads" in
  let runnable = Metrics.gauge reg ~labels "hio_runnable_threads" in
  Metrics.set runnable 1 (* the main thread *);
  let blocked_set : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let unblock tid =
    if Hashtbl.mem blocked_set tid then begin
      Hashtbl.remove blocked_set tid;
      Metrics.add blocked (-1);
      Metrics.add runnable 1
    end
  in
  let last = ref (-1) in
  let tracer e =
    (match e with
    | Runtime.Ev_fork _ ->
        Metrics.inc forks;
        Metrics.add runnable 1
    | Runtime.Ev_exit { tid; _ } ->
        Metrics.inc exits;
        unblock tid;
        Metrics.add runnable (-1)
    | Runtime.Ev_throw_to _ -> Metrics.inc sends
    | Runtime.Ev_deliver { tid; _ } ->
        Metrics.inc delivers;
        unblock tid
    | Runtime.Ev_blocked { tid; _ } ->
        if not (Hashtbl.mem blocked_set tid) then begin
          Hashtbl.add blocked_set tid ();
          Metrics.add blocked 1;
          Metrics.add runnable (-1)
        end
    | Runtime.Ev_wakeup { tid } ->
        Metrics.inc wakeups;
        unblock tid
    | Runtime.Ev_mask _ | Runtime.Ev_clock _ -> ());
    match config.Runtime.Config.tracer with Some f -> f e | None -> ()
  in
  let inject ~step ~running =
    Metrics.inc steps;
    if !last <> running then begin
      if !last >= 0 then Metrics.inc switches;
      last := running
    end;
    match config.Runtime.Config.inject with
    | Some f -> f ~step ~running
    | None -> None
  in
  {
    config with
    Runtime.Config.tracer = Some tracer;
    Runtime.Config.inject = Some inject;
  }

let observe_result ?(labels = []) reg (r : _ Runtime.result) =
  Metrics.set (Metrics.gauge reg ~labels "hio_virtual_time_us") r.Runtime.time;
  Metrics.set
    (Metrics.gauge reg ~labels "hio_max_frame_depth")
    r.Runtime.max_frame_depth;
  Metrics.set
    (Metrics.gauge reg ~labels "hio_blocked_at_exit")
    (List.length r.Runtime.blocked_at_exit);
  List.iter
    (fun (ts : Runtime.thread_stat) ->
      let thread = Printf.sprintf "t%d" ts.Runtime.ts_id in
      Metrics.inc
        ~by:ts.Runtime.ts_steps
        (Metrics.counter reg
           ~labels:(("thread", thread) :: labels)
           "hio_thread_steps_total");
      if ts.Runtime.ts_delivered > 0 then
        Metrics.inc ~by:ts.Runtime.ts_delivered
          (Metrics.counter reg
             ~labels:(("thread", thread) :: labels)
             "hio_thread_delivered_total"))
    r.Runtime.thread_stats;
  (* Multi-domain runs: one row per domain — steps executed there, work
     stolen, replay records written. *)
  List.iter
    (fun (ds : Runtime.domain_stat) ->
      let dom = Printf.sprintf "d%d" ds.Runtime.ds_dom in
      let counter name by =
        Metrics.inc ~by
          (Metrics.counter reg ~labels:(("domain", dom) :: labels) name)
      in
      counter "hio_domain_steps_total" ds.Runtime.ds_steps;
      counter "hio_domain_steals_total" ds.Runtime.ds_steals;
      counter "hio_domain_replay_records_total" ds.Runtime.ds_records)
    r.Runtime.domain_stats;
  if r.Runtime.replay_diverged then
    Metrics.inc (Metrics.counter reg ~labels "hio_replay_divergences_total")
