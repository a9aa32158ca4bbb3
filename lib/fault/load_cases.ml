(* The overload suite: open-loop load ramps against the supervised and
   the sharded server, on a chaos-wrapped sim backend so the driver's
   resource-exhaustion plans (fd budgets, backlog caps, send caps) bite
   the same transport the load rides on.

   Each ramp forks [base * mult] clients whose arrival times are spread
   evenly over a fixed virtual-time window — the arrival RATE scales
   with the multiplier, the window does not, which is what "10x offered
   load" means. The ramp runs through the serving protocol
   ({!Cases.serve}), whose lawful outcomes are tallied here: 200
   (goodput), 503 (shed — bulkhead, CoDel queue deadline, early
   deadline shed, brownout), 504 / own timeout (late), or a transport
   error (reset, refusal, dial failure, resource exhaustion). *)

open Hio
open Hserver
open Io

(* Arrivals at 1x: [base] clients over [window] virtual µs. *)
let base = 6
let window = 300

(* CoDel queue-deadline target for both servers' bulkheads, and the
   lawful cap on observed sojourn: an admitted request won the race
   against its queue timer, so its recorded delay can only exceed the
   target by scheduler wakeup slop — 2x is generous. *)
let queue_target = 60
let qdelay_bound = 2 * queue_target

let overload_config =
  {
    Server.default_config with
    max_concurrent = 2;
    max_waiting = 4;
    queue_target = Some queue_target;
    dial_timeout = 2_000;
    restart_intensity = { Hsup.Sup.max_restarts = 16; window = 1_000_000 };
  }

(* A handler with a real (virtual) cost, so capacity is finite and the
   ramp can actually exceed it. *)
let costly _req = sleep 30 >>= fun () -> return (Http.ok "hi")

(* The serving protocol's outcomes, tallied: 200 is goodput, 503 shed,
   504 or the client's own timeout late. A kill victim's slot is [None]
   and counts nowhere. *)
let tally outcomes ~qdelay =
  let is o =
    Array.fold_left (fun n x -> if x = Some o then n + 1 else n) 0 outcomes
  in
  {
    Sweep.lt_offered = Array.length outcomes;
    lt_ok = is (Cases.Status 200);
    lt_shed = is (Cases.Status 503);
    lt_late = is (Cases.Status 504) + is Cases.Timed_out;
    lt_transport = is Cases.Transport;
    lt_max_qdelay = qdelay;
  }

(* Worst bulkhead queue sojourn across the tree's bulkheads. *)
let max_qdelay registry tree =
  let names =
    match tree with
    | Cases.Single -> [ "server" ]
    | Cases.Sharded n -> List.init n (Printf.sprintf "shard-%d")
  in
  lift (fun () ->
      List.fold_left
        (fun acc n ->
          max acc
            (Obs.Metrics.gauge_max
               (Obs.Metrics.gauge registry
                  ~labels:[ ("name", n) ]
                  "sup_bulkhead_queue_delay")))
        0 names)

(* One ramp of [base * mult] clients, arrivals spread evenly over the
   window, through the serving protocol on the chaos-wrapped sim
   backend; once load has drained, probes retry past breaker reset
   windows and restart churn. *)
let ramp name tree config =
  Load_sweep.case ~qdelay_bound name (fun ctl ~mult ->
      let n = base * mult in
      let interval = max 1 (window / n) in
      Cases.serve ~chaos:ctl
        {
          Cases.name;
          tree;
          config;
          handler = costly;
          clients =
            List.init n (fun i ->
                { Cases.at = Some (i * interval); key = None });
          timeout = 1_000;
          probes = [ None ];
          attempts = 8;
        }
      >>= fun (outcomes, registry) ->
      max_qdelay registry tree >>= fun qdelay ->
      return (tally outcomes ~qdelay))

let overload_server = ramp "overload-server" Cases.Single overload_config

(* The sharded server, brownout included. *)
let overload_shard =
  ramp "overload-shard" (Cases.Sharded 2)
    { overload_config with mailbox_bound = Some 16 }

let overload = [ overload_server; overload_shard ]
