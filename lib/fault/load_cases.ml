(* The overload suite: open-loop load ramps against the supervised and
   the sharded server, on a chaos-wrapped sim backend so the driver's
   resource-exhaustion plans (fd budgets, backlog caps, send caps) bite
   the same transport the load rides on.

   Each ramp forks [base * mult] clients whose arrival times are spread
   evenly over a fixed virtual-time window — the arrival RATE scales
   with the multiplier, the window does not, which is what "10x offered
   load" means. Every client records exactly one lawful outcome: 200
   (goodput), 503 (shed — bulkhead, CoDel queue deadline, early
   deadline shed, brownout), 504 / own timeout (late), or a transport
   error (reset, refusal, dial failure, resource exhaustion). After the
   ramp the case disarms both sweeps, requires lawful outcomes for
   every surviving client, and requires steady state back (probes
   answer 200 once load has drained — retried past breaker reset
   windows, from a fresh tree if the kill took the supervisor). *)

open Hio
open Hio_std
open Hserver
open Io

let join = Cases.join
let transient e = Hsup.Retry.transient_io e

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

let request = { Http.meth = "GET"; path = "/hello"; headers = []; body = "" }

(* One client: arrive at [at], dial, ask, classify. [`Other] is the
   unlawful bucket the require below rejects. *)
let client ~connect ~at outcomes i =
  sleep at >>= fun () ->
  catch
    ( connect () >>= fun conn ->
      Http.write_request conn request >>= fun () ->
      Combinators.timeout 1_000 (Http.read_response conn) >>= fun r ->
      lift (fun () ->
          outcomes.(i) <-
            Some
              (match r with
              | None -> `Late
              | Some resp -> (
                  match resp.Http.status with
                  | 200 -> `Ok
                  | 503 -> `Shed
                  | 504 -> `Late
                  | s -> `Other s))) )
    (fun e ->
      if transient e || e = Server.Dial_timeout then
        lift (fun () -> outcomes.(i) <- Some `Transport)
      else throw e)

(* Fork the whole ramp, join it, and require lawful outcomes from every
   client that ran to completion (a kill victim is exempt — its slot
   stays [None]). Returns the survivor counts. *)
let ramp ~name ~mult ~connect =
  let n = base * mult in
  let interval = max 1 (window / n) in
  lift (fun () -> Array.make n None) >>= fun outcomes ->
  let rec spawn i acc =
    if i >= n then return (List.rev acc)
    else
      Task.spawn
        ~name:(Printf.sprintf "client-%d" i)
        (client ~connect ~at:(i * interval) outcomes i)
      >>= fun t -> spawn (i + 1) (t :: acc)
  in
  spawn 0 [] >>= fun clients ->
  let rec reap = function
    | [] -> return ()
    | t :: rest -> join t >>= fun () -> reap rest
  in
  reap clients >>= fun () ->
  let rec lawful i ts =
    match ts with
    | [] -> return ()
    | t :: rest ->
        Task.poll t >>= fun st ->
        lift (fun () -> outcomes.(i)) >>= fun o ->
        (match st with
        | Some (Stdlib.Ok ()) ->
            Sweep.require
              (name ^ ": every surviving client got a lawful outcome")
              (match o with
              | Some (`Ok | `Shed | `Late | `Transport) -> true
              | Some (`Other _) | None -> false)
        | _ -> return ())
        >>= fun () -> lawful (i + 1) rest
  in
  lawful 0 clients >>= fun () ->
  lift (fun () ->
      let ok = ref 0 and shed = ref 0 and late = ref 0 and tr = ref 0 in
      Array.iter
        (function
          | Some `Ok -> incr ok
          | Some `Shed -> incr shed
          | Some `Late -> incr late
          | Some `Transport -> incr tr
          | Some (`Other _) | None -> ())
        outcomes;
      (n, !ok, !shed, !late, !tr))

(* Steady state, shared shape with the chaos suite's io-server: once
   load has drained, probes must answer 200 — from the same tree if its
   root supervisor survived (retrying past breaker reset windows and
   restart churn), from a fresh tree otherwise. *)
let steady ~name ~probe ~root_alive ~fresh_tree =
  let rec probe_retry n =
    probe () >>= fun ok ->
    if ok then return true
    else if n <= 1 then return false
    else sleep 300 >>= fun () -> probe_retry (n - 1)
  in
  root_alive () >>= fun alive ->
  if alive then
    probe_retry 8 >>= fun ok ->
    if ok then return ()
    else
      root_alive () >>= fun still_alive ->
      Sweep.require (name ^ ": steady state answers 200") (not still_alive)
      >>= fun () -> fresh_tree ()
  else fresh_tree ()

let max_qdelay registry names =
  lift (fun () ->
      List.fold_left
        (fun acc n ->
          max acc
            (Obs.Metrics.gauge_max
               (Obs.Metrics.gauge registry
                  ~labels:[ ("name", n) ]
                  "sup_bulkhead_queue_delay")))
        0 names)

let tally ~counts:(offered, ok, shed, late, tr) ~qdelay =
  {
    Load_sweep.lt_offered = offered;
    lt_ok = ok;
    lt_shed = shed;
    lt_late = late;
    lt_transport = tr;
    lt_max_qdelay = qdelay;
  }

(* --- overload-server: the supervised §11 server under a ramp ------------ *)

let overload_server =
  Load_sweep.case ~qdelay_bound "overload-server" (fun ctl ~mult ->
      (* a handler with a real (virtual) cost, so capacity is finite
         and the ramp can actually exceed it *)
      let handler _req = sleep 30 >>= fun () -> return (Http.ok "hi") in
      lift (fun () -> Obs.Metrics.create ()) >>= fun registry ->
      let backend = Ev.Chaos.wrap ctl (Ev.Backend.sim ()) in
      Server.start ~config:overload_config ~metrics:registry ~backend handler
      >>= fun server ->
      ramp ~name:"overload-server" ~mult
        ~connect:(fun () -> Server.connect server)
      >>= fun counts ->
      Sweep.disarm >>= fun () ->
      Ev.Chaos.disarm ctl >>= fun () ->
      let probe () =
        catch
          ( Server.connect server >>= fun conn ->
            Http.write_request conn request >>= fun () ->
            Combinators.timeout 1_000 (Http.read_response conn) >>= fun r ->
            return
              (match r with
              | Some resp -> resp.Http.status = 200
              | None -> false) )
          (fun e ->
            if transient e || e = Server.Dial_timeout then return false
            else throw e)
      in
      let root_alive () =
        match Server.supervisor server with
        | None -> return true
        | Some sup -> Hsup.Sup.alive sup
      in
      let fresh_tree () =
        Server.start ~config:overload_config ~backend:(Ev.Backend.sim ())
          handler
        >>= fun fresh ->
        catch
          ( Server.connect fresh >>= fun conn ->
            Http.write_request conn request >>= fun () ->
            Combinators.timeout 1_000 (Http.read_response conn) >>= fun r ->
            return
              (match r with
              | Some resp -> resp.Http.status = 200
              | None -> false) )
          (fun e ->
            if transient e || e = Server.Dial_timeout then return false
            else throw e)
        >>= fun ok ->
        Sweep.require "overload-server: a fresh tree restores service" ok
        >>= fun () ->
        Server.shutdown fresh >>= fun _ -> return ()
      in
      steady ~name:"overload-server" ~probe ~root_alive ~fresh_tree
      >>= fun () ->
      max_qdelay registry [ "server" ] >>= fun qdelay ->
      Server.shutdown server >>= fun _stats ->
      catch
        (Server.connect server >>= fun _ -> return false)
        (fun e -> return (e = Server.Server_stopped))
      >>= Sweep.require "overload-server: connect after shutdown is refused"
      >>= fun () -> return (tally ~counts ~qdelay))

(* --- overload-shard: the sharded server, brownout included ------------- *)

let overload_shard_config =
  { overload_config with mailbox_bound = Some 16 }

let overload_shard =
  Load_sweep.case ~qdelay_bound "overload-shard" (fun ctl ~mult ->
      (* a handler with a real (virtual) cost, so capacity is finite
         and the ramp can actually exceed it *)
      let handler _req = sleep 30 >>= fun () -> return (Http.ok "hi") in
      lift (fun () -> Obs.Metrics.create ()) >>= fun registry ->
      let backend = Ev.Chaos.wrap ctl (Ev.Backend.sim ()) in
      Shard.start ~config:overload_shard_config ~metrics:registry ~backend
        ~shards:2 handler
      >>= fun server ->
      ramp ~name:"overload-shard" ~mult
        ~connect:(fun () -> Shard.connect server)
      >>= fun counts ->
      Sweep.disarm >>= fun () ->
      Ev.Chaos.disarm ctl >>= fun () ->
      let probe () =
        catch
          ( Shard.connect server >>= fun conn ->
            Http.write_request conn request >>= fun () ->
            Combinators.timeout 1_000 (Http.read_response conn) >>= fun r ->
            return
              (match r with
              | Some resp -> resp.Http.status = 200
              | None -> false) )
          (fun e ->
            if transient e || e = Server.Dial_timeout then return false
            else throw e)
      in
      let root_alive () = Hsup.Sup.alive (Shard.supervisor server) in
      let fresh_tree () =
        Shard.start ~config:overload_shard_config ~shards:2 handler
        >>= fun fresh ->
        catch
          ( Shard.connect fresh >>= fun conn ->
            Http.write_request conn request >>= fun () ->
            Combinators.timeout 1_000 (Http.read_response conn) >>= fun r ->
            return
              (match r with
              | Some resp -> resp.Http.status = 200
              | None -> false) )
          (fun e ->
            if transient e || e = Server.Dial_timeout then return false
            else throw e)
        >>= fun ok ->
        Sweep.require "overload-shard: a fresh tree restores service" ok
        >>= fun () ->
        Shard.shutdown fresh >>= fun _ -> return ()
      in
      steady ~name:"overload-shard" ~probe ~root_alive ~fresh_tree
      >>= fun () ->
      max_qdelay registry [ "shard-0"; "shard-1" ] >>= fun qdelay ->
      Shard.shutdown server >>= fun _stats ->
      catch
        (Shard.connect server >>= fun _ -> return false)
        (fun e -> return (e = Server.Server_stopped))
      >>= Sweep.require "overload-shard: connect after shutdown is refused"
      >>= fun () -> return (tally ~counts ~qdelay))

let overload = [ overload_server; overload_shard ]
