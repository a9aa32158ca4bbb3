(* tcp_load — the real-TCP proof for the event manager.

     dune exec examples/tcp_load.exe -- --conns 10000 --reqs 5 --json BENCH_ev.json

   One scheduler thread, one epoll instance, [conns] keep-alive loopback
   connections each issuing [reqs] pipelone-free requests: every byte
   crosses a real socket, every would-block parks a green thread on the
   event manager, and every latency sample is wall-clock microseconds.
   The same binary also times the hierarchical timer wheel on the
   simulated clock (1k/10k/100k concurrent sleepers) so the two halves
   of the event manager — readiness and timers — land in one record.

   Client and server share the runtime, so a reported latency includes
   scheduling delay under 2x[conns] runnable green threads — that is the
   honest number for a cooperative scheduler, not a flattering one
   measured from an idle client.

   Dials are staggered through a semaphore: [conns] simultaneous SYNs
   against a listen backlog would overflow the kernel's accept queue and
   the dropped SYNs would retry on second-scale timers, measuring the
   kernel's politeness rather than ours. *)

open Hio
open Hio.Io
open Hio_std

let handler =
  Hserver.Server.route [ ("/hello", fun _ -> Hserver.Http.ok "hi") ]

let request =
  { Hserver.Http.meth = "GET"; path = "/hello"; headers = []; body = "" }

(* Wall-clock microsecond buckets for client-observed latency. *)
let latency_buckets =
  [ 50; 100; 200; 500; 1_000; 2_000; 5_000; 10_000; 20_000; 50_000;
    100_000; 200_000; 500_000; 1_000_000 ]

(* Smallest bucket upper bound covering quantile [q], from the
   cumulative counts; the +inf bucket reports as the largest finite
   bound (the value printed is "<= bound us"). *)
let percentile hist q =
  let total = Obs.Metrics.histogram_count hist in
  let need = max 1 (int_of_float (ceil (q *. float_of_int total))) in
  let rec find last = function
    | [] -> last
    | (Some ub, c) :: tl -> if c >= need then ub else find ub tl
    | (None, _) :: _ -> last
  in
  find 0 (Obs.Metrics.histogram_buckets hist)

let load_phase ~conns ~reqs ~reg ~lat backend =
  let config =
    {
      Hserver.Server.default_config with
      Hserver.Server.request_timeout = 5_000_000;
      (* 256 dials in flight on one scheduler can take longer than the
         default 50 ms to connect; a load run must not die of that. *)
      dial_timeout = 5_000_000;
      max_concurrent = conns;
      accept_queue = 512;
      supervised = false;
      keep_alive = true;
    }
  in
  Hserver.Server.start ~config ~metrics:reg ~backend handler
  >>= fun server ->
  Sem.create 256 >>= fun dialing ->
  let one_request conn =
    lift Ev.Real.now_us >>= fun t0 ->
    Hserver.Http.write_request conn request >>= fun () ->
    Hserver.Http.read_response conn >>= fun resp ->
    lift (fun () -> Obs.Metrics.observe lat (Ev.Real.now_us () - t0))
    >>= fun () ->
    if resp.Hserver.Http.status <> 200 then
      throw (Failure (Printf.sprintf "status %d" resp.Hserver.Http.status))
    else return ()
  in
  let one_conn _ =
    Sem.with_unit dialing (Hserver.Server.connect server) >>= fun conn ->
    Combinators.repeat reqs (one_request conn) >>= fun () ->
    Hserver.Http.Conn.close conn
  in
  Combinators.parallel (List.init conns one_conn) >>= fun _ ->
  Hserver.Server.shutdown server

let run_load ~conns ~reqs =
  let backend = Ev.Real.create () in
  let reg = Obs.Metrics.create () in
  let lat =
    Obs.Metrics.histogram reg ~buckets:latency_buckets
      ~labels:[ ("backend", backend.Ev.Backend.b_name) ]
      "client_request_latency_us"
  in
  let config =
    Ev.Backend.install backend
      {
        Runtime.Config.default with
        Runtime.Config.max_steps = 2_000_000_000;
      }
  in
  let t0 = Ev.Real.now_us () in
  let r = Runtime.run ~config (load_phase ~conns ~reqs ~reg ~lat backend) in
  let wall_us = Ev.Real.now_us () - t0 in
  let stats =
    match r.Runtime.outcome with
    | Runtime.Value stats -> stats
    | Runtime.Uncaught e ->
        Printf.eprintf "load phase died: %s\n%!" (Printexc.to_string e);
        exit 1
    | Runtime.Deadlock ->
        Printf.eprintf "load phase deadlocked\n%!";
        exit 1
    | Runtime.Out_of_steps ->
        Printf.eprintf "load phase ran out of steps\n%!";
        exit 1
  in
  (stats, lat, wall_us, r.Runtime.steps)

(* Timer-wheel scaling on the simulated clock: [n] sleepers with
   deadlines spread over 65ms, wall-clock nanoseconds per timer for the
   whole arm/cascade/fire/wake cycle. *)
let wheel_phase n =
  let t0 = Ev.Real.now_us () in
  let r =
    Runtime.run
      ~config:
        {
          Runtime.Config.default with
          Runtime.Config.max_steps = 2_000_000_000;
        }
      (let rec spawn i =
         if i = n then return ()
         else
           fork (sleep ((i * 7919 mod 65_521) + 1)) >>= fun _ ->
           spawn (i + 1)
       in
       spawn 0 >>= fun () -> sleep 66_000)
  in
  (match r.Runtime.outcome with
  | Runtime.Value () -> ()
  | _ ->
      Printf.eprintf "wheel phase (n=%d) failed\n%!" n;
      exit 1);
  let wall_us = Ev.Real.now_us () - t0 in
  wall_us * 1_000 / n

let () =
  let conns = ref 10_000 and reqs = ref 5 and json = ref "" in
  let rec parse = function
    | "--conns" :: v :: tl ->
        conns := int_of_string v;
        parse tl
    | "--reqs" :: v :: tl ->
        reqs := int_of_string v;
        parse tl
    | "--json" :: v :: tl ->
        json := v;
        parse tl
    | [] -> ()
    | arg :: _ ->
        Printf.eprintf
          "usage: tcp_load [--conns N] [--reqs R] [--json FILE] (got %S)\n" arg;
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* Two fds per in-process connection (client end + server end), plus
     listener, epoll, stdio and slack; shrink the run rather than die on
     EMFILE if the hard limit wins (raising it past the hard cap needs
     CAP_SYS_RESOURCE, which sandboxes tend to drop). *)
  let requested = !conns in
  let limit = Ev.Real.fd_limit ((2 * !conns) + 256) in
  if limit < (2 * !conns) + 64 then begin
    let scaled = (limit - 64) / 2 in
    Printf.eprintf "fd limit %d: scaling %d conns down to %d\n%!" limit !conns
      scaled;
    conns := scaled
  end;
  let conns = !conns and reqs = !reqs in
  let stats, lat, wall_us, steps = run_load ~conns ~reqs in
  let expected = conns * reqs in
  if stats.Hserver.Server.served <> expected then begin
    Printf.eprintf "served %d of %d requests\n%!" stats.Hserver.Server.served
      expected;
    exit 1
  end;
  let p50 = percentile lat 0.50
  and p90 = percentile lat 0.90
  and p99 = percentile lat 0.99 in
  let rps = expected * 1_000_000 / max 1 wall_us in
  Printf.printf
    "tcp_load: %d conns x %d reqs over %s/%s: served %d in %.2fs (%d req/s, \
     %d steps)\n"
    conns reqs "real" (Ev.Real.readiness ()) stats.Hserver.Server.served
    (float_of_int wall_us /. 1e6)
    rps steps;
  Printf.printf "latency (us, bucket upper bounds): p50 <= %d, p90 <= %d, \
                 p99 <= %d\n"
    p50 p90 p99;
  (* Warm up the allocator/GC after the load phase so the 1k figure is
     not dominated by the first post-load major collection. *)
  ignore (wheel_phase 1_000);
  let wheel =
    List.map (fun n -> (n, wheel_phase n)) [ 1_000; 10_000; 100_000 ]
  in
  List.iter
    (fun (n, ns) ->
      Printf.printf "timer wheel: %6d sleepers, %d ns/timer wall\n" n ns)
    wheel;
  if !json <> "" then begin
    let oc = open_out !json in
    Printf.fprintf oc
      {|{
  "schema_version": 1,
  "description": "Event manager record (lib/ev): real-TCP keep-alive load over the epoll-backed readiness source — client and server as green threads on one scheduler, every request crossing a loopback socket, latency in wall-clock microseconds from the client's send to its parsed response (bucket upper bounds, so p-values read '<= N us'); plus the hierarchical timer wheel timed on the simulated clock, wall nanoseconds per arm/cascade/fire/wake cycle across three orders of magnitude of concurrent sleepers.",
  "command": "dune exec examples/tcp_load.exe -- --conns %d --reqs %d --json BENCH_ev.json",
  "load": {
    "backend": "real",
    "readiness": "%s",
    "connections": %d,
    "connections_requested": %d,
    "fd_limit": %d,
    "fd_note": "client and server are both in-process, so each connection costs two fds; when the hard RLIMIT_NOFILE refuses 2x the requested connections (CAP_SYS_RESOURCE dropped, as in sandboxes) the harness scales down to fit rather than die on EMFILE",
    "requests_per_connection": %d,
    "served": %d,
    "wall_s": %.3f,
    "requests_per_s": %d,
    "scheduler_steps": %d,
    "latency_us": { "p50": %d, "p90": %d, "p99": %d }
  },
  "timer_wheel": {
    "unit": "wall ns per timer, simulated clock",
%s
  }
}
|}
      requested reqs (Ev.Real.readiness ()) conns requested limit reqs
      stats.Hserver.Server.served
      (float_of_int wall_us /. 1e6)
      rps steps p50 p90 p99
      (String.concat ",\n"
         (List.map
            (fun (n, ns) -> Printf.sprintf {|    "sleepers_%d": %d|} n ns)
            wheel));
    close_out oc;
    Printf.printf "record written to %s\n" !json
  end
