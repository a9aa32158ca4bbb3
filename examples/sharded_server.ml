(* sharded_server — the actor-layer proof and its record.

     dune exec examples/sharded_server.exe

   The §11 server sharded over lib/actor: 4 serving actors on a
   consistent-hash ring, each with its own nested supervisor
   and bulkhead (lib/server/shard.ml). Three measured phases, all on
   the simulated clock so every number is deterministic; the stdout is
   pinned in sharded_server.expected, which `dune runtest` diffs:

   1. keep-alive load, sharded vs single — the same 32 clients x 8
      requests of keyed load against 4 shards and against one shard.
      Per-shard capacity is fixed, so sharding multiplies the serving
      capacity and virtual completion time drops roughly by the shard
      count: that is the throughput claim.
   2. mailbox ping — two actors [call]ing each other, scheduler steps
      per round-trip: the constant behind every actor interaction.
   3. message ring — a token around [ring] actors for [laps] laps,
      steps per hop: mailbox latency with many mailboxes in play. *)

open Hio
open Hio.Io
open Hio_std
open Hactor

(* Each request "renders" for work_us of virtual time; keep-alive
   clients issue [reqs] requests per connection. *)
let work_us = 100

let handler (_ : Hserver.Http.request) =
  sleep work_us >>= fun () -> return (Hserver.Http.ok "hi")

let request =
  { Hserver.Http.meth = "GET"; path = "/hello"; headers = []; body = "" }

let config =
  {
    Hserver.Server.default_config with
    Hserver.Server.request_timeout = 1_000_000;
    max_concurrent = 4;
    max_waiting = 64;
    keep_alive = true;
  }

(* --- phase 1: keep-alive load, sharded vs single ------------------------- *)

let load_phase ~shards ~clients ~reqs =
  Hserver.Shard.start ~config ~shards handler >>= fun srv ->
  let one_client i =
    Hserver.Shard.connect ~key:(Printf.sprintf "client-%d" i) srv
    >>= fun conn ->
    Combinators.repeat reqs
      ( Hserver.Http.write_request conn request >>= fun () ->
        Hserver.Http.read_response conn >>= fun r ->
        if r.Hserver.Http.status <> 200 then
          throw (Failure (Printf.sprintf "status %d" r.Hserver.Http.status))
        else return () )
    >>= fun () -> Hserver.Http.Conn.close conn
  in
  Combinators.parallel (List.init clients one_client) >>= fun _ ->
  Hserver.Shard.shutdown srv

let run_load ~shards ~clients ~reqs =
  let r = Runtime.run (load_phase ~shards ~clients ~reqs) in
  match r.Runtime.outcome with
  | Runtime.Value stats ->
      if stats.Hserver.Server.served <> clients * reqs then begin
        Printf.eprintf "shards=%d: served %d of %d\n%!" shards
          stats.Hserver.Server.served (clients * reqs);
        exit 1
      end;
      (stats, r.Runtime.time, r.Runtime.steps)
  | Runtime.Uncaught e ->
      Printf.eprintf "load (shards=%d) died: %s\n%!" shards
        (Printexc.to_string e);
      exit 1
  | _ ->
      Printf.eprintf "load (shards=%d) did not finish\n%!" shards;
      exit 1

(* --- phase 2: mailbox ping ------------------------------------------------ *)

let ping_phase rounds =
  Actor.spawn ~name:"ponger" (fun self ->
      Combinators.forever
        (Actor.receive self (fun (`Ping r) -> Some r) >>= fun r ->
         Actor.reply r ()))
  >>= fun ponger ->
  Combinators.repeat rounds (Actor.call ponger (fun r -> `Ping r))
  >>= fun () ->
  Actor.stop ponger >>= fun _ -> return ()

let run_ping rounds =
  let r = Runtime.run (ping_phase rounds) in
  match r.Runtime.outcome with
  | Runtime.Value () -> r.Runtime.steps / rounds
  | _ ->
      Printf.eprintf "ping phase did not finish\n%!";
      exit 1

(* --- phase 3: message ring ------------------------------------------------ *)

let ring_phase n laps =
  Mvar.new_empty >>= fun finished ->
  let rec mk i acc =
    if i = n then return (Array.of_list (List.rev acc))
    else
      Actor.create ~name:(Printf.sprintf "ring-%d" i) () >>= fun a ->
      mk (i + 1) (a :: acc)
  in
  mk 0 [] >>= fun members ->
  let body i self =
    Combinators.forever
      ( Actor.receive self (fun (`Token k) -> Some k) >>= fun k ->
        if k = 0 then Mvar.put finished ()
        else Actor.send members.((i + 1) mod n) (`Token (k - 1)) )
  in
  let rec start i =
    if i = n then return ()
    else Actor.fork_body members.(i) (body i) >>= fun () -> start (i + 1)
  in
  start 0 >>= fun () ->
  Actor.send members.(0) (`Token (n * laps)) >>= fun () ->
  Mvar.take finished >>= fun () ->
  let rec stop_all i =
    if i = n then return ()
    else Actor.kill members.(i) >>= fun () -> stop_all (i + 1)
  in
  stop_all 0

let run_ring n laps =
  let r = Runtime.run (ring_phase n laps) in
  match r.Runtime.outcome with
  | Runtime.Value () -> r.Runtime.steps / (n * laps)
  | _ ->
      Printf.eprintf "ring phase did not finish\n%!";
      exit 1

let shards = 4
and clients = 32
and reqs = 8

let () =
  let total = clients * reqs in
  let stats_n, time_n, steps_n = run_load ~shards ~clients ~reqs in
  let stats_1, time_1, steps_1 = run_load ~shards:1 ~clients ~reqs in
  let rps time = total * 1_000_000 / max 1 time in
  Printf.printf
    "sharded : %d shards, %d clients x %d reqs: served %d in %dus virtual \
     (%d req/s, %d steps, restarts=%d)\n"
    shards clients reqs stats_n.Hserver.Server.served time_n (rps time_n)
    steps_n stats_n.Hserver.Server.restarts;
  Printf.printf
    "single  : 1 shard,  %d clients x %d reqs: served %d in %dus virtual \
     (%d req/s, %d steps, restarts=%d)\n"
    clients reqs stats_1.Hserver.Server.served time_1 (rps time_1) steps_1
    stats_1.Hserver.Server.restarts;
  Printf.printf "speedup : %.2fx virtual time\n"
    (float_of_int time_1 /. float_of_int (max 1 time_n));
  let ping_rounds = 1_000 in
  let ping_steps = run_ping ping_rounds in
  Printf.printf "mailbox : call round-trip, %d steps (over %d rounds)\n"
    ping_steps ping_rounds;
  let ring_n = 16 and ring_laps = 50 in
  let hop_steps = run_ring ring_n ring_laps in
  Printf.printf "ring    : %d actors x %d laps, %d steps/hop\n" ring_n
    ring_laps hop_steps;
  if time_n >= time_1 then begin
    Printf.eprintf
      "sharding did not beat single (%dus >= %dus) — capacity math is off\n%!"
      time_n time_1;
    exit 1
  end
