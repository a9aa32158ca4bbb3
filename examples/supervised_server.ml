(* Supervision in action: the resilience layer (lib/sup) around the §11
   server and around a flaky downstream call.

   Three stories in one run:
   1. a supervised worker pool — one worker is killed mid-request and the
      client still gets an answer (a 503, never silence), the supervisor
      restarts the slot, and the server keeps serving;
   2. saturation — more clients than capacity + waiting room, so the
      bulkhead sheds the overflow with immediate 503s instead of growing
      an unbounded queue;
   3. retry + circuit breaker over a flaky operation — deterministic
      exponential backoff rides the virtual clock, the breaker trips
      after repeated failures, fails fast while open, and closes again
      after its reset window.

   Run with: dune exec examples/supervised_server.exe *)

open Hio
open Hio_std
open Hio.Io.Syntax
open Hio.Io
open Hserver
open Hsup

let handler request =
  match request.Http.path with
  | "/slow" ->
      (* slow enough that the kill below lands mid-handler *)
      let* () = sleep 200 in
      return (Http.ok "done")
  | _ -> return (Http.ok "index")

let get server id path =
  let* conn = Server.connect server in
  let* () =
    Http.write_request conn { Http.meth = "GET"; path; headers = []; body = "" }
  in
  let* r = Http.read_response conn in
  put_string
    (Printf.sprintf "  client %-2d %-6s -> %d %s\n" id path r.Http.status
       r.Http.body)

(* --- 1 + 2: the supervised server under a kill and under load ----------- *)

let server_story =
  let* server =
    Server.start
      ~backend:(Ev.Backend.sim ())
      ~config:
        {
          Server.default_config with
          max_concurrent = 2;
          max_waiting = 1;
          request_timeout = 400;
        }
      handler
  in
  let* () = put_string "supervised server up\n" in
  (* a victim request: wait until its worker is mid-handler, kill it *)
  let* victim = Task.spawn ~name:"victim" (get server 0 "/slow") in
  let sup = Option.get (Server.supervisor server) in
  let rec wait_worker () =
    let* up = Sup.child_up sup "conn-worker" in
    if up then return () else yield >>= wait_worker
  in
  let* () = wait_worker () in
  let* () = sleep 50 in
  let* tid = Sup.child_tid sup "conn-worker" in
  let* () = throw_to (Option.get tid) Kill_thread in
  let* () = put_string "killed a conn-worker mid-request\n" in
  let* () = catch (Task.await victim) (fun _ -> return ()) in
  (* now saturate: 5 clients against capacity 2 + 1 waiting *)
  let* tasks =
    Combinators.parallel_map Task.spawn
      [ get server 1 "/"; get server 2 "/"; get server 3 "/";
        get server 4 "/"; get server 5 "/" ]
  in
  let rec wait_all = function
    | [] -> return ()
    | t :: rest ->
        let* () = catch (Task.await t) (fun _ -> return ()) in
        wait_all rest
  in
  let* () = wait_all tasks in
  let* stats = Server.shutdown server in
  put_string
    (Printf.sprintf "shutdown: served=%d shed=%d restarts=%d\n"
       stats.Server.served stats.Server.shed stats.Server.restarts)

(* --- 3: retry + breaker over a flaky downstream -------------------------- *)

let breaker_story =
  let* calls = lift (fun () -> ref 0) in
  let* br = Breaker.create ~failure_threshold:2 ~reset_timeout:200 () in
  let flaky =
    let* n = lift (fun () -> incr calls; !calls) in
    if n <= 3 then throw (Failure "downstream down") else return n
  in
  let attempt label =
    catch
      (let* v = Breaker.run br flaky in
       put_string (Printf.sprintf "  %s -> ok (call %d)\n" label v))
      (function
        | Breaker.Open_circuit ->
            put_string (Printf.sprintf "  %s -> rejected (breaker open)\n" label)
        | e -> put_string (Printf.sprintf "  %s -> %s\n" label (Printexc.to_string e)))
  in
  let* () = put_string "flaky downstream behind retry + breaker:\n" in
  (* two failures trip the breaker open *)
  let* () = attempt "call 1" in
  let* () = attempt "call 2" in
  let* st = Breaker.state br in
  let* () =
    put_string
      (Printf.sprintf "  breaker is %s\n"
         (match st with
         | Breaker.Open -> "open"
         | Breaker.Half_open -> "half-open"
         | Breaker.Closed -> "closed"))
  in
  (* while open, calls fail fast — no work reaches the downstream *)
  let* () = attempt "call 3" in
  (* retry with deterministic backoff outlives the reset window: its
     later attempts find the breaker half-open, probe, and succeed *)
  let* () =
    Retry.retry ~attempts:6 ~base:50 ~jitter:4
      (let* v = Breaker.run br flaky in
       put_string (Printf.sprintf "  retry -> ok (call %d)\n" v))
  in
  let* st = Breaker.state br in
  let* now_us = now in
  put_string
    (Printf.sprintf "  breaker closed again: %b (virtual time %dus)\n"
       (st = Breaker.Closed) now_us)

let main =
  let* () = server_story in
  breaker_story

let () =
  let r = Runtime.run main in
  print_string r.Runtime.output;
  Printf.printf "(steps=%d, threads=%d, virtual time=%dus)\n" r.Runtime.steps
    r.Runtime.forks r.Runtime.time
