(* The §11 fault-tolerant server substrate: parsing, end-to-end requests,
   slow-client (slowloris) timeouts, admission control, graceful shutdown. *)

open Hio
open Hio_std
open Hio.Io
open Hserver
open Helpers

let int_v = Alcotest.int
let str_v = Alcotest.string

let echo_handler =
  Server.route
    [
      ("/hello", fun _ -> Http.ok "world");
      ("/echo", fun body -> Http.ok body);
    ]

(* A well-behaved client: one request, one response. *)
let get server ?(body = "") path =
  Server.connect server >>= fun conn ->
  Http.write_request conn
    { Http.meth = "GET"; path; headers = []; body }
  >>= fun () -> Http.read_response conn

let http_tests =
  [
    case "conn pipe carries bytes both ways" (fun () ->
        Alcotest.check (Alcotest.pair str_v str_v) "both" ("ping", "pong")
          (value
             ( Ev.Backend.sim_pipe () >>= fun (a, b) ->
               Http.Conn.send_string a "ping\n" >>= fun () ->
               Http.Conn.send_string b "pong\n" >>= fun () ->
               Http.Conn.recv_line b >>= fun at_b ->
               Http.Conn.recv_line a >>= fun at_a -> return (at_b, at_a) )));
    case "request round-trips through the wire format" (fun () ->
        let request =
          {
            Http.meth = "POST";
            path = "/submit";
            headers = [ ("x-token", "abc") ];
            body = "payload!";
          }
        in
        let got =
          value
            ( Ev.Backend.sim_pipe () >>= fun (client, server) ->
              fork (Http.write_request client request) >>= fun _ ->
              Http.read_request server )
        in
        Alcotest.check str_v "meth" "POST" got.Http.meth;
        Alcotest.check str_v "path" "/submit" got.Http.path;
        Alcotest.check str_v "body" "payload!" got.Http.body;
        Alcotest.(check (option string)) "header" (Some "abc")
          (List.assoc_opt "x-token" got.Http.headers));
    case "response round-trips" (fun () ->
        let got =
          value
            ( Ev.Backend.sim_pipe () >>= fun (client, server) ->
              fork (Http.write_response server (Http.ok "hi there"))
              >>= fun _ -> Http.read_response client )
        in
        Alcotest.check int_v "status" 200 got.Http.status;
        Alcotest.check str_v "body" "hi there" got.Http.body);
    case "drain_available returns buffered bytes without blocking" (fun () ->
        Alcotest.check str_v "drained" "abc"
          (value
             ( Ev.Backend.sim_pipe () >>= fun (a, b) ->
               Http.Conn.send_string a "abc" >>= fun () ->
               Http.Conn.drain_available b )));
    case "drain_available on an empty stream is empty" (fun () ->
        Alcotest.check str_v "empty" ""
          (value
             ( Ev.Backend.sim_pipe () >>= fun (_a, b) ->
               Http.Conn.drain_available b )));
    case "malformed request line raises Bad_request" (fun () ->
        match
          run
            ( Ev.Backend.sim_pipe () >>= fun (client, server) ->
              fork (Http.Conn.send_string client "NONSENSE\r\n\r\n")
              >>= fun _ -> Http.read_request server )
        with
        | { Runtime.outcome = Runtime.Uncaught (Http.Bad_request _); _ } -> ()
        | _ -> Alcotest.fail "expected Bad_request");
    case "bad content-length raises Bad_request" (fun () ->
        match
          run
            ( Ev.Backend.sim_pipe () >>= fun (client, server) ->
              fork
                (Http.Conn.send_string client
                   "GET / HTTP/1.0\r\ncontent-length: wat\r\n\r\n")
              >>= fun _ -> Http.read_request server )
        with
        | { Runtime.outcome = Runtime.Uncaught (Http.Bad_request _); _ } -> ()
        | _ -> Alcotest.fail "expected Bad_request");
  ]

let server_tests =
  [
    case "end-to-end: routed request gets its answer" (fun () ->
        let response =
          value
            ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
              get server "/hello" >>= fun r ->
              Server.shutdown server >>= fun _ -> return r )
        in
        Alcotest.check int_v "status" 200 response.Http.status;
        Alcotest.check str_v "body" "world" response.Http.body);
    case "unknown path gets 404" (fun () ->
        Alcotest.check int_v "status" 404
          (value
             ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
               get server "/nope" >>= fun r ->
               Server.shutdown server >>= fun _ -> return r.Http.status )));
    case "post body is echoed" (fun () ->
        Alcotest.check str_v "echo" "data-123"
          (value
             ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
               get server ~body:"data-123" "/echo" >>= fun r ->
               Server.shutdown server >>= fun _ -> return r.Http.body )));
    case "many concurrent clients are all served" (fun () ->
        let n = 12 in
        let stats, statuses =
          value
            ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
              Combinators.parallel_map
                (fun _ -> get server "/hello")
                (List.init n Fun.id)
              >>= fun responses ->
              Server.shutdown server >>= fun stats ->
              return (stats, List.map (fun r -> r.Http.status) responses) )
        in
        Alcotest.(check (list int_v)) "all 200"
          (List.init n (fun _ -> 200))
          statuses;
        Alcotest.check int_v "served count" n stats.Server.served);
    case "a slowloris client is answered 504 by the timeout" (fun () ->
        let response =
          value
            ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
              Server.connect server >>= fun conn ->
              (* trickle an incomplete request forever *)
              fork
                (Combinators.forever
                   ( Http.Conn.send_string conn "G" >>= fun () ->
                     sleep 50 ))
              >>= fun _dripper ->
              Http.read_response conn >>= fun r ->
              Server.shutdown server >>= fun _ -> return r )
        in
        Alcotest.check int_v "status" 504 response.Http.status);
    case "slow handlers hit the same timeout" (fun () ->
        let slow_handler _req =
          sleep 10_000 >>= fun () -> return (Http.ok "too late")
        in
        Alcotest.check int_v "status" 504
          (value
             ( Server.start ~backend:(Ev.Backend.sim ()) slow_handler >>= fun server ->
               get server "/x" >>= fun r ->
               Server.shutdown server >>= fun _ -> return r.Http.status )));
    case "admission control requires timeouts to cover queueing" (fun () ->
        (* 1 worker slot and a slow handler: the second client's worker
           waits for admission and times out end-to-end *)
        let config =
          { Server.default_config with Server.max_concurrent = 1 }
        in
        let slowish _req = sleep 150 >>= fun () -> return (Http.ok "done") in
        let statuses =
          value
            ( Server.start ~backend:(Ev.Backend.sim ()) ~config slowish >>= fun server ->
              Combinators.parallel_map
                (fun _ -> get server "/x" >>= fun r -> return r.Http.status)
                [ 0; 1; 2 ]
              >>= fun statuses ->
              Server.shutdown server >>= fun _ -> return statuses )
        in
        Alcotest.(check bool) "someone served" true (List.mem 200 statuses);
        Alcotest.(check bool) "someone timed out" true (List.mem 504 statuses));
    case "shutdown rejects queued connections and reports stats" (fun () ->
        let stats =
          value
            ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
              get server "/hello" >>= fun _ ->
              Server.shutdown server >>= fun stats -> return stats )
        in
        Alcotest.check int_v "served" 1 stats.Server.served;
        Alcotest.check int_v "rejected" 0 stats.Server.rejected);
    case "connect after shutdown raises Server_stopped" (fun () ->
        match
          run
            ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
              Server.shutdown server >>= fun _ -> Server.connect server )
        with
        | { Runtime.outcome = Runtime.Uncaught Server.Server_stopped; _ } -> ()
        | _ -> Alcotest.fail "expected Server_stopped");
    case "bad request over the wire gets 400, server survives" (fun () ->
        let first_status, second =
          value
            ( Server.start ~backend:(Ev.Backend.sim ()) echo_handler >>= fun server ->
              Server.connect server >>= fun conn ->
              Http.Conn.send_string conn "BROKEN\r\n\r\n" >>= fun () ->
              Http.read_response conn >>= fun bad ->
              get server "/hello" >>= fun good ->
              Server.shutdown server >>= fun _ ->
              return (bad.Http.status, good.Http.status) )
        in
        Alcotest.check int_v "bad gets 400" 400 first_status;
        Alcotest.check int_v "server still fine" 200 second);
  ]

(* ---- the server closes what it served ----------------------------------

   A sim backend whose accepted connections record their own close: the
   server end of every served one-shot connection must be closed by its
   worker, or on a real transport each request leaks a socket. *)
let closing_backend closed =
  let b = Ev.Backend.sim () in
  let listen ~backlog =
    b.Ev.Backend.b_listen ~backlog >>= fun l ->
    let accept () =
      l.Ev.Backend.l_accept () >>= fun c ->
      let seen = ref false in
      let close () =
        lift (fun () ->
            if not !seen then begin
              seen := true;
              incr closed
            end)
        >>= fun () -> c.Ev.Backend.c_close ()
      in
      return { c with Ev.Backend.c_close = close }
    in
    return { l with Ev.Backend.l_accept = accept }
  in
  { b with Ev.Backend.b_listen = listen }

let one_shot_closes ?(handler = echo_handler) ~served supervised =
  let n = 5 in
  let closed = ref 0 in
  let config = { Server.default_config with Server.supervised } in
  let stats =
    value
      ( Server.start ~config ~backend:(closing_backend closed) handler
      >>= fun server ->
        Combinators.repeat n
          (catch (ignore_result (get server "/hello")) (fun _ -> return ()))
        >>= fun () -> Server.shutdown server )
  in
  Alcotest.check int_v "served" served stats.Server.served;
  Alcotest.check int_v "server ends closed" n !closed

(* A handler bug escapes the worker: supervised, the restarted worker
   answers 503 and closes; plain, there is no restart, and the
   connection must still be closed rather than left for the peer to
   wait on. *)
let crashing _ = throw (Failure "handler bug")

let close_tests =
  [
    case "supervised: every one-shot connection is closed by the server"
      (fun () -> one_shot_closes ~served:5 true);
    case "plain: every one-shot connection is closed by the server"
      (fun () -> one_shot_closes ~served:5 false);
    case "supervised: a crashed worker's connection is closed" (fun () ->
        one_shot_closes ~handler:crashing ~served:0 true);
    case "plain: a crashed worker's connection is closed" (fun () ->
        one_shot_closes ~handler:crashing ~served:0 false);
  ]

(* ---- differential: one script, every server ------------------------------

   The same client script runs against the supervised and plain Server,
   Shard with one and two shards, and (slow) the supervised Server over
   real loopback TCP. All run with keep-alive on — the supervised Server
   honours it like the others. Each must give the same statuses and the
   same request/fault tallies once the [layer]/[backend] labels are set
   aside. *)
let script connect =
  let request path = { Http.meth = "GET"; path; headers = []; body = "" } in
  (* a response that never comes reads as status 0, not a hung client *)
  let status conn =
    catch
      ( Combinators.timeout 1_000_000 (Http.read_response conn) >>= function
        | Some r -> return r.Http.status
        | None -> return 0 )
      (fun _ -> return 0)
  in
  let exchange conn path =
    Http.write_request conn (request path) >>= fun () -> status conn
  in
  let one_shot f =
    connect () >>= fun conn ->
    f conn >>= fun status ->
    Http.Conn.close conn >>= fun () -> return status
  in
  (* First, a peer that leaves mid-request — first, so its worker is
     long done by the time the script ends and shutdown begins. *)
  connect () >>= fun gone ->
  Http.Conn.send_string gone "GET /hello HTTP/1.0\r\n" >>= fun () ->
  Http.Conn.close gone >>= fun () ->
  one_shot (fun c -> exchange c "/hello") >>= fun ok ->
  one_shot (fun c -> exchange c "/nope") >>= fun missing ->
  one_shot (fun c ->
      Http.Conn.send_string c "BROKEN\r\n\r\n" >>= fun () -> status c)
  >>= fun bad ->
  connect () >>= fun kept ->
  exchange kept "/hello" >>= fun first ->
  exchange kept "/hello" >>= fun second ->
  Http.Conn.close kept >>= fun () -> return [ ok; missing; bad; first; second ]

(* Request outcomes and absorbed faults, read under a server's own
   labels and reported without them. *)
let tallies reg labels =
  let read name (k, v) =
    ( Printf.sprintf "%s{%s=%s}" name k v,
      Obs.Metrics.counter_value
        (Obs.Metrics.counter reg ~labels:((k, v) :: labels) name) )
  in
  List.map
    (fun o -> read "server_requests_total" ("outcome", o))
    [ "ok"; "timeout"; "bad_request"; "shed"; "degraded" ]
  @ List.map
      (fun k -> read "server_io_faults_total" ("kind", k))
      [ "eof"; "reset"; "deadline" ]

let expected_statuses = [ 200; 404; 400; 200; 200 ]

(* ok: /hello, /nope and the two keep-alive requests; eof: the peer
   that left mid-request, and each keep-alive peer that closed at a
   request boundary (the 400 closes from the server side instead). *)
let expected_tallies =
  [
    ("server_requests_total{outcome=ok}", 4);
    ("server_requests_total{outcome=timeout}", 0);
    ("server_requests_total{outcome=bad_request}", 1);
    ("server_requests_total{outcome=shed}", 0);
    ("server_requests_total{outcome=degraded}", 0);
    ("server_io_faults_total{kind=eof}", 4);
    ("server_io_faults_total{kind=reset}", 0);
    ("server_io_faults_total{kind=deadline}", 0);
  ]

let diff_config =
  {
    Server.default_config with
    Server.request_timeout = 2_000_000;
    keep_alive = true;
  }

let via_server ?(config = diff_config) backend reg =
  Server.start ~config ~metrics:reg ~backend echo_handler >>= fun server ->
  script (fun () -> Server.connect server) >>= fun statuses ->
  Server.shutdown server >>= fun _ ->
  return (statuses, [ ("backend", backend.Ev.Backend.b_name) ])

let via_shard shards reg =
  Shard.start ~config:diff_config ~metrics:reg ~shards echo_handler
  >>= fun srv ->
  script (fun () -> Shard.connect srv) >>= fun statuses ->
  Shard.shutdown srv >>= fun _ -> return (statuses, [ ("layer", "shard") ])

let agrees run =
  let reg = Obs.Metrics.create () in
  let statuses, labels = run reg in
  Alcotest.(check (list int_v)) "statuses" expected_statuses statuses;
  Alcotest.(check (list (pair str_v int_v)))
    "tallies" expected_tallies (tallies reg labels)

let on_sim io reg = value (io reg)

let on_real io reg =
  let backend = Ev.Real.create () in
  let config =
    Ev.Backend.install backend
      { Runtime.Config.default with Runtime.Config.max_steps = 200_000_000 }
  in
  match (Runtime.run ~config (io backend reg)).Runtime.outcome with
  | Runtime.Value v -> v
  | Runtime.Uncaught e -> Alcotest.failf "uncaught: %s" (Printexc.to_string e)
  | Runtime.Deadlock -> Alcotest.fail "deadlock"
  | Runtime.Out_of_steps -> Alcotest.fail "out of steps"

let differential_tests =
  [
    case "Server, supervised, sim" (fun () ->
        agrees (on_sim (via_server (Ev.Backend.sim ()))));
    case "Server, plain, sim" (fun () ->
        let config = { diff_config with Server.supervised = false } in
        agrees (on_sim (via_server ~config (Ev.Backend.sim ()))));
    case "Shard, 1 shard, sim" (fun () -> agrees (on_sim (via_shard 1)));
    case "Shard, 2 shards, sim" (fun () -> agrees (on_sim (via_shard 2)));
    flaky_slow_case "Server, supervised, real TCP" (fun () ->
        agrees (on_real (fun backend -> via_server backend)));
  ]

let suites =
  [
    ("server:http", http_tests);
    ("server:behaviour", server_tests);
    ("server:close", close_tests);
    ("server:differential", differential_tests);
  ]
