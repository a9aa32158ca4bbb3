(* The paper's §11 prototype, on the hserver library: a fault-tolerant
   HTTP server facing a hostile mix of clients — fast ones, slow handlers,
   slowloris trickles, and garbage — followed by a graceful shutdown.
   [Server.start] packages the §11 discipline: one thread per
   connection, a per-request timeout built from the composable §7.3
   combinator, bounded concurrency. The simulated network is named
   explicitly with [Ev.Backend.sim ()], so the same program runs on the
   real epoll backend by swapping that one argument (see
   examples/tcp_load.ml).

   Run with: dune exec examples/http_server.exe *)

open Hio
open Hio_std
open Hio.Io.Syntax
open Hio.Io
open Hserver

(* Pretend to render a page: the body carries how many microseconds of
   virtual time the render takes. A render that outlives the request
   timeout gets its client a 504 — the handler itself stays oblivious. *)
let render (request : Http.request) =
  let work = int_of_string request.Http.body in
  let* () = sleep work in
  return (Http.ok (Printf.sprintf "rendered in %dus" work))

let handler (request : Http.request) =
  if request.Http.path = "/render" then render request
  else
    Server.route
      [
        ("/", fun _ -> Http.ok "index");
        ("/greet", fun body -> Http.ok ("hello, " ^ body));
        ("/work", fun body -> Http.ok (String.uppercase_ascii body));
      ]
      request

(* a normal client *)
let polite server id path body =
  let* r =
    let* conn = Server.connect server in
    let* () =
      Http.write_request conn { Http.meth = "GET"; path; headers = []; body }
    in
    Http.read_response conn
  in
  put_string
    (Printf.sprintf "  client %-2d %-8s -> %d %s\n" id path r.Http.status
       r.Http.body)

(* a slowloris: sends one byte per 60us, forever *)
let slowloris server id =
  let* conn = Server.connect server in
  let* t =
    Io.fork
      (Combinators.forever
         (let* () = Http.Conn.send_string conn "X" in
          sleep 60))
  in
  let* r = Http.read_response conn in
  let* () = throw_to t Kill_thread in
  put_string
    (Printf.sprintf "  loris  %-2d          -> %d %s\n" id r.Http.status
       r.Http.body)

(* garbage on the wire *)
let vandal server id =
  let* conn = Server.connect server in
  let* () = Http.Conn.send_string conn "%%%garbage%%%\r\n\r\n" in
  let* r = Http.read_response conn in
  put_string
    (Printf.sprintf "  vandal %-2d          -> %d %s\n" id r.Http.status
       r.Http.body)

let main =
  let* server =
    Server.start
      ~backend:(Ev.Backend.sim ())
      ~config:
        { Server.default_config with request_timeout = 300; max_concurrent = 3;
          accept_queue = 16 }
      handler
  in
  let* () = put_string "server up\n" in
  let* tasks =
    Combinators.parallel_map Task.spawn
      [
        polite server 1 "/" "";
        polite server 2 "/greet" "world";
        slowloris server 3;
        polite server 4 "/work" "shout this";
        vandal server 5;
        polite server 6 "/missing" "";
        polite server 7 "/greet" "again";
        polite server 8 "/render" "1000";
      ]
  in
  let* () =
    let rec wait_all = function
      | [] -> return ()
      | t :: rest ->
          let* () = catch (Task.await t) (fun _ -> return ()) in
          wait_all rest
    in
    wait_all tasks
  in
  let* stats = Server.shutdown server in
  put_string
    (Printf.sprintf "shutdown: served=%d timeouts=%d bad=%d rejected=%d\n"
       stats.Server.served stats.Server.timeouts stats.Server.bad_requests
       stats.Server.rejected)

let () =
  let r = Runtime.run main in
  print_string r.Runtime.output;
  Printf.printf "(steps=%d, threads=%d, virtual time=%dus)\n" r.Runtime.steps
    r.Runtime.forks r.Runtime.time
