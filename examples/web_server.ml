(* A simulated fault-tolerant web server, after the paper's §11 prototype
   ("a Haskell web server [that] makes heavy use of time-outs,
   multithreading and exceptions", reference [8]).

   This used to hand-roll the whole thing from channels and semaphores;
   it now rides the hserver library, which packages the same §11
   discipline — one thread per connection, a per-request timeout built
   from the composable §7.3 combinator, bounded concurrency — behind
   [Server.start]. The simulated network is named explicitly with
   [Ev.Backend.sim ()] (also the default), so the same program runs on
   the real epoll backend by swapping that one argument (see
   examples/tcp_load.ml).

   Run with: dune exec examples/web_server.exe *)

open Hio
open Hio_std
open Hio.Io.Syntax
open Hio.Io
open Hserver

let request_timeout = 200
let max_concurrent = 4

(* Pretend to render a page: the body carries how many microseconds of
   virtual time the render takes. Long renders blow the request timeout
   and the client sees a 504 — the handler itself stays oblivious. *)
let handler (request : Http.request) =
  let work = int_of_string request.Http.body in
  let* () = sleep work in
  return (Http.ok (Printf.sprintf "rendered %s in %dus" request.Http.path work))

let client server id =
  let url = [| "/index"; "/search"; "/report"; "/assets" |].(id mod 4) in
  let work = 37 * ((id * 13 mod 9) + 1) in
  (* staggered arrivals: the timeout clock runs from accept, so a
     stampede would spend its whole budget queueing behind
     [max_concurrent] and 504 even the cheap renders *)
  let* () = sleep (40 * id) in
  let* conn = Server.connect server in
  let* () =
    Http.write_request conn
      { Http.meth = "GET"; path = url; headers = []; body = string_of_int work }
  in
  let* r = Http.read_response conn in
  put_string
    (Printf.sprintf "  [%3d] %d %-8s %-12s (%dus)\n" id r.Http.status
       (if r.Http.status = 200 then "OK" else "TIMEOUT")
       url work)

let main =
  let* server =
    Server.start
      ~backend:(Ev.Backend.sim ())
      ~config:
        { Server.default_config with request_timeout; max_concurrent }
      handler
  in
  let* () = put_string "server: listening (simulated)\n" in
  (* 20 clients fire requests. *)
  let* clients =
    let rec spawn i acc =
      if i > 20 then return acc
      else
        let* t = Task.spawn (client server i) in
        spawn (i + 1) (t :: acc)
    in
    spawn 1 []
  in
  let* () =
    let rec wait_all = function
      | [] -> return ()
      | t :: rest ->
          let* () = catch (Task.await t) (fun _ -> return ()) in
          wait_all rest
    in
    wait_all clients
  in
  let* stats = Server.shutdown server in
  let* () =
    put_string
      (Printf.sprintf "stats: served=%d timed_out=%d\n" stats.Server.served
         stats.Server.timeouts)
  in
  return (stats.Server.served, stats.Server.timeouts)

let () =
  let result = Runtime.run main in
  print_string result.Runtime.output;
  match result.Runtime.outcome with
  | Runtime.Value (served, timed_out) ->
      Printf.printf
        "\nvirtual time: %dus, steps: %d, threads: %d (served=%d, 504s=%d)\n"
        result.Runtime.time result.Runtime.steps result.Runtime.forks served
        timed_out
  | _ -> print_endline "server did not finish cleanly"
