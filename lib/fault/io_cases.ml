(* The I/O chaos suite: programs hardened to survive any single
   transport fault (and, in combined mode, a kill layered on top). Each
   case takes the per-run {!Ev.Chaos.ctl}, builds its transport through
   the chaos decorator, runs its concurrent work while armed, then
   disarms BOTH sweeps — the kill window and the chaos plan — and probes
   its invariants on a clean transport. *)

open Hio
open Hio_std
open Hserver
open Io

let join = Cases.join
let transient e = Hsup.Retry.transient_io e

(* --- io-pipe: one bounded pipe, writer vs reader under fire ------------- *)

(* A writer streams a known payload through a chaos-wrapped pipe; the
   reader accumulates until EOF. Any single fault may cut the stream
   short, but never corrupt it: what arrived must be a prefix of what
   was sent (short writes deliver a prefix then reset; trickles and
   delays reorder nothing). Afterwards a fresh pipe must still
   round-trip, and close must be idempotent.

   Each side guards its own liveness with a virtual-time deadline, like
   a real peer: a killed reader leaves the bounded pipe full forever,
   and a compensation spin in main (the kill cases' trick) would starve
   the timer wheel the chaos delays arm — so the parked survivor must
   time itself out instead. *)
let io_pipe =
  Io_sweep.case ~max_steps:100_000 "io-pipe"
    (fun ctl ->
      Ev.Backend.sim_pipe ~capacity:4 () >>= fun (a, b) ->
      let a = Ev.Chaos.wrap_conn ctl a and b = Ev.Chaos.wrap_conn ctl b in
      let payload = "hello, chaos!" in
      lift (fun () -> Buffer.create 16) >>= fun got ->
      let writer =
        catch
          (ignore_result
             (Combinators.timeout 5_000 (a.Ev.Backend.c_send payload)))
          (fun e -> if transient e then return () else throw e)
        >>= fun () -> a.Ev.Backend.c_close ()
      in
      let reader =
        let rec go () =
          b.Ev.Backend.c_recv ~upto:None ~max:16 >>= fun s ->
          lift (fun () -> Buffer.add_string got s) >>= fun () -> go ()
        in
        catch
          (ignore_result (Combinators.timeout 5_000 (go ())))
          (fun e -> if transient e then return () else throw e)
        >>= fun () -> b.Ev.Backend.c_close ()
      in
      Task.spawn ~name:"writer" writer >>= fun w ->
      Task.spawn ~name:"reader" reader >>= fun r ->
      join w >>= fun () ->
      (* a killed writer never closes: release the reader ourselves *)
      a.Ev.Backend.c_close () >>= fun () ->
      join r >>= fun () ->
      b.Ev.Backend.c_close () >>= fun () ->
      Sweep.disarm >>= fun () ->
      Ev.Chaos.disarm ctl >>= fun () ->
      lift (fun () -> Buffer.contents got) >>= fun got ->
      Sweep.require "io-pipe: received is a prefix of sent"
        (String.length got <= String.length payload
        && got = String.sub payload 0 (String.length got))
      >>= fun () ->
      (* the fabric is intact: a fresh pipe round-trips, drains to EOF
         after close, and close is idempotent *)
      Ev.Backend.sim_pipe () >>= fun (c, d) ->
      c.Ev.Backend.c_send "ok" >>= fun () ->
      c.Ev.Backend.c_close () >>= fun () ->
      c.Ev.Backend.c_close () >>= fun () ->
      d.Ev.Backend.c_recv ~upto:None ~max:16 >>= fun got ->
      catch
        (d.Ev.Backend.c_recv ~upto:None ~max:16 >>= fun _ -> return false)
        (fun e -> return (e = End_of_file))
      >>= fun eof ->
      Sweep.require "io-pipe: fresh pipe drains then EOF" (got = "ok" && eof))

(* --- io-server: the supervised server under transport fire -------------- *)

let io_server_config =
  {
    Server.default_config with
    max_concurrent = 2;
    max_waiting = 2;
    dial_timeout = 400;
    restart_intensity = { Hsup.Sup.max_restarts = 8; window = 100_000 };
  }

(* The tentpole case: the supervised server on a chaos-wrapped sim
   backend, three clients that retry through transient faults. The
   hardening contract: whatever single transport fault (or fault+kill)
   lands, every client that survives gets a lawful outcome — an HTTP
   status the server may send, its own timeout, or a transport-level
   degradation — and the tree returns to steady state, proven by probe
   requests on the disarmed transport that must be served with 200. *)
let io_server =
  Io_sweep.case ~max_steps:600_000 "io-server"
    (fun ctl ->
      let handler =
        Server.route [ ("/hello", fun body -> Http.ok ("hi" ^ body)) ]
      in
      let backend = Ev.Chaos.wrap ctl (Ev.Backend.sim ()) in
      Server.start ~config:io_server_config ~backend handler
      >>= fun server ->
      lift (fun () -> Array.make 3 None) >>= fun outcomes ->
      let client i =
        catch
          ( Server.connect server >>= fun conn ->
            Http.write_request conn
              { Http.meth = "GET"; path = "/hello"; headers = []; body = "" }
            >>= fun () ->
            Combinators.timeout 2_000 (Http.read_response conn)
            >>= fun r ->
            lift (fun () ->
                outcomes.(i) <-
                  Some
                    (match r with
                    | None -> `Timed_out
                    | Some resp -> `Status resp.Http.status)) )
          (fun e ->
            if transient e || e = Server.Dial_timeout then
              lift (fun () -> outcomes.(i) <- Some `Transport)
            else throw e)
      in
      Task.spawn ~name:"client0" (client 0) >>= fun c0 ->
      Task.spawn ~name:"client1" (client 1) >>= fun c1 ->
      Task.spawn ~name:"client2" (client 2) >>= fun c2 ->
      join c0 >>= fun () ->
      join c1 >>= fun () ->
      join c2 >>= fun () ->
      Sweep.disarm >>= fun () ->
      Ev.Chaos.disarm ctl >>= fun () ->
      (* every surviving client recorded a lawful outcome *)
      let check t i =
        Task.poll t >>= fun st ->
        lift (fun () -> outcomes.(i)) >>= fun o ->
        match st with
        | Some (Stdlib.Ok ()) ->
            Sweep.require "io-server: surviving client got a lawful outcome"
              (match o with
              | Some (`Status (200 | 503 | 504))
              | Some `Timed_out | Some `Transport ->
                  true
              | _ -> false)
        | _ -> return () (* the client was the kill victim *)
      in
      check c0 0 >>= fun () ->
      check c1 1 >>= fun () ->
      check c2 2 >>= fun () ->
      (* steady state on the now-clean transport: 200s again — twice, so
         the first probe wasn't a fluke of a half-restarted tree *)
      let probe srv =
        catch
          ( Server.connect srv >>= fun conn ->
            Http.write_request conn
              { Http.meth = "GET"; path = "/hello"; headers = []; body = "" }
            >>= fun () ->
            Combinators.timeout 2_000 (Http.read_response conn)
            >>= fun r ->
            return
              (match r with
              | Some resp -> resp.Http.status = 200
              | None -> false) )
          (fun e ->
            if transient e || e = Server.Dial_timeout then return false
            else throw e)
      in
      let sup_alive () =
        match Server.supervisor server with
        | None -> return true
        | Some sup -> Hsup.Sup.alive sup
      in
      let fresh_tree () =
        (* the supervisor itself died (combined mode can kill it): a
           process manager would restart the whole tree — model that and
           require service is restored on a clean transport *)
        Server.start ~config:io_server_config
          ~backend:(Ev.Backend.sim ()) handler
        >>= fun fresh ->
        probe fresh >>= fun ok ->
        Sweep.require "io-server: a fresh tree restores service" ok
        >>= fun () ->
        Server.shutdown fresh >>= fun _ -> return ()
      in
      sup_alive () >>= fun alive ->
      (if alive then
         probe server >>= fun ok1 ->
         if ok1 then
           probe server >>= fun ok2 ->
           Sweep.require "io-server: steady state persists" ok2
         else
           sup_alive () >>= fun still_alive ->
           Sweep.require "io-server: steady state answers 200"
             (not still_alive)
           >>= fun () -> fresh_tree ()
       else fresh_tree ())
      >>= fun () ->
      Server.shutdown server >>= fun _stats ->
      catch
        (Server.connect server >>= fun _ -> return false)
        (fun e -> return (e = Server.Server_stopped))
      >>= Sweep.require "io-server: connect after shutdown is refused")

let chaos = [ io_pipe; io_server ]
