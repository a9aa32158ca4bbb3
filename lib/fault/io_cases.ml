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

(* The supervised server on a chaos-wrapped sim backend under the
   serving protocol ({!Cases.serve}): whatever single transport fault (or
   fault+kill) lands, every surviving client gets a lawful outcome and
   probes on the disarmed transport are served with 200 again. *)
let io_server =
  Io_sweep.case ~max_steps:600_000 "io-server" (fun ctl ->
      ignore_result
        (Cases.serve ~chaos:ctl
           {
             Cases.name = "io-server";
             tree = Single;
             config = io_server_config;
             handler = Cases.hello;
             clients = Cases.at_once 3;
             timeout = 2_000;
             probes = [ None; None ];
             attempts = 1;
           }))

let chaos = [ io_pipe; io_server ]
