(* A counting decorator for [Ev.Backend], built the way [Ev.Chaos] wraps
   a backend: every conn, listener and event-source closure is replaced
   by one that counts (and, for the blocking calls, times) the call and
   then delegates. Counting happens when the closure is applied, not in
   an extra [lift], so the decorated program takes the same scheduler
   steps per byte as the bare one. Installed only in traced rounds. *)

open Hio
open Hio.Io

type t = {
  mutable wait_calls : int;
  mutable wait_ns : int;
  mutable modify_calls : int;
  mutable recv_calls : int;
  mutable send_calls : int;
  mutable bytes : int;  (** bytes handed to [c_send] *)
  dial : Samples.t;  (** ns per completed [l_dial] *)
  accept : Samples.t;  (** ns per completed [l_accept] *)
}

let create () =
  {
    wait_calls = 0;
    wait_ns = 0;
    modify_calls = 0;
    recv_calls = 0;
    send_calls = 0;
    bytes = 0;
    dial = Samples.create 100_000;
    accept = Samples.create 100_000;
  }

let conn t (c : Ev.Backend.conn) : Ev.Backend.conn =
  {
    c with
    c_send =
      (fun s ->
        t.send_calls <- t.send_calls + 1;
        t.bytes <- t.bytes + String.length s;
        c.c_send s);
    c_recv_char =
      (fun () ->
        t.recv_calls <- t.recv_calls + 1;
        c.c_recv_char ());
    c_try_recv =
      (fun () ->
        t.recv_calls <- t.recv_calls + 1;
        c.c_try_recv ());
  }

let timed samples io =
  lift Clock.now_ns >>= fun t0 ->
  io >>= fun v ->
  lift (fun () -> Samples.add samples (Clock.now_ns () - t0)) >>= fun () ->
  return v

let listener t (l : Ev.Backend.listener) : Ev.Backend.listener =
  {
    l with
    l_accept = (fun () -> timed t.accept (l.l_accept ()) >>= fun c -> return (conn t c));
    l_dial = (fun () -> timed t.dial (l.l_dial ()) >>= fun c -> return (conn t c));
  }

let event_source t (es : Runtime.event_source) : Runtime.event_source =
  {
    es with
    es_modify =
      (fun ~fd ~read ~write ->
        t.modify_calls <- t.modify_calls + 1;
        es.es_modify ~fd ~read ~write);
    es_wait =
      (fun ~timeout_us ->
        let t0 = Clock.now_ns () in
        let r = es.es_wait ~timeout_us in
        t.wait_ns <- t.wait_ns + (Clock.now_ns () - t0);
        t.wait_calls <- t.wait_calls + 1;
        r);
  }

let backend t (b : Ev.Backend.t) : Ev.Backend.t =
  {
    b with
    b_listen = (fun ~backlog -> b.b_listen ~backlog >>= fun l -> return (listener t l));
    b_event_source = Option.map (event_source t) b.b_event_source;
  }
