open Hio
open Hio.Io

exception Connection_reset
exception Connection_refused
exception Accept_failed
exception Too_many_fds
exception Buffer_full

let () =
  Printexc.register_printer (function
    | Connection_reset -> Some "Connection_reset"
    | Connection_refused -> Some "Connection_refused"
    | Accept_failed -> Some "Accept_failed"
    | Too_many_fds -> Some "Too_many_fds"
    | Buffer_full -> Some "Buffer_full"
    | _ -> None)

type conn = {
  c_send : string -> unit Io.t;
  c_recv : upto:char option -> max:int -> string Io.t;
  c_recv_char : unit -> char Io.t;
  c_try_recv : unit -> char option Io.t;
  c_close : unit -> unit Io.t;
  c_fd : int option;
}

let make_conn ~send ~recv ~try_recv ~close ~fd =
  {
    c_send = send;
    c_recv = recv;
    c_recv_char = (fun () -> map (fun s -> s.[0]) (recv ~upto:None ~max:1));
    c_try_recv = try_recv;
    c_close = close;
    c_fd = fd;
  }

type listener = {
  l_accept : unit -> conn Io.t;
  l_dial : unit -> conn Io.t;
  l_close : unit -> unit Io.t;
  l_port : int option;
}

type t = {
  b_name : string;
  b_listen : backlog:int -> listener Io.t;
  b_event_source : Runtime.event_source option;
}

let install b (config : Runtime.Config.t) =
  { config with Runtime.Config.event_source = b.b_event_source }

(* ---- the simulated transport: a closeable bounded byte pipe -----------

   One direction of a connection. Unlike the original [Bchan]-of-chars
   transport, a pipe can be {e closed}: buffered bytes drain first, then
   reads raise [End_of_file] — exactly the real backend's read-0/EPIPE
   behaviour — and a reader already blocked on an empty pipe is woken
   immediately.

   The bytes live in a ring of [capacity] slots. A read takes a whole
   chunk and a send pushes as much as fits, each in one [lift], so both
   cost one atomic scheduler step per chunk rather than per byte.

   Parked readers/writers wait on private one-shot MVars and are woken
   with [Mvar.try_put] (never blocks, so a waiter that was killed while
   parked leaves only harmless garbage). All state changes happen inside
   single [lift] steps, so they are atomic under the scheduler; the
   retry loops run under [block], making the park itself the only
   interruptible point (§5.3) — a kill while parked unregisters the
   waiter and re-raises, restoring the pipe like Bchan's §5.2 cursor
   discipline. *)

type pipe = {
  p_buf : Bytes.t; (* the ring; its length is the capacity *)
  mutable p_head : int;
  mutable p_len : int;
  mutable p_closed : bool;
  p_readers : unit Mvar.t list ref; (* oldest first *)
  p_writers : unit Mvar.t list ref;
}

let pipe_create cap =
  if cap < 1 then invalid_arg "Backend.sim_pipe: capacity < 1";
  {
    p_buf = Bytes.create cap;
    p_head = 0;
    p_len = 0;
    p_closed = false;
    p_readers = ref [];
    p_writers = ref [];
  }

(* Pop up to [max] buffered bytes, through the first [upto]. *)
let ring_take p ~upto ~max =
  let cap = Bytes.length p.p_buf in
  let avail = min max p.p_len in
  let n =
    match upto with
    | None -> avail
    | Some c ->
        let rec scan i =
          if i >= avail then avail
          else if Bytes.get p.p_buf ((p.p_head + i) mod cap) = c then i + 1
          else scan (i + 1)
        in
        scan 0
  in
  let s = Bytes.create n in
  let first = min n (cap - p.p_head) in
  Bytes.blit p.p_buf p.p_head s 0 first;
  Bytes.blit p.p_buf 0 s first (n - first);
  p.p_head <- (p.p_head + n) mod cap;
  p.p_len <- p.p_len - n;
  Bytes.unsafe_to_string s

(* Push as much of [s] from [off] as fits; returns the count pushed. *)
let ring_put p s off =
  let cap = Bytes.length p.p_buf in
  let n = min (cap - p.p_len) (String.length s - off) in
  let tail = (p.p_head + p.p_len) mod cap in
  let first = min n (cap - tail) in
  Bytes.blit_string s off p.p_buf tail first;
  Bytes.blit_string s (off + first) p.p_buf 0 (n - first);
  p.p_len <- p.p_len + n;
  n

let take_all q =
  let ws = !q in
  q := [];
  ws

let rec wake = function
  | [] -> return ()
  | w :: ws -> Mvar.try_put w () >>= fun _ -> wake ws

type 'a attempt = Done of 'a * unit Mvar.t list | Failed of exn | Wait

(* One blocking operation on a pipe or an accept queue: [attempt] runs
   in a single [lift] and settles ([Done] with the waiters to wake, or
   [Failed] with what to raise) or asks to [Wait]. Only then does the
   operation allocate a waiter [w]: it retries, registering [w] on [q]
   in the same step as the check, and parks until a peer's state change
   wakes it, then starts over. A kill or timeout while parked withdraws
   [w] and re-raises. *)
let blocking q attempt =
  block
    (let rec go () = lift attempt >>= settle
     and settle = function
       | Done (v, ws) -> wake ws >>= fun () -> return v
       | Failed e -> throw e
       | Wait -> (
           Mvar.new_empty >>= fun w ->
           lift (fun () ->
               match attempt () with
               | Wait ->
                   q := !q @ [ w ];
                   Wait
               | r -> r)
           >>= function
           | Wait ->
               catch (Mvar.take w) (fun e ->
                   lift (fun () -> q := List.filter (fun x -> x != w) !q)
                   >>= fun () -> throw e)
               >>= go
           | r -> settle r)
     in
     go ())

let pipe_recv p ~upto ~max =
  blocking p.p_readers (fun () ->
      if p.p_len > 0 then Done (ring_take p ~upto ~max, take_all p.p_writers)
      else if p.p_closed then Failed End_of_file
      else Wait)

let pipe_try_recv p =
  lift (fun () ->
      if p.p_len > 0 then
        let s = ring_take p ~upto:None ~max:1 in
        `Got (s.[0], take_all p.p_writers)
      else `Empty)
  >>= function
  | `Got (c, ws) -> wake ws >>= fun () -> return (Some c)
  | `Empty -> return None

(* Each chunk is its own masked step, so a kill between chunks leaves a
   prefix of [s] sent. *)
let pipe_send p s =
  let rec go off =
    if off >= String.length s then return ()
    else
      blocking p.p_writers (fun () ->
          if p.p_closed then Failed End_of_file
          else if p.p_len < Bytes.length p.p_buf then
            Done (ring_put p s off, take_all p.p_readers)
          else Wait)
      >>= fun n -> go (off + n)
  in
  go 0

(* Idempotent; wakes every parked reader and writer of this pipe so they
   re-check and observe the close. *)
let pipe_close p =
  lift (fun () ->
      if p.p_closed then []
      else begin
        p.p_closed <- true;
        let rs = take_all p.p_readers in
        rs @ take_all p.p_writers
      end)
  >>= wake

let sim_conn ~incoming ~outgoing =
  make_conn ~send:(pipe_send outgoing) ~recv:(pipe_recv incoming)
    ~try_recv:(fun () -> pipe_try_recv incoming)
      (* Full close, like [Unix.close] on a socket: the peer's reads drain
         then raise [End_of_file], the peer's sends raise [End_of_file],
         and a reader of {e this} conn blocked in [c_recv] wakes with
         [End_of_file]. *)
    ~close:(fun () -> pipe_close incoming >>= fun () -> pipe_close outgoing)
    ~fd:None

let sim_pipe ?(capacity = 64) () =
  lift (fun () -> (pipe_create capacity, pipe_create capacity))
  >>= fun (a_to_b, b_to_a) ->
  return
    ( sim_conn ~incoming:b_to_a ~outgoing:a_to_b,
      sim_conn ~incoming:a_to_b ~outgoing:b_to_a )

(* ---- the simulated listener: a closeable bounded accept queue --------

   A dialer queues the far end of a fresh {!sim_pipe}, parking while
   [backlog] connections already wait; an acceptor parks while none
   does. Both park through [blocking], so a kill while parked withdraws
   the waiter and leaves the queue as it was. Closing refuses every
   parked dialer; acceptors drain what is queued, then get
   [End_of_file]. *)
let sim_listen ~backlog =
  lift (fun () -> (Queue.create (), ref false, ref [], ref []))
  >>= fun (conns, closed, acceptors, dialers) ->
  let accept () =
    blocking acceptors (fun () ->
        if not (Queue.is_empty conns) then
          Done (Queue.pop conns, take_all dialers)
        else if !closed then Failed End_of_file
        else Wait)
  in
  let dial () =
    sim_pipe () >>= fun (near, far) ->
    blocking dialers (fun () ->
        if !closed then Failed Connection_refused
        else if Queue.length conns < max 1 backlog then begin
          Queue.push far conns;
          Done (near, take_all acceptors)
        end
        else Wait)
  in
  let close () =
    lift (fun () ->
        if !closed then []
        else begin
          closed := true;
          take_all dialers @ take_all acceptors
        end)
    >>= wake
  in
  return { l_accept = accept; l_dial = dial; l_close = close; l_port = None }

let sim () = { b_name = "sim"; b_event_source = None; b_listen = sim_listen }
