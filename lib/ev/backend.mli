(** The switchable I/O backend behind [Hserver] — the API redesign that
    separates {e what} the server does (accept, read, write, time out)
    from {e where} bytes and time come from.

    A backend is a first-class record of operations with two
    implementations:

    - {!sim} — the seed's deterministic substrate: connections are pairs
      of bounded, {e closeable} in-memory byte pipes, the clock is the
      runtime's virtual clock, and no {!Hio.Runtime.event_source} is
      installed. Every golden trace, the kill sweep and the explorer run
      here. Closing a simulated connection behaves like closing a
      socket: the peer's reads drain buffered bytes then raise
      [End_of_file], its sends raise [End_of_file] (the EPIPE mapping),
      and readers already parked on the pipe wake immediately.
    - [Ev.Real.create] — the event manager: real TCP sockets on
      loopback/the wire, epoll-backed readiness (poll/select fallback),
      and a monotonic clock driving the runtime's timer wheel.

    Connections and listeners are records of closures rather than a
    functor or first-class module: one server type serves whatever
    connections its backend produces and switches backends at runtime
    ([Server.start ?backend]), which a type-level [Backend.conn] per
    implementation would preclude. *)

open Hio

exception Connection_reset
(** The deterministic stand-in for ECONNRESET: raised only by injected
    faults ({!Chaos}), mapped by the server to a close/503, and retried
    by [Hsup.Retry.transient_io]. *)

exception Connection_refused
(** Raised by [l_dial] on a closed simulated listener, and by injected
    dial faults. *)

exception Accept_failed
(** A transient [l_accept] failure (injected; real accept maps its
    transient errno cases to retries internally). The server's accept
    loop must survive it. *)

exception Too_many_fds
(** The deterministic stand-in for EMFILE/ENFILE: raised by [l_accept]
    and [l_dial] when a {!Chaos} resource plan's fd budget is exhausted.
    Recovers as connections close; [Hsup.Retry.transient_io] retries it,
    the server's accept loop must survive it. *)

exception Buffer_full
(** The deterministic stand-in for a send-buffer overrun under a
    {!Chaos} resource plan's per-send byte cap: the capped prefix was
    written, the rest was not. Transient — smaller writes succeed. *)

type conn = {
  c_send : string -> unit Io.t;
      (** Send all bytes, blocking (interruptibly) on back-pressure.
          Raises [End_of_file] if the peer (or this conn) is closed. *)
  c_recv : upto:char option -> max:int -> string Io.t;
      (** [c_recv ~upto ~max] receives the next chunk: between 1 and
          [max] bytes ([max >= 1]), ending early after the first
          occurrence of [upto]. Blocks (interruptibly, §5.3) until at
          least one byte is available; bytes it does not return stay
          buffered in the transport for the next read, so a reader can
          stop exactly at a message boundary. One chunk is one atomic
          scheduler step. Raises [End_of_file] once the connection has
          been closed — by either end — and all buffered bytes are
          consumed; a reader already blocked here when the close
          happens wakes with [End_of_file] rather than stranding in the
          wait graph. Both backends agree on this. *)
  c_recv_char : unit -> char Io.t;
      (** [c_recv ~upto:None ~max:1] as a character. A derived view, kept
          for decorators that count per-byte reads. *)
  c_try_recv : unit -> char option Io.t;
      (** Non-blocking receive of one buffered byte. *)
  c_close : unit -> unit Io.t;
      (** Idempotent. After it, this conn's reads drain what was already
          buffered and then raise [End_of_file], and its sends raise
          [End_of_file]. *)
  c_fd : int option;
      (** The raw file descriptor, when the transport has one — for
          diagnostics and the deadlock watchdog's wait graph. *)
}
(** One bidirectional byte stream. Build one with {!make_conn}, or
    decorate an existing one with [{ c with ... }]. *)

val make_conn :
  send:(string -> unit Io.t) ->
  recv:(upto:char option -> max:int -> string Io.t) ->
  try_recv:(unit -> char option Io.t) ->
  close:(unit -> unit Io.t) ->
  fd:int option ->
  conn
(** The conn with these operations, [c_recv_char] derived from [recv]. *)

type listener = {
  l_accept : unit -> conn Io.t;
      (** Wait (interruptibly) for the next inbound connection. After
          {!l_close}: the connections still queued ({!sim}; a real
          close resets its kernel queue), then [End_of_file]. *)
  l_dial : unit -> conn Io.t;
      (** Open a fresh client connection to this listener — the only
          portable way to "connect" that does not need an address type
          spanning both in-memory and socket transports. For the real
          backend, out-of-process clients use {!l_port} instead. *)
  l_close : unit -> unit Io.t;
      (** Idempotent. Refuses later dials; in {!sim} it also refuses
          every dialer parked on a full queue ([Connection_refused]) and
          wakes every parked acceptor. Shutdown drains: close, then
          accept until [End_of_file]. *)
  l_port : int option;
      (** The bound TCP port (real backend), for external clients. *)
}

type t = {
  b_name : string;  (** ["sim"] or ["real"] — used as a metrics label. *)
  b_listen : backlog:int -> listener Io.t;
  b_event_source : Runtime.event_source option;
      (** What {!install} plugs into the runtime: [None] keeps the
          virtual clock (simulated backend), [Some es] switches the
          scheduler to real time and fd readiness. *)
}

val install : t -> Runtime.Config.t -> Runtime.Config.t
(** [install b config] returns [config] with [b]'s event source set —
    pass the result to {!Hio.Runtime.run}. Installing {!sim} is the
    identity on behaviour. *)

val sim_pipe : ?capacity:int -> unit -> (conn * conn) Io.t
(** A connected pair of in-memory connections (default [capacity] 64
    bytes per direction, at least 1). Reads take a whole chunk and sends
    push as much as fits, one atomic step each. Each direction is a
    bounded closeable byte pipe: writers feel back-pressure from slow readers, a reader blocked
    on a trickling writer is interruptible (which is what makes timeouts
    effective), and [c_close] on either end closes both directions like
    [Unix.close] — drained reads raise [End_of_file] exactly as
    [Ev.Real] maps read-0/ECONNRESET/EPIPE. *)

val sim : unit -> t
(** The deterministic in-memory backend. A listener is a bounded queue
    of [backlog] connections (at least 1): [l_dial] creates a
    {!sim_pipe}, queues the far end (parking, interruptibly, while the
    queue is full) and returns the near end; [l_accept] takes the
    oldest queued end. Dialling a closed listener raises
    {!Connection_refused}. *)
