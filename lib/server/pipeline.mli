(** The request pipeline shared by {!Server} and {!Shard} — internal to
    [hserver]. One connection worker (progress protocol,
    degrade-on-restart, bounded writes, absorbed read faults, escaping
    write faults, keep-alive), the fault classifiers, the metrics
    instruments, the accept loop, the counted dial and the supervised
    child retirement. The two servers differ only in how connections
    reach a worker and in what the worker's admission step and breaker
    feed are. *)

open Hio

exception Dial_timeout
(** Re-exported as [Server.Dial_timeout]. *)

type instruments = {
  m_served : Obs.Metrics.counter;
  m_timeouts : Obs.Metrics.counter;
  m_bad : Obs.Metrics.counter;
  m_shed : Obs.Metrics.counter;
  m_degraded : Obs.Metrics.counter;
  m_rejected : Obs.Metrics.counter;
  m_inflight : Obs.Metrics.gauge;
  m_latency : Obs.Metrics.histogram;
  m_io_fault : string -> Obs.Metrics.counter;
  m_dial : string -> Obs.Metrics.counter;
}

val instruments : labels:(string * string) list -> Obs.Metrics.t -> instruments
(** The server metric families of [Server.start], each series carrying
    [labels] on top of its own. *)

val count : Obs.Metrics.counter -> unit Io.t
val count_io : instruments -> string -> unit Io.t
val close_quietly : Http.Conn.t -> unit Io.t

val io_fault_kind : exn -> string option
(** The [server_io_faults_total] kind of a transport fault the servers
    absorb; [None] for everything else. *)

val service_unavailable : Http.response

type progress = Fresh | Serving | Answered

val safe_respond :
  int ->
  instruments ->
  progress ref ->
  Http.Conn.t ->
  Obs.Metrics.counter ->
  Http.response ->
  unit Io.t
(** [safe_respond timeout ...]: a response write bounded by [timeout]
    whose transport faults close the connection instead of escaping. *)

type reply =
  [ `Reply of Http.response | `Bad of string | `Peer_gone of string * exn ]

val worker :
  request_timeout:int ->
  keep_alive:bool ->
  admit:(reply Io.t -> (reply, [ `Shed ]) result Io.t) ->
  breaker:Hsup.Breaker.t option ->
  instruments ->
  (Http.request -> Http.response Io.t) ->
  Http.Conn.t ->
  progress ref ->
  Hsup.Deadline.t ->
  unit Io.t
(** Serve one connection until it must close, then close it. [progress]
    is shared by every incarnation of the worker on this connection
    (create it [Fresh] once per connection); [admit] gates each
    request's read and handler ([Error `Shed] answers 503); [breaker]
    is told each request's success, shed or deadline. *)

val accept_pump :
  instruments ->
  Ev.Backend.listener ->
  ((unit Io.t -> unit Io.t) -> Http.Conn.t -> unit Io.t) ->
  unit Io.t
(** [accept_pump ins el on_accept]: accept forever, handing each
    connection to [on_accept restore conn] under [mask]; an exception
    out of the hand-off closes [conn] and propagates. A worker it forks
    must run its body under [restore]. Transient accept faults are
    counted and backed off from. *)

val dial : instruments -> int option -> Ev.Backend.listener -> Http.Conn.t Io.t
(** [dial ins timeout el]: [l_dial], bounded by [timeout] when given
    (expiry raises {!Dial_timeout}); failures are counted in
    [client_dial_errors_total{kind}] before re-raising. *)

val stop_sup_child : Hsup.Sup.t -> string -> unit Io.t
(** Stop a named child without restart and wait until it is down. *)
