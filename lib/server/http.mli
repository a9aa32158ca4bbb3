(** A minimal HTTP/1.0-style message layer over backend byte streams —
    the substrate for the fault-tolerant web server the paper's conclusion
    reports building ("a prototype fault-tolerant HTTP server which makes
    heavy use of time-outs, multithreading and exceptions", §11/[8]).

    The "network" is whatever {!Ev.Backend} the server was started with:
    in-memory bounded byte channels by default ([Ev.Backend.sim]), real
    TCP sockets under [Ev.Real]. Requests are parsed incrementally from
    the stream, so a slow-writing client occupies a worker until a
    timeout kills the read — exactly the scenario the §7.3 composable
    [timeout] exists for. *)

open Hio

module Conn : sig
  type t = Ev.Backend.conn
  (** One side of a bidirectional byte stream. Transport-agnostic: there
      is no simulated-only constructor here any more — obtain
      connections from [Server.connect], a backend's listener, or (in
      tests) [Ev.Backend.sim_pipe], which is the renamed [Conn.pipe] of
      the pre-Backend API. *)

  val send_string : t -> string -> unit Io.t

  val recv_line : t -> string Io.t
  (** Reads up to a ["\r\n"] or ["\n"] terminator (not included), a
      chunk per read, leaving the bytes after it in the transport. A
      ["\r"] pairs with the byte after it: of a run of [k] ["\r"]s
      just before the ["\n"], one is dropped exactly when [k] is odd. *)

  val close : t -> unit Io.t
  (** Release the transport. Idempotent on both backends; on simulated
      connections the peer's subsequent reads drain then raise
      [End_of_file], like a socket close. *)
end

type request = {
  meth : string;  (** e.g. "GET" *)
  path : string;
  headers : (string * string) list;
  body : string;
}

type response = { status : int; reason : string; body : string }

exception Bad_request of string

val read_request : Conn.t -> request Io.t
(** Parse ["METH /path HTTP/1.0\r\n" headers "\r\n" body?]; a
    [Content-Length] header drives body reading.
    @raise Bad_request (synchronously) on malformed input. *)

val write_response : Conn.t -> response -> unit Io.t
val write_request : Conn.t -> request -> unit Io.t
(** Client-side helper for tests. *)

val read_response : Conn.t -> response Io.t
(** Client-side helper for tests.
    @raise Bad_request (synchronously) on malformed input, like
    {!read_request}. *)

val ok : string -> response
val not_found : response
val timeout_response : response
val bad_request : string -> response
