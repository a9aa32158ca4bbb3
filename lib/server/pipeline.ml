open Hio
open Hio_std
open Hio.Io

exception Dial_timeout

(* Breaker feed: what a worker reports about its own shard, as the
   exception [Hsup.Breaker.note_failure] takes. Private. *)
exception Overloaded
exception Deadline_lapsed

(* All accounting lives in an Obs.Metrics registry — the same registry the
   caller can hand to the runtime collector, so one table reports both the
   scheduler and the server. The handles below are just cached lookups. *)
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
      (* server_io_faults_total{kind}: transport faults absorbed instead
         of escaping as crashes — registered lazily per kind so quiet
         runs don't grow the metrics table. *)
  m_dial : string -> Obs.Metrics.counter;
      (* client_dial_errors_total{kind}: dials that came back with
         nothing — timeout, refused, fd budget — counted on the server's
         registry before the exception reaches the client. *)
}

let instruments ~labels reg =
  let outcome o =
    Obs.Metrics.counter reg
      ~labels:(("outcome", o) :: labels)
      "server_requests_total"
  in
  {
    m_served = outcome "ok";
    m_timeouts = outcome "timeout";
    m_bad = outcome "bad_request";
    m_shed = outcome "shed";
    m_degraded = outcome "degraded";
    m_rejected = Obs.Metrics.counter reg ~labels "server_rejected_total";
    m_inflight = Obs.Metrics.gauge reg ~labels "server_in_flight";
    m_latency =
      Obs.Metrics.histogram reg
        ~buckets:[ 10; 20; 50; 100; 200; 500; 1000; 2000; 5000 ]
        ~labels "server_request_latency_steps";
    m_io_fault =
      (fun kind ->
        Obs.Metrics.counter reg
          ~labels:(("kind", kind) :: labels)
          "server_io_faults_total");
    m_dial =
      (fun kind ->
        Obs.Metrics.counter reg
          ~labels:(("kind", kind) :: labels)
          "client_dial_errors_total");
  }

let count c = lift (fun () -> Obs.Metrics.inc c)
let count_io ins kind = lift (fun () -> Obs.Metrics.inc (ins.m_io_fault kind))
let close_quietly conn = catch (Http.Conn.close conn) (fun _ -> return ())

(* Transport faults a hardened server absorbs (close/503/keep going)
   rather than letting them escape as crashes; everything else — handler
   bugs, kills — keeps its §5 semantics. *)
let io_fault_kind = function
  | End_of_file -> Some "eof"
  | Ev.Backend.Connection_reset -> Some "reset"
  | Ev.Backend.Connection_refused -> Some "refused"
  | Ev.Backend.Accept_failed -> Some "accept"
  | Ev.Backend.Too_many_fds -> Some "fds"
  | Ev.Backend.Buffer_full -> Some "buffer"
  | _ -> None

(* Which [client_dial_errors_total] kind a failed dial books under. *)
let dial_error_kind = function
  | Dial_timeout -> Some "timeout"
  | Ev.Backend.Connection_refused -> Some "refused"
  | Ev.Backend.Too_many_fds -> Some "fds"
  | Ev.Backend.Connection_reset -> Some "reset"
  | End_of_file -> Some "eof"
  | _ -> None

let service_unavailable =
  { Http.status = 503; reason = "Service Unavailable"; body = "" }

(* --- the serving protocol -------------------------------------------------

   Each connection carries a [progress] ref shared by every incarnation
   of its worker. A restarted worker (its predecessor was killed or
   crashed mid-request) must not re-run the handler — the request stream
   is already partly consumed and the effect may not be idempotent — so
   it degrades: a never-answered connection gets a 503, a connection
   whose response write was cut gets closed. Setting [`Answered] and
   starting the response write happen under one mask, so a kill cannot
   produce a second answer on the same connection. With keep-alive,
   [progress] is reset per request. *)
type progress = Fresh | Serving | Answered

(* [counter] is bumped only after the full response is on the wire, so
   outcome counters mean "answered", not "tried to answer". *)
let respond progress conn counter response =
  mask_
    ( lift (fun () -> progress := Answered) >>= fun () ->
      Http.write_response conn response >>= fun () -> count counter )

(* A bounded, fault-tolerant response write for paths outside the main
   request deadline (504/degrade fallbacks, shutdown drain): the write
   gets its own deadline, and a transport fault — the peer reset or
   vanished — closes the connection instead of propagating. *)
let safe_respond timeout ins progress conn counter response =
  catch
    ( Combinators.timeout timeout (respond progress conn counter response)
      >>= function
      | Some () -> return ()
      | None -> count_io ins "deadline" >>= fun () -> close_quietly conn )
    (fun e ->
      match io_fault_kind e with
      | Some kind -> count_io ins kind >>= fun () -> close_quietly conn
      | None -> throw e)

(* The per-request deadline fired. If the response write was already in
   progress ([Answered]) the byte stream is unusable — close the
   connection; otherwise answer 504 under its own bounded write. *)
let deadline_exceeded timeout ins progress conn =
  lift (fun () -> !progress) >>= function
  | Answered -> count_io ins "deadline" >>= fun () -> close_quietly conn
  | Fresh | Serving ->
      safe_respond timeout ins progress conn ins.m_timeouts
        Http.timeout_response

type reply =
  [ `Reply of Http.response | `Bad of string | `Peer_gone of string * exn ]

(* Read + handle, mapping the two expected failures — a malformed
   request, a peer that reset or closed mid-request — to data. *)
let read_and_handle handler conn : reply Io.t =
  catch
    ( Http.read_request conn >>= fun request ->
      handler request >>= fun response -> return (`Reply response) )
    (fun e ->
      match e with
      | Http.Bad_request m -> return (`Bad m)
      | e -> (
          match io_fault_kind e with
          | Some kind -> return (`Peer_gone (kind, e))
          | None -> throw e))

(* Transport faults during the read are absorbed (peer gone: close,
   count, exit Ok — no restart burned); a fault {e during the response
   write} is counted and then escapes the worker on purpose: the
   supervisor restarts it, and the fresh incarnation finds [Answered]
   and degrades the connection by closing it — the crash is contained
   one level up instead of escalating. *)
let counted_escape ins io =
  catch io (fun e ->
      match io_fault_kind e with
      | Some kind -> count_io ins kind >>= fun () -> throw e
      | None -> throw e)

(* Report to the breaker, if there is one, then continue with [k];
   without a breaker this costs no step. *)
let feed brk note k =
  match brk with None -> k | Some b -> note b >>= fun () -> k

(* One request. [`Keep] only when the response left the byte stream
   synchronized and keep-alive is on; everything else closes. A peer
   gone at the request boundary is the normal end of a keep-alive
   conversation — counted as an I/O fault and closed; no phantom
   request reaches the outcome counters (only [respond] bumps them) or
   the latency histogram. *)
let serve_one ~request_timeout ~keep_alive ins admit brk handler conn
    progress dl =
  steps >>= fun t0 ->
  lift (fun () -> progress := Serving) >>= fun () ->
  Hsup.Deadline.timeout dl
    ( admit (read_and_handle handler conn) >>= function
      | Ok (`Reply response) ->
          counted_escape ins (respond progress conn ins.m_served response)
          >>= fun () ->
          feed brk Hsup.Breaker.note_success
            (return (if keep_alive then `Keep else `Close))
      | Ok (`Bad m) ->
          counted_escape ins (respond progress conn ins.m_bad (Http.bad_request m))
          >>= fun () -> return `Close
      | Ok (`Peer_gone (kind, _)) ->
          count_io ins kind >>= fun () ->
          mask_
            ( lift (fun () -> progress := Answered) >>= fun () ->
              close_quietly conn )
          >>= fun () -> return `Gone
      | Error `Shed ->
          feed brk
            (fun b -> Hsup.Breaker.note_failure b Overloaded)
            ( counted_escape ins
                (respond progress conn ins.m_shed service_unavailable)
            >>= fun () -> return `Close ) )
  >>= (function
        | Some verdict -> return verdict
        | None ->
            feed brk
              (fun b -> Hsup.Breaker.note_failure b Deadline_lapsed)
              ( deadline_exceeded request_timeout ins progress conn
              >>= fun () -> return `Close ))
  >>= fun verdict ->
  steps >>= fun t1 ->
  lift (fun () ->
      match verdict with
      | `Gone -> ()
      | `Keep | `Close -> Obs.Metrics.observe ins.m_latency (t1 - t0))
  >>= fun () -> return verdict

let worker ~request_timeout ~keep_alive ~admit ~breaker ins handler conn
    progress dl0 =
  Combinators.bracket_
    (lift (fun () -> Obs.Metrics.add ins.m_inflight 1))
    ( lift (fun () -> !progress) >>= function
      | Answered ->
          (* predecessor died with a response possibly half-written:
             the stream is unusable, degrade by closing — the peer sees
             EOF, not a stalled stream *)
          close_quietly conn
      | Serving ->
          (* predecessor killed mid-request *)
          safe_respond request_timeout ins progress conn ins.m_degraded
            service_unavailable
          >>= fun () -> close_quietly conn
      | Fresh ->
          (* Early shed: a request whose deadline lapsed while it sat in
             a backlog or mailbox cannot be served in budget — answer
             503 now instead of burning a worker on a sure 504. A
             keep-alive follow-up is a new arrival with a fresh budget:
             queueing debt is per-request, not per-connection. *)
          let rec loop dl =
            Hsup.Deadline.expired dl >>= fun late ->
            if late then
              safe_respond request_timeout ins progress conn ins.m_shed
                service_unavailable
              >>= fun () -> close_quietly conn
            else
              serve_one ~request_timeout ~keep_alive ins admit breaker
                handler conn progress dl
              >>= function
              | `Keep ->
                  lift (fun () -> progress := Fresh) >>= fun () ->
                  Hsup.Deadline.mint request_timeout >>= fun dl -> loop dl
              | `Close | `Gone -> close_quietly conn
          in
          loop dl0 )
    (lift (fun () -> Obs.Metrics.add ins.m_inflight (-1)))

(* The accept loop of both servers. Accept and hand-off run masked
   (§5.2): a kill lands only while [l_accept] waits, with nothing taken
   yet, or at an interruptible point of the hand-off, which closes the
   connection — it is served or closed, never dropped. A transient
   accept failure is counted and backed off from: a synchronously
   failing accept (EMFILE under an fd budget) would otherwise spin the
   loop without ever reaching a blocking point. *)
let accept_pump ins el on_accept =
  Combinators.forever
    (catch
       (mask (fun restore ->
            el.Ev.Backend.l_accept () >>= fun conn ->
            Combinators.on_exception (on_accept restore conn)
              (close_quietly conn)))
       (fun e ->
         match io_fault_kind e with
         | Some kind -> count_io ins kind >>= fun () -> sleep 10
         | None -> throw e))

(* A dead, saturated or chaos-refusing listener yields [Dial_timeout],
   not a forever-blocked client thread; every flavour of dial failure is
   counted before it propagates. [timeout = None] is for a listener
   nothing outside the program can stall. *)
let dial ins timeout el =
  catch
    (match timeout with
    | None -> el.Ev.Backend.l_dial ()
    | Some t -> (
        Combinators.timeout t (el.Ev.Backend.l_dial ()) >>= function
        | Some conn -> return conn
        | None -> throw Dial_timeout))
    (fun e ->
      match dial_error_kind e with
      | Some kind ->
          lift (fun () -> Obs.Metrics.inc (ins.m_dial kind)) >>= fun () ->
          throw e
      | None -> throw e)

(* Retire a supervised child for good (no restart) and wait until it is
   gone — or its supervisor is. *)
let stop_sup_child sup name =
  Hsup.Sup.stop_child sup name >>= fun () ->
  let rec wait_child () =
    Hsup.Sup.child_up sup name >>= fun up ->
    Hsup.Sup.alive sup >>= fun alive ->
    if up && alive then yield >>= fun () -> wait_child ()
    else return ()
  in
  wait_child ()
