open Hio
open Hio_std
open Hio.Io

type handler = Http.request -> Http.response Io.t

type config = {
  request_timeout : int;
  dial_timeout : int;
  max_concurrent : int;
  accept_queue : int;
  max_waiting : int;
  queue_target : int option;
  mailbox_bound : int option;
  supervised : bool;
  restart_intensity : Hsup.Sup.intensity;
  keep_alive : bool;
}

let default_config =
  {
    request_timeout = 200;
    dial_timeout = 50_000;
    max_concurrent = 4;
    accept_queue = 8;
    max_waiting = 16;
    queue_target = None;
    mailbox_bound = None;
    supervised = true;
    restart_intensity = { Hsup.Sup.max_restarts = 16; window = 1_000 };
    keep_alive = false;
  }

type stats = {
  served : int;
  timeouts : int;
  bad_requests : int;
  rejected : int;
  shed : int;
  restarts : int;
}

exception Server_stopped
exception Dial_timeout = Pipeline.Dial_timeout

open Pipeline

type mode =
  | Supervised of { sup : Hsup.Sup.t; bulk : Hsup.Bulkhead.t }
  | Plain of { listener : Io.thread_id; admission : Sem.t }

type t = {
  el : Ev.Backend.listener;
  dial_timeout : int option;
      (* [None] on the server's own sim listener: nothing outside the
         program can stall that dial, so it forks no timeout child *)
  registry : Obs.Metrics.t;
  ins : instruments;
  config : config;
  mutable accepting : bool;
  mode : mode;
}

(* The accept loop: every accepted connection gets its deadline, minted
   here so the admission queue counts against the request, and one
   worker running the shared pipeline — a Transient child of the tree
   (admission through the bulkhead: at most [max_concurrent] requests
   run, at most [max_waiting] more queue, the rest are shed with a 503),
   or, in plain mode, a bare fork behind a semaphore. A plain worker has
   no supervisor to restart it and close its connection when a write
   fault or a handler crash escapes, so the fork closes it instead; the
   fork inherits the loop's mask, so that handler is armed before
   [restore] lets a kill in. *)
let listener_body config ins mode el handler =
  let serve ~admit conn progress dl =
    worker ~request_timeout:config.request_timeout
      ~keep_alive:config.keep_alive ~admit ~breaker:None ins handler conn
      progress dl
  in
  accept_pump ins el (fun restore conn ->
      Hsup.Deadline.mint config.request_timeout >>= fun dl ->
      lift (fun () -> ref Fresh) >>= fun progress ->
      match mode with
      | `Supervised (sup, bulk) ->
          Hsup.Sup.start_child sup
            (Hsup.Sup.child ~lifetime:Hsup.Sup.Transient "conn-worker"
               (serve ~admit:(Hsup.Bulkhead.run bulk) conn progress dl))
      | `Plain admission ->
          let admit io = Sem.with_unit admission (map Result.ok io) in
          fork ~name:"conn-worker"
            (catch
               (restore (serve ~admit conn progress dl))
               (fun e -> close_quietly conn >>= fun () -> throw e))
          >>= fun _tid -> return ())

let start ?(config = default_config) ?metrics ?backend handler =
  (* An explicit backend puts a [backend=sim|real] label on every series,
     so one registry can compare the two side by side, and bounds each
     dial by [dial_timeout]. The default, the server's own sim listener,
     stays label-free (the pre-redesign metric names are pinned by golden
     output) and is dialled without a bound. *)
  let b, labels, dial_timeout =
    match backend with
    | None -> (Ev.Backend.sim (), [], None)
    | Some b ->
        (b, [ ("backend", b.Ev.Backend.b_name) ], Some config.dial_timeout)
  in
  b.Ev.Backend.b_listen ~backlog:config.accept_queue >>= fun el ->
  (* The default registry must be created here, inside the continuation —
     i.e. once per {e run} — not when [start] is applied. A server Io value
     is typically built once and run many times (tests, kill sweeps), and
     those runs may sit on different domains: a registry created at
     application time would be shared by all of them, so [shutdown]'s
     in-flight gauge would see other runs' workers and spin. An explicitly
     passed [?metrics] registry is shared by design: the caller owns it. *)
  let registry =
    match metrics with Some reg -> reg | None -> Obs.Metrics.create ()
  in
  let ins = instruments ~labels registry in
  let server mode =
    { el; dial_timeout; registry; ins; config; accepting = true; mode }
  in
  if config.supervised then
    Hsup.Sup.start ~name:"supervisor" ~strategy:Hsup.Sup.One_for_one
      ~intensity:config.restart_intensity ~metrics:registry []
    >>= fun sup ->
    Hsup.Bulkhead.create ~name:"server" ~metrics:registry
      ?queue_target:config.queue_target ~capacity:config.max_concurrent
      ~max_waiting:config.max_waiting ()
    >>= fun bulk ->
    Hsup.Sup.start_child sup
      (Hsup.Sup.child ~lifetime:Hsup.Sup.Permanent "listener"
         (listener_body config ins (`Supervised (sup, bulk)) el handler))
    >>= fun () -> return (server (Supervised { sup; bulk }))
  else
    Sem.create config.max_concurrent >>= fun admission ->
    fork ~name:"listener"
      (catch
         (listener_body config ins (`Plain admission) el handler)
         (fun _ -> return ()))
    >>= fun listener -> return (server (Plain { listener; admission }))

let metrics server = server.registry

let supervisor server =
  match server.mode with
  | Supervised { sup; _ } -> Some sup
  | Plain _ -> None

let connect server =
  if not server.accepting then throw Server_stopped
  else dial server.ins server.dial_timeout server.el

let shutdown server =
  lift (fun () -> server.accepting <- false) >>= fun () ->
  (* stop accepting: kill the accept loop (without restart, in the
     supervised mode) and wait until it is gone *)
  (match server.mode with
  | Plain { listener; _ } -> throw_to listener Kill_thread
  | Supervised { sup; _ } -> stop_sup_child sup "listener")
  >>= fun () ->
  (* Close the listener (a dialer parked on it is refused) and reject
     what is still queued: accept until the closed listener raises,
     [End_of_file] once empty. Each 503 write is bounded and
     fault-tolerant — a queued connection whose peer already vanished
     (or is being chaos-trickled) must not stall the shutdown — and the
     connection is closed so the peer sees EOF, not silence. *)
  server.el.Ev.Backend.l_close () >>= fun () ->
  let rec drain () =
    catch
      (server.el.Ev.Backend.l_accept () >>= fun conn -> return (Some conn))
      (fun e ->
        match io_fault_kind e with Some _ -> return None | None -> throw e)
    >>= function
    | Some conn ->
        count server.ins.m_rejected >>= fun () ->
        catch
          ( Combinators.timeout server.config.request_timeout
              (Http.write_response conn service_unavailable)
          >>= function
            | Some () -> return ()
            | None -> count_io server.ins "deadline" )
          (fun e ->
            match io_fault_kind e with
            | Some kind -> count_io server.ins kind
            | None -> throw e)
        >>= fun () ->
        close_quietly conn >>= fun () -> drain ()
    | None -> return ()
  in
  drain () >>= fun () ->
  (* wait for in-flight workers; each is bounded by the request timeout *)
  let rec wait_drained () =
    if Obs.Metrics.gauge_value server.ins.m_inflight = 0 then return ()
    else sleep 5 >>= fun () -> wait_drained ()
  in
  wait_drained () >>= fun () ->
  (match server.mode with
  | Plain _ -> return 0
  | Supervised { sup; _ } ->
      Hsup.Sup.stop sup >>= fun _ -> Hsup.Sup.restart_count sup)
  >>= fun restarts ->
  return
    {
      served = Obs.Metrics.counter_value server.ins.m_served;
      timeouts = Obs.Metrics.counter_value server.ins.m_timeouts;
      bad_requests = Obs.Metrics.counter_value server.ins.m_bad;
      rejected = Obs.Metrics.counter_value server.ins.m_rejected;
      shed = Obs.Metrics.counter_value server.ins.m_shed;
      restarts;
    }

let route table request =
  match List.assoc_opt request.Http.path table with
  | Some f -> return (f request.Http.body)
  | None -> return Http.not_found
