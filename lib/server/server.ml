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

(* An external (backend-provided) listener and the thread pumping its
   accepts into the in-process backlog queue. In supervised mode the
   pump runs as a Permanent child of the tree ([pump = None]) so a kill
   or crash restarts it instead of deafening the server; in plain mode
   it is a bare fork we kill at shutdown. *)
type ext = { el : Ev.Backend.listener; pump : Io.thread_id option }

type t = {
  backlog : (Http.Conn.t * Hsup.Deadline.t) Bchan.t;
  registry : Obs.Metrics.t;
  ins : instruments;
  config : config;
  mutable accepting : bool;
  mode : mode;
  ext : ext option;
}

(* The accept loop: every backlogged connection gets one worker running
   the shared pipeline — a Transient child of the tree (admission through
   the bulkhead: at most [max_concurrent] requests run, at most
   [max_waiting] more queue, the rest are shed with a 503), or, in plain
   mode, a bare fork behind a semaphore. A plain worker has no supervisor
   to restart it and close its connection when a write fault or a handler
   crash escapes, so the fork closes it instead. *)
let listener_body config ins mode backlog handler =
  let serve ~admit conn progress dl =
    worker ~request_timeout:config.request_timeout
      ~keep_alive:config.keep_alive ~admit ~breaker:None ins handler conn
      progress dl
  in
  Combinators.forever
    ( Bchan.recv backlog >>= fun (conn, dl) ->
      lift (fun () -> ref Fresh) >>= fun progress ->
      match mode with
      | `Supervised (sup, bulk) ->
          Hsup.Sup.start_child sup
            (Hsup.Sup.child ~lifetime:Hsup.Sup.Transient "conn-worker"
               (serve ~admit:(Hsup.Bulkhead.run bulk) conn progress dl))
      | `Plain admission ->
          let admit io = Sem.with_unit admission (map Result.ok io) in
          fork ~name:"conn-worker"
            (Combinators.on_exception (serve ~admit conn progress dl)
               (close_quietly conn))
          >>= fun _tid -> return () )

let start_core ~config ~metrics ?backend_name handler =
  Bchan.create config.accept_queue >>= fun backlog ->
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
  (* When an explicit backend is in play every series carries a
     [backend=sim|real] label, so one registry can compare the two side by
     side. The default (no [?backend]) stays label-free: the pre-redesign
     metric names are pinned by golden output. *)
  let labels =
    match backend_name with None -> [] | Some n -> [ ("backend", n) ]
  in
  let ins = instruments ~labels registry in
  let server mode =
    { backlog; registry; ins; config; accepting = true; mode; ext = None }
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
         (listener_body config ins (`Supervised (sup, bulk)) backlog handler))
    >>= fun () -> return (server (Supervised { sup; bulk }))
  else
    Sem.create config.max_concurrent >>= fun admission ->
    fork ~name:"listener"
      (catch
         (listener_body config ins (`Plain admission) backlog handler)
         (fun _ -> return ()))
    >>= fun listener -> return (server (Plain { listener; admission }))

(* The default (no [?backend]) path is [start_core] alone. An explicit
   backend adds, after the server is up, a listener from the backend plus
   an accept pump feeding the same in-process backlog the workers already
   drain: the serving pipeline is shared, only the byte source differs. *)
let start ?(config = default_config) ?metrics ?backend handler =
  match backend with
  | None -> start_core ~config ~metrics handler
  | Some b ->
      start_core ~config ~metrics ~backend_name:b.Ev.Backend.b_name handler
      >>= fun server ->
      b.Ev.Backend.b_listen ~backlog:config.accept_queue >>= fun el ->
      let pump_body =
        accept_pump server.ins el (fun conn ->
            (* the deadline is minted at accept: time spent queued in the
               backlog counts against the request budget *)
            Hsup.Deadline.mint config.request_timeout >>= fun dl ->
            Bchan.send server.backlog (conn, dl))
      in
      (match server.mode with
      | Supervised { sup; _ } ->
          Hsup.Sup.start_child sup
            (Hsup.Sup.child ~lifetime:Hsup.Sup.Permanent "accept-pump"
               pump_body)
          >>= fun () -> return None
      | Plain _ ->
          fork ~name:"accept-pump" (catch pump_body (fun _ -> return ()))
          >>= fun tid -> return (Some tid))
      >>= fun pump -> return { server with ext = Some { el; pump } }

let metrics server = server.registry

let supervisor server =
  match server.mode with
  | Supervised { sup; _ } -> Some sup
  | Plain _ -> None

let connect server =
  if not server.accepting then throw Server_stopped
  else
    match server.ext with
    | Some { el; _ } -> dial server.ins server.config.dial_timeout el
    | None ->
        (* no backend was given: the implicit simulated transport *)
        Ev.Backend.sim_pipe () >>= fun (client_side, server_side) ->
        Hsup.Deadline.mint server.config.request_timeout >>= fun dl ->
        Bchan.send server.backlog (server_side, dl) >>= fun () ->
        return client_side

let shutdown server =
  lift (fun () -> server.accepting <- false) >>= fun () ->
  (* stop accepting: kill the accept loop (without restart, in the
     supervised mode) and wait until it is gone *)
  (match server.mode with
  | Plain { listener; _ } -> throw_to listener Kill_thread
  | Supervised { sup; _ } -> stop_sup_child sup "listener")
  >>= fun () ->
  (* Reject anything still queued. Each 503 write is bounded and
     fault-tolerant — a queued connection whose peer already vanished
     (or is being chaos-trickled) must not stall the shutdown — and the
     connection is closed so the peer sees EOF, not silence. *)
  let rec drain () =
    Bchan.try_recv server.backlog >>= function
    | Some (conn, _dl) ->
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
  (match server.ext with
  | None -> drain ()
  | Some { el; pump } ->
      (* stop the accept pump and close the external listener before
         draining, so no new connection can slip into the backlog *)
      (match (pump, server.mode) with
      | Some tid, _ -> throw_to tid Kill_thread
      | None, Supervised { sup; _ } -> stop_sup_child sup "accept-pump"
      | None, Plain _ -> return ())
      >>= fun () ->
      el.Ev.Backend.l_close () >>= fun () -> drain ())
  >>= fun () ->
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
