open Hio_std
open Hio.Io
open Pipeline

type msg = [ `Serve of Http.Conn.t * Hsup.Deadline.t ]

type ext = { el : Ev.Backend.listener }

type t = {
  config : Server.config;
  n_shards : int;
  registry : Obs.Metrics.t;
  ins : instruments;
  queued : Obs.Metrics.gauge;
      (* shard_routed_backlog: connections handed to the router/shard
         mailboxes and not yet picked up by a worker — what shutdown's
         quiesce loop watches *)
  handler : Server.handler;
  root : Hsup.Sup.t;
  rt : msg Hactor.Router.t;
  actors : msg Hactor.Actor.t array;
  subs : Hsup.Sup.t option array;
  breakers : Hsup.Breaker.t array;
  mutable accepting : bool;
  mutable conn_seq : int;
  ext : ext option;
}

(* --- the shard actor ------------------------------------------------------

   The serving loop is an actor body: connections arrive as mailbox
   messages (from the router or the accept pump), each spawns a
   Transient worker under the shard's nested supervisor. The actor is
   itself a Permanent child of that supervisor — killed, it restarts
   and resumes draining the same mailbox: that is the property the
   sweep leans on (a routed connection is never lost, only delayed). *)
let serve_loop t sub bulk brk self =
  Combinators.forever
    ( Hactor.Actor.receive self (fun (`Serve (conn, dl)) -> Some (conn, dl))
      >>= fun (conn, dl) ->
      lift (fun () ->
          Obs.Metrics.add t.queued (-1);
          ref Fresh)
      >>= fun progress ->
      Hsup.Sup.start_child sub
        (Hsup.Sup.child ~lifetime:Hsup.Sup.Transient "conn-worker"
           (worker ~request_timeout:t.config.Server.request_timeout
              ~keep_alive:t.config.Server.keep_alive
              ~admit:(Hsup.Bulkhead.run bulk) ~breaker:(Some brk) t.ins
              t.handler conn progress dl)) )

(* The root-level child that owns one shard's whole subtree. Its own
   death (kill, escalation) takes the nested supervisor down with it
   so the root's restart starts from a clean slate; the shard actor's
   mailbox lives outside and survives. The nested sup is acquired and
   released through [bracket]: a plain [Sup.start >>= ... finally]
   leaves a window between the fork of the nested supervisor and the
   arming of its teardown, and a kill landing there (the sweep found
   it, killing shard-root mid-startup) orphans the sub and its serving
   actor forever. *)
let shard_child_body t i =
  Combinators.bracket
    (Hsup.Sup.start
       ~name:(Printf.sprintf "shard-sup-%d" i)
       ~intensity:t.config.Server.restart_intensity ~metrics:t.registry []
     >>= fun sub ->
     lift (fun () -> t.subs.(i) <- Some sub) >>= fun () -> return sub)
    (fun sub ->
      Hsup.Bulkhead.create
        ~name:(Printf.sprintf "shard-%d" i)
        ~metrics:t.registry
        ?queue_target:t.config.Server.queue_target
        ~capacity:t.config.Server.max_concurrent
        ~max_waiting:t.config.Server.max_waiting ()
      >>= fun bulk ->
      Hsup.Sup.start_child sub
        (Hsup.Sup.child ~lifetime:Hsup.Sup.Permanent "shard-serve"
           (Hactor.Actor.body t.actors.(i)
              (serve_loop t sub bulk t.breakers.(i))))
      >>= fun () ->
      Hsup.Sup.await sub >>= function
      | Stdlib.Ok () -> return ()
      | Stdlib.Error e -> throw e)
    (fun sub -> catch (ignore_result (Hsup.Sup.stop sub)) (fun _ -> return ()))

(* [Router.pick] and routing always agree, so the breaker consulted at
   the route point is exactly the one the connection's workers feed. *)
let shard_index t key =
  let a = Hactor.Router.pick t.rt key in
  let rec find i =
    if i >= t.n_shards - 1 then i
    else if t.actors.(i) == a then i
    else find (i + 1)
  in
  find 0

(* Brownout: the target shard's breaker is open, so queueing this
   connection would only let it rot in a mailbox behind other doomed
   work. Answer a degraded 503 right here at the route point — the
   client learns immediately, the sick shard gets no new load, and the
   breaker's reset window decides when traffic resumes. *)
let brownout t conn =
  let progress = ref Serving in
  safe_respond t.config.Server.request_timeout t.ins progress conn
    t.ins.m_degraded service_unavailable
  >>= fun () -> close_quietly conn

let route_or_brownout t key conn =
  Hsup.Breaker.rejecting t.breakers.(shard_index t key) >>= fun browned ->
  if browned then brownout t conn
  else
    lift (fun () -> Obs.Metrics.add t.queued 1) >>= fun () ->
    Hsup.Deadline.mint t.config.Server.request_timeout >>= fun dl ->
    Hactor.Router.route t.rt key (`Serve (conn, dl))

let pump_body t el =
  accept_pump t.ins el (fun conn ->
      lift (fun () ->
          t.conn_seq <- t.conn_seq + 1;
          Printf.sprintf "conn-%d" t.conn_seq)
      >>= fun key -> route_or_brownout t key conn)

let start ?(config = Server.default_config) ?metrics ?backend ~shards handler =
  let n_shards = max 1 shards in
  (* registry per run, not per application — see server.ml's note *)
  lift (fun () ->
      match metrics with Some reg -> reg | None -> Obs.Metrics.create ())
  >>= fun registry ->
  let labels = [ ("layer", "shard") ] in
  let ins = instruments ~labels registry in
  let queued = Obs.Metrics.gauge registry ~labels "shard_routed_backlog" in
  (* A shed routed connection has already been counted into the routed
     backlog: undo that, and count the shed so the sweep's conservation
     law still balances. The client's own deadline turns the dropped
     connection into a timeout on its side. *)
  let on_drop (`Serve ((_ : Http.Conn.t), (_ : Hsup.Deadline.t))) =
    Obs.Metrics.add queued (-1);
    Obs.Metrics.inc ins.m_rejected
  in
  let rec mk i acc =
    if i < 0 then return acc
    else
      Hactor.Actor.create
        ~name:(Printf.sprintf "shard-actor-%d" i)
        ?bound:config.Server.mailbox_bound ~on_drop ~metrics:registry ()
      >>= fun a -> mk (i - 1) (a :: acc)
  in
  mk (n_shards - 1) [] >>= fun actor_list ->
  let rec mk_brk i acc =
    if i < 0 then return acc
    else
      Hsup.Breaker.create
        ~name:(Printf.sprintf "shard-%d" i)
        ~metrics:registry ()
      >>= fun b -> mk_brk (i - 1) (b :: acc)
  in
  mk_brk (n_shards - 1) [] >>= fun breaker_list ->
  Hactor.Router.create ~name:"router"
    (List.mapi (fun i a -> (Printf.sprintf "shard-%d" i, a)) actor_list)
  >>= fun rt ->
  Hsup.Sup.start ~name:"shard-root" ~strategy:Hsup.Sup.One_for_one
    ~intensity:config.Server.restart_intensity ~metrics:registry []
  >>= fun root ->
  (match backend with
  | None -> return None
  | Some b ->
      b.Ev.Backend.b_listen ~backlog:config.Server.accept_queue
      >>= fun el -> return (Some { el }))
  >>= fun ext ->
  let t =
    {
      config;
      n_shards;
      registry;
      ins;
      queued;
      handler;
      root;
      rt;
      actors = Array.of_list actor_list;
      subs = Array.make n_shards None;
      breakers = Array.of_list breaker_list;
      accepting = true;
      conn_seq = 0;
      ext;
    }
  in
  (* children in deterministic order: router, shards, pump *)
  Hsup.Sup.start_child root
    (Hsup.Sup.child ~lifetime:Hsup.Sup.Permanent "router"
       (Hactor.Router.body rt))
  >>= fun () ->
  let rec start_shards i =
    if i >= n_shards then return ()
    else
      Hsup.Sup.start_child root
        (Hsup.Sup.child ~lifetime:Hsup.Sup.Permanent
           (Printf.sprintf "shard-%d" i)
           (shard_child_body t i))
      >>= fun () -> start_shards (i + 1)
  in
  start_shards 0 >>= fun () ->
  (match ext with
  | None -> return ()
  | Some { el } ->
      Hsup.Sup.start_child root
        (Hsup.Sup.child ~lifetime:Hsup.Sup.Permanent "accept-pump"
           (pump_body t el)))
  >>= fun () -> return t

let connect ?key t =
  if not t.accepting then throw Server.Server_stopped
  else
    match t.ext with
    | Some { el } -> dial t.ins t.config.Server.dial_timeout el
    | None ->
        lift (fun () ->
            match key with
            | Some k -> k
            | None ->
                t.conn_seq <- t.conn_seq + 1;
                Printf.sprintf "conn-%d" t.conn_seq)
        >>= fun k ->
        Ev.Backend.sim_pipe () >>= fun (client_side, server_side) ->
        route_or_brownout t k server_side >>= fun () -> return client_side

let shutdown t =
  lift (fun () -> t.accepting <- false) >>= fun () ->
  (match t.ext with
  | None -> return ()
  | Some { el } ->
      (* retire the pump before closing the listener so no accepted
         connection is dropped between the two *)
      stop_sup_child t.root "accept-pump" >>= fun () ->
      el.Ev.Backend.l_close ())
  >>= fun () ->
  (* Quiesce: wait for the routed backlog and in-flight workers to
     drain. Every worker is bounded by the request timeout, but a
     killed tree cannot drain at all — bail when shard-root is dead
     (its mailboxes go down with the [Sup.stop] below) and bound the
     whole wait by a generous multiple of the request timeout so an
     escalated shard (dead subtree, connections stuck in its mailbox)
     cannot stall shutdown forever. *)
  now >>= fun t0 ->
  let deadline = t0 + (10 * t.config.Server.request_timeout) in
  let rec quiesce () =
    lift (fun () ->
        Obs.Metrics.gauge_value t.queued = 0
        && Obs.Metrics.gauge_value t.ins.m_inflight = 0)
    >>= fun quiet ->
    if quiet then return ()
    else
      Hsup.Sup.alive t.root >>= fun alive ->
      now >>= fun tn ->
      if (not alive) || tn >= deadline then return ()
      else sleep 5 >>= fun () -> quiesce ()
  in
  quiesce () >>= fun () ->
  Hsup.Sup.stop t.root >>= fun _ ->
  (* restart totals: the root plus every nested supervisor we saw *)
  Hsup.Sup.restart_count t.root >>= fun root_restarts ->
  let rec sum_subs i acc =
    if i >= t.n_shards then return acc
    else
      match t.subs.(i) with
      | None -> sum_subs (i + 1) acc
      | Some sub ->
          Hsup.Sup.restart_count sub >>= fun r -> sum_subs (i + 1) (acc + r)
  in
  sum_subs 0 root_restarts >>= fun restarts ->
  return
    {
      Server.served = Obs.Metrics.counter_value t.ins.m_served;
      timeouts = Obs.Metrics.counter_value t.ins.m_timeouts;
      bad_requests = Obs.Metrics.counter_value t.ins.m_bad;
      rejected = Obs.Metrics.counter_value t.ins.m_rejected;
      shed = Obs.Metrics.counter_value t.ins.m_shed;
      restarts;
    }

let router t = t.rt
let shard_breaker t i = t.breakers.(i)
let shard_actor t i = t.actors.(i)
let supervisor t = t.root
let shard_sup t i = t.subs.(i)
let metrics t = t.registry
let shards t = t.n_shards
