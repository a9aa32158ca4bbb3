open Hio
open Hio_std
open Io

type down = {
  down_id : int;
  down_name : string;
  down_reason : (unit, exn) Stdlib.result;
}

exception Exit_signal of { aid : int; name : string; reason : exn }
exception Stopped
exception Call_timeout

(* The control envelope around user messages. A stop request rides the
   mailbox FIFO — the same discipline as Sup's ctl channel — so it is
   processed strictly after everything already enqueued. *)
type 'm envelope = Msg of 'm | Stop_req of (unit, exn) Stdlib.result Mvar.t

(* The type-erased identity of an actor: everything links, monitors and
   the exit protocol need, free of the message type so cells of
   different actors can point at each other. All mutable fields are
   touched only inside atomic [lift] steps. *)
type cell = {
  c_id : int;
  c_name : string;
  mutable c_tid : Io.thread_id option;  (* current incarnation *)
  mutable c_alive : bool;
  mutable c_ever_done : (unit, exn) Stdlib.result option;  (* first exit *)
  mutable c_links : cell list;
  mutable c_watchers : watcher list;
  mutable c_stop_acks : (unit, exn) Stdlib.result Mvar.t list;
  c_done : (unit, exn) Stdlib.result Mvar.t;
}

and watcher = {
  w_on : cell;
  mutable w_active : bool;
  w_deliver : down -> unit Io.t;  (* a Mailbox.push_urgent closure *)
}

type monitor_ref = watcher
type 'm t = { a_cell : cell; a_mbox : 'm envelope Mailbox.t }
type 'r reply = ('r, exn) Stdlib.result Mvar.t

let rec iter f = function
  | [] -> return ()
  | x :: rest -> f x >>= fun () -> iter f rest

let () =
  Printexc.register_printer (function
    | Exit_signal { aid; name; reason } ->
        Some
          (Printf.sprintf "Exit_signal(%s#%d: %s)" name aid
             (Printexc.to_string reason))
    | Stopped -> Some "Actor.Stopped"
    | Call_timeout -> Some "Actor.Call_timeout"
    | _ -> None)

(* --- lifecycle --------------------------------------------------------- *)

let create ?(name = "actor") ?bound ?on_drop ?metrics () =
  (* The bound applies to [Msg] envelopes; control envelopes use
     [push_urgent]. [on_drop] unwraps, so callers account in their own
     message type. *)
  let on_drop =
    Option.map
      (fun f -> function Msg m -> f m | Stop_req _ -> ())
      on_drop
  in
  Mailbox.create ?bound ?on_drop ?metrics ~name () >>= fun mbox ->
  Mvar.new_empty >>= fun done_mv ->
  (* The id comes from the MVar's per-run id, not a global counter: a
     module-level counter would be shared across the sweep's parallel
     re-runs and make anything derived from ids schedule-dependent
     (the PR 4 gensym lesson). *)
  return
    {
      a_cell =
        {
          c_id = Mvar.id done_mv;
          c_name = name;
          c_tid = None;
          c_alive = false;
          c_ever_done = None;
          c_links = [];
          c_watchers = [];
          c_stop_acks = [];
          c_done = done_mv;
        };
      a_mbox = mbox;
    }

(* The exit protocol. Runs under [uninterruptibly]: a second kill aimed
   at the dying actor must not cut the delivery fan-out short, or a
   monitor could lose its one [down]. ([Chan.send]'s own [block]
   downgrades that mask at the write-cursor wait, which is why the
   [down] push retries: {!Mailbox.push_urgent}.) The bookkeeping is one
   atomic step — after it, the actor is observably dead and every
   link/monitor is claimed by this incarnation's protocol, so delivery
   happens exactly once no matter how many exceptions are in flight. *)
let exit_protocol cell res =
  uninterruptibly
    ( lift (fun () ->
          cell.c_alive <- false;
          cell.c_tid <- None;
          (match cell.c_ever_done with
          | None -> cell.c_ever_done <- Some res
          | Some _ -> ());
          let links = cell.c_links in
          (* sever both directions so a peer dying later doesn't signal
             this corpse, and vice versa *)
          List.iter
            (fun p -> p.c_links <- List.filter (fun c -> c != cell) p.c_links)
            links;
          cell.c_links <- [];
          let ws = List.filter (fun w -> w.w_active) cell.c_watchers in
          List.iter (fun w -> w.w_active <- false) ws;
          cell.c_watchers <- [];
          let acks = cell.c_stop_acks in
          cell.c_stop_acks <- [];
          (links, ws, acks))
      >>= fun (links, ws, acks) ->
      (match res with
      | Stdlib.Ok () -> return ()  (* normal exit: links are silent *)
      | Stdlib.Error reason ->
          iter
            (fun peer ->
              match (peer.c_alive, peer.c_tid) with
              | true, Some tid ->
                  throw_to tid
                    (Exit_signal
                       { aid = cell.c_id; name = cell.c_name; reason })
              | _ -> return ())
            links)
      >>= fun () ->
      iter
        (fun w ->
          w.w_deliver
            { down_id = cell.c_id; down_name = cell.c_name; down_reason = res })
        ws
      >>= fun () ->
      iter (fun mv -> Mvar.try_put mv res >>= fun _ -> return ()) acks
      >>= fun () ->
      Mvar.try_put cell.c_done res >>= fun _ -> return () )

let body t f =
  (* Masked for the whole body, like a supervisor: asynchronous
     exceptions (kills, link signals) land only at the interruptible
     [receive] waits, never between a state update and its send. *)
  mask_
    ( my_thread_id >>= fun me ->
      lift (fun () ->
          t.a_cell.c_tid <- Some me;
          t.a_cell.c_alive <- true)
      >>= fun () ->
      catch
        (f t >>= fun () -> return (Stdlib.Ok ()))
        (fun e ->
          return
            (match e with Stopped -> Stdlib.Ok () | e -> Stdlib.Error e))
      >>= fun res -> exit_protocol t.a_cell res )

let fork_body t f =
  block
    ( fork ~name:t.a_cell.c_name (body t f) >>= fun tid ->
      lift (fun () ->
          t.a_cell.c_tid <- Some tid;
          t.a_cell.c_alive <- true) )

let spawn ?name f = create ?name () >>= fun t -> fork_body t f >>= fun () -> return t

let spawn_link ~parent ?name f =
  create ?name () >>= fun t ->
  block
    ( lift (fun () ->
          let cp = parent.a_cell and cc = t.a_cell in
          cp.c_links <- cc :: cp.c_links;
          cc.c_links <- cp :: cc.c_links)
      >>= fun () -> fork_body t f )
  >>= fun () -> return t

(* --- links and monitors ------------------------------------------------ *)

let dead c = (not c.c_alive) && c.c_ever_done <> None

(* Deliver the already-recorded abnormal death of [from] to [to_], for
   link/monitor operations that arrive after the fact. *)
let late_signal ~from ~to_ =
  lift (fun () ->
      match (from.c_ever_done, to_.c_alive, to_.c_tid) with
      | Some (Stdlib.Error reason), true, Some tid -> Some (tid, reason)
      | _ -> None)
  >>= function
  | Some (tid, reason) ->
      throw_to tid
        (Exit_signal { aid = from.c_id; name = from.c_name; reason })
  | None -> return ()

let link a b =
  let ca = a.a_cell and cb = b.a_cell in
  lift (fun () ->
      if dead ca || dead cb then `Late
      else begin
        if not (List.memq cb ca.c_links) then ca.c_links <- cb :: ca.c_links;
        if not (List.memq ca cb.c_links) then cb.c_links <- ca :: cb.c_links;
        `Linked
      end)
  >>= function
  | `Linked -> return ()
  | `Late ->
      (* Erlang's noproc convention, link flavour: an already-dead peer
         signals now (if its death was abnormal) *)
      late_signal ~from:ca ~to_:cb >>= fun () -> late_signal ~from:cb ~to_:ca

(* Arm a watcher on a cell, or fire immediately if it is already dead.
   [deliver] is an urgent mailbox push (or [reply_error] for calls): it
   waits at most behind a concurrent sender and is never lost to a
   kill, so the exit protocol's fan-out delivers every [down]. *)
let watch_cell cell deliver =
  let w = { w_on = cell; w_active = true; w_deliver = deliver } in
  lift (fun () ->
      match cell.c_ever_done with
      | Some res when not cell.c_alive ->
          w.w_active <- false;
          `Fire res
      | _ ->
          cell.c_watchers <- cell.c_watchers @ [ w ];
          `Armed)
  >>= function
  | `Armed -> return w
  | `Fire res ->
      deliver { down_id = cell.c_id; down_name = cell.c_name; down_reason = res }
      >>= fun () -> return w

let monitor ~watcher ~inject watched =
  watch_cell watched.a_cell (fun d ->
      Mailbox.push_urgent watcher.a_mbox (Msg (inject d)))

let demonitor w =
  lift (fun () ->
      w.w_active <- false;
      w.w_on.c_watchers <- List.filter (fun x -> x != w) w.w_on.c_watchers)

(* --- messaging --------------------------------------------------------- *)

let send t m = Mailbox.push t.a_mbox (Msg m)

(* Selective receive over the envelope stream. A consumed stop request
   is acknowledged from the exit protocol, not here: park the ack on the
   cell (we are masked — no delivery point between the take and this
   record) and raise [Stopped] so teardown runs on the normal exit
   path. *)
let receive t f =
  Mailbox.receive t.a_mbox (function
    | Stop_req ack -> Some (`Stop ack)
    | Msg m -> ( match f m with Some x -> Some (`Msg x) | None -> None))
  >>= function
  | `Msg x -> return x
  | `Stop ack ->
      lift (fun () -> t.a_cell.c_stop_acks <- ack :: t.a_cell.c_stop_acks)
      >>= fun () -> throw Stopped

let receive_timeout d t f =
  Mailbox.receive_timeout d t.a_mbox (function
    | Stop_req ack -> Some (`Stop ack)
    | Msg m -> ( match f m with Some x -> Some (`Msg x) | None -> None))
  >>= function
  | Some (`Msg x) -> return (Some x)
  | Some (`Stop ack) ->
      lift (fun () -> t.a_cell.c_stop_acks <- ack :: t.a_cell.c_stop_acks)
      >>= fun () -> throw Stopped
  | None -> return None

let reply r v = Mvar.try_put r (Stdlib.Ok v) >>= fun _ -> return ()
let reply_error r e = Mvar.try_put r (Stdlib.Error e) >>= fun _ -> return ()

let down_exn d =
  let reason =
    match d.down_reason with Stdlib.Ok () -> Stopped | Stdlib.Error e -> e
  in
  Exit_signal { aid = d.down_id; name = d.down_name; reason }

(* A synchronous call: reply MVar in the message, a monitor so a dying
   server fails us fast instead of leaving us waiting out the timeout,
   the timer armed in this thread (a timeout helper thread could be
   killed while holding the reply). The wait itself is the only
   interruptible point; the handler runs masked, so the timer token is
   always cancelled/purged before we leave. *)
let call ?timeout srv make =
  Mvar.new_empty >>= fun r ->
  watch_cell srv.a_cell (fun d -> reply_error r (down_exn d)) >>= fun w ->
  Combinators.finally
    ( Mailbox.push srv.a_mbox (Msg (make r)) >>= fun () ->
      let wait =
        Mvar.read r >>= function
        | Stdlib.Ok v -> return v
        | Stdlib.Error e -> throw e
      in
      match timeout with
      | None -> wait
      | Some d ->
          mask_
            ( arm_timer d >>= fun tm ->
              catch
                (wait >>= fun v -> cancel_timer tm >>= fun () -> return v)
                (fun e ->
                  if is_timer_signal tm e then throw Call_timeout
                  else cancel_timer tm >>= fun () -> throw e) ) )
    (demonitor w)

(* --- termination ------------------------------------------------------- *)

let await t = Mvar.read t.a_cell.c_done
let alive t = lift (fun () -> t.a_cell.c_alive)
let id t = t.a_cell.c_id
let name t = t.a_cell.c_name
let tid t = lift (fun () -> t.a_cell.c_tid)
let stashed t = Mailbox.stashed t.a_mbox

(* Graceful stop = the supervisor's teardown barrier on the mailbox
   FIFO: everything enqueued before the stop request is processed
   first. The wait races the ack against the actor's death record, so a
   victim killed between consuming the request and acking (or killed
   while we enqueue) cannot wedge the stopper. Weakness, documented in
   the mli: an actor that already died once (e.g. under a supervisor
   that restarted it) answers with that first recorded result
   immediately. *)
let stop t =
  lift (fun () ->
      match (t.a_cell.c_alive, t.a_cell.c_ever_done) with
      | false, Some r -> Some r
      | _ -> None)
  >>= function
  | Some r -> return r
  | None ->
      Mvar.new_empty >>= fun ack ->
      Mailbox.push_urgent t.a_mbox (Stop_req ack) >>= fun () ->
      Combinators.race [ Mvar.take ack; Mvar.read t.a_cell.c_done ]

let kill t =
  lift (fun () -> t.a_cell.c_tid) >>= function
  | Some tid when t.a_cell.c_alive ->
      catch (throw_to tid Kill_thread) (function
        | Thread_not_found -> return ()
        | e -> throw e)
  | _ -> return ()
