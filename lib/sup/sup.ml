open Hio
open Hio_std
open Io

type lifetime = Permanent | Transient | Temporary
type strategy = One_for_one | All_for_one
type intensity = { max_restarts : int; window : int }

exception Escalated of string

type spec = { sp_name : string; sp_lifetime : lifetime; sp_start : unit Io.t }

let child ?(lifetime = Permanent) name io =
  { sp_name = name; sp_lifetime = lifetime; sp_start = io }

(* A slot is in [t.slots] exactly as long as the supervisor may still run
   it: retiring a slot removes it, so the supervisor's state is its live
   tree, not every child it ever started. *)
type slot = {
  sl_spec : spec;
  mutable sl_tid : Io.thread_id option;
  mutable sl_up : bool;
  mutable sl_stopping : bool;  (* killed by [stop_child]: do not restart *)
}

type msg =
  | Exited of slot * (unit, exn) Stdlib.result
  | Start of spec
  | Stop_child of string
  | Stop

type t = {
  name : string;
  strategy : strategy;
  intensity : intensity;
  ctl : msg Chan.t;
  done_mv : (unit, exn) Stdlib.result Mvar.t;
  mutable sup_tid : Io.thread_id option;
  mutable slots : slot list;  (* start order *)
  mutable starts : (string * int) list;  (* per child name *)
  mutable deferred : msg list;  (* non-Exited messages set aside by drains *)
  mutable restart_history : (int * string) list;  (* newest first *)
  mutable stopped : bool;
  c_restarts : Obs.Metrics.counter;
  c_escalations : Obs.Metrics.counter;
  g_children : Obs.Metrics.gauge;
}

let strategy_label = function
  | One_for_one -> "one_for_one"
  | All_for_one -> "all_for_one"

let live_count t =
  List.fold_left (fun n s -> if s.sl_up then n + 1 else n) 0 t.slots

let set_children_gauge t = Obs.Metrics.set t.g_children (live_count t)
let starts_of t name = Option.value ~default:0 (List.assoc_opt name t.starts)
let retire t slot = t.slots <- List.filter (fun s -> s != slot) t.slots

(* --- supervisor-thread internals -----------------------------------------

   Everything below the fork in [start] runs in the supervisor thread,
   which is permanently masked: asynchronous exceptions reach it only
   while it waits on [ctl] (interruptible, §5.3), so each message is
   handled atomically — in particular a restart's fork-and-record cannot
   be split by a kill, and an [Exited] message, once received, is always
   accounted before the next delivery point. *)

(* A child's exit report must reach the supervisor, or its slot stays up
   and [drain_exits] waits for it forever. Children taken down together
   all report at once, and a report waiting for [ctl]'s write cursor is
   interruptible even in the masked child (§5.3): a second kill landing
   there would lose it. So the report retries ({!Combinators.critical});
   the re-posted kill dies with the thread. *)
let spawn_slot t slot =
  let report res =
    Combinators.critical (Chan.send t.ctl (Exited (slot, res)))
  in
  block
    ( fork ~name:slot.sl_spec.sp_name
        (catch
           (unblock slot.sl_spec.sp_start >>= fun () -> report (Stdlib.Ok ()))
           (fun e -> report (Stdlib.Error e)))
    >>= fun tid ->
      lift (fun () ->
          slot.sl_tid <- Some tid;
          slot.sl_up <- true;
          slot.sl_stopping <- false;
          let name = slot.sl_spec.sp_name in
          t.starts <-
            (name, starts_of t name + 1) :: List.remove_assoc name t.starts;
          set_children_gauge t) )

let add_child t spec =
  lift (fun () ->
      let slot =
        { sl_spec = spec; sl_tid = None; sl_up = false; sl_stopping = false }
      in
      t.slots <- t.slots @ [ slot ];
      slot)
  >>= fun slot -> spawn_slot t slot

let kill_slot slot =
  match slot.sl_tid with
  | Some tid when slot.sl_up -> throw_to tid Kill_thread
  | _ -> return ()

let mark_down t slot =
  lift (fun () ->
      slot.sl_up <- false;
      set_children_gauge t)

(* Wait until no slot is live, consuming [Exited] messages straight from
   the mailbox. [Exited] can never sit in [t.deferred] (only non-exit
   messages are deferred), so reading the channel directly is complete —
   and avoids re-popping a deferred message forever. *)
let rec drain_exits ~keep t =
  if List.exists (fun s -> s.sl_up) t.slots then
    Chan.recv t.ctl >>= fun m ->
    (match m with
    | Exited (slot, _) -> mark_down t slot
    | other ->
        lift (fun () ->
            if keep then t.deferred <- t.deferred @ [ other ]))
    >>= fun () -> drain_exits ~keep t
  else return ()

let kill_all t =
  let rec go = function
    | [] -> return ()
    | s :: rest -> kill_slot s >>= fun () -> go rest
  in
  go t.slots

let take_down t = kill_all t >>= fun () -> drain_exits ~keep:false t

let note_restart t ts name =
  lift (fun () ->
      t.restart_history <- (ts, name) :: t.restart_history;
      Obs.Metrics.inc t.c_restarts)

let budget_exhausted t ts =
  let in_window =
    List.filter (fun (w, _) -> ts - w <= t.intensity.window) t.restart_history
  in
  List.length in_window >= t.intensity.max_restarts

let escalate t =
  lift (fun () -> Obs.Metrics.inc t.c_escalations) >>= fun () ->
  take_down t >>= fun () -> throw (Escalated t.name)

(* All-for-one: kill every live sibling, wait for all of them, respawn
   every slot that is still wanted. Temporary children are retired by any
   collective restart (as in Erlang), and so is a child that [stop_child]
   killed, whose exit the drain consumed. *)
let restart_all t =
  kill_all t >>= fun () ->
  drain_exits ~keep:true t >>= fun () ->
  let rec respawn = function
    | [] -> return ()
    | s :: rest ->
        (if s.sl_stopping || s.sl_spec.sp_lifetime = Temporary then
           lift (fun () -> retire t s)
         else spawn_slot t s)
        >>= fun () -> respawn rest
  in
  respawn t.slots

let handle_exited t slot res =
  mark_down t slot >>= fun () ->
  let wants_restart =
    match (slot.sl_spec.sp_lifetime, res) with
    | Temporary, _ -> false
    | Transient, Stdlib.Ok () -> false
    | Transient, Stdlib.Error _ -> true
    | Permanent, _ -> true
  in
  if slot.sl_stopping || not wants_restart then lift (fun () -> retire t slot)
  else
    now >>= fun ts ->
    lift (fun () -> budget_exhausted t ts) >>= fun exhausted ->
    if exhausted then escalate t
    else
      note_restart t ts slot.sl_spec.sp_name >>= fun () ->
      (match t.strategy with
      | One_for_one -> spawn_slot t slot
      | All_for_one -> restart_all t)

let handle_stop_child t name =
  let rec kill = function
    | [] -> return ()
    | s :: rest ->
        (if s.sl_spec.sp_name = name then
           lift (fun () -> s.sl_stopping <- true) >>= fun () -> kill_slot s
         else return ())
        >>= fun () -> kill rest
  in
  kill t.slots

let next_msg t =
  lift (fun () ->
      match t.deferred with
      | [] -> None
      | m :: rest ->
          t.deferred <- rest;
          Some m)
  >>= function
  | Some m -> return m
  | None -> Chan.recv t.ctl

let rec loop t =
  next_msg t >>= function
  | Stop -> take_down t
  | Start spec -> add_child t spec >>= fun () -> loop t
  | Stop_child name -> handle_stop_child t name >>= fun () -> loop t
  | Exited (slot, res) -> handle_exited t slot res >>= fun () -> loop t

let finish t r =
  lift (fun () ->
      t.stopped <- true;
      Obs.Metrics.set t.g_children 0)
  >>= fun () -> Mvar.put t.done_mv r

let sup_body t specs =
  let rec start_all = function
    | [] -> return ()
    | spec :: rest -> add_child t spec >>= fun () -> start_all rest
  in
  catch
    (start_all specs >>= fun () -> loop t >>= fun () -> finish t (Stdlib.Ok ()))
    (fun e ->
      (* Killed (or escalated): never strand the subtree. [Escalated]
         already took it down; any other exit path does so here, itself
         shielded so that even a second kill still fills [done_mv]. *)
      (match e with
      | Escalated _ -> return ()
      | _ -> catch (take_down t) (fun _ -> return ()))
      >>= fun () -> finish t (Stdlib.Error e))

(* --- public API ----------------------------------------------------------- *)

let default_intensity = { max_restarts = 3; window = 1_000 }

let start ?(name = "supervisor") ?(strategy = One_for_one)
    ?(intensity = default_intensity) ?metrics specs =
  Chan.create () >>= fun ctl ->
  Mvar.new_empty >>= fun done_mv ->
  lift (fun () ->
      (* the default registry is created here, per run, for the same
         reason as in [Hserver.Server.start]: a sup Io value may be run
         many times (kill sweeps), concurrently, on several domains *)
      let reg =
        match metrics with Some r -> r | None -> Obs.Metrics.create ()
      in
      let labels = [ ("strategy", strategy_label strategy) ] in
      {
        name;
        strategy;
        intensity;
        ctl;
        done_mv;
        sup_tid = None;
        slots = [];
        starts = [];
        deferred = [];
        restart_history = [];
        stopped = false;
        c_restarts = Obs.Metrics.counter reg ~labels "sup_restarts_total";
        c_escalations =
          Obs.Metrics.counter reg ~labels "sup_escalations_total";
        g_children =
          Obs.Metrics.gauge reg ~labels:[ ("sup", name) ] "sup_children";
      })
  >>= fun t ->
  block
    ( fork ~name (sup_body t specs) >>= fun tid ->
      lift (fun () -> t.sup_tid <- Some tid) )
  >>= fun () -> return t

let start_child t spec = Chan.send t.ctl (Start spec)
let stop_child t name = Chan.send t.ctl (Stop_child name)

let stop t =
  Chan.send t.ctl Stop >>= fun () -> Mvar.read t.done_mv

let await t = Mvar.read t.done_mv
let alive t = lift (fun () -> not t.stopped)

let thread t =
  match t.sup_tid with
  | Some tid -> tid
  | None -> invalid_arg "Sup.thread: not started"

let children t =
  lift (fun () -> List.map (fun s -> (s.sl_spec.sp_name, s.sl_up)) t.slots)

let child_up t name =
  lift (fun () ->
      List.exists
        (fun s -> s.sl_spec.sp_name = name && s.sl_up)
        t.slots)

let child_tid t name =
  lift (fun () ->
      List.fold_left
        (fun acc s ->
          if s.sl_spec.sp_name = name && s.sl_up then s.sl_tid else acc)
        None t.slots)

let child_starts t name = lift (fun () -> starts_of t name)

let restart_log t = lift (fun () -> t.restart_history)
let restart_count t = lift (fun () -> List.length t.restart_history)
