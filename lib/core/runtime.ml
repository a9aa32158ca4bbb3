open Hio_types

type event =
  | Ev_fork of { parent : int; child : int; name : string option }
  | Ev_exit of { tid : int; uncaught : exn option }
  | Ev_throw_to of { source : int; target : int; exn : exn }
  | Ev_deliver of { tid : int; exn : exn }
  | Ev_blocked of { tid : int; why : wait_reason; mvar : int option }
  | Ev_wakeup of { tid : int }
  | Ev_mask of { tid : int; masked : bool }
  | Ev_clock of { now : int }

type wait_reason = Hio_types.wait_reason =
  | W_take_mvar
  | W_put_mvar
  | W_sleep
  | W_get_char
  | W_throw_to
  | W_fd_read
  | W_fd_write

let wait_reason_label = Hio_types.wait_reason_label

type fd_event = { fde_fd : int; fde_readable : bool; fde_writable : bool }

(* The pluggable clock-and-readiness substrate (lib/ev provides the
   epoll-backed one). When absent the scheduler is the seed's simulated
   runtime: virtual clock, no fds. When present:
   - idle waits go through [es_wait] with the timer wheel's exact next
     deadline as the timeout, instead of jumping the virtual clock;
   - [es_now] drives [Io.now] (monotonic microseconds);
   - [es_modify] keeps the poller's interest set in sync with the
     [Wait_fd] waiter tables. *)
type event_source = {
  es_now : unit -> int;
  es_modify : fd:int -> read:bool -> write:bool -> unit;
  es_wait : timeout_us:int option -> fd_event list;
}

module Config = struct
  type policy = Round_robin | Random of int

  type t = {
    policy : policy;
    input : string;
    collapse_mask_frames : bool;
    fork_inherits_mask : bool;
    sync_throw_to : bool;
    max_steps : int;
    tracer : (event -> unit) option;
    inject : (step:int -> running:int -> (int * exn) option) option;
    journal : Step_journal.t option;
    event_source : event_source option;
    domains : int;
    replay : Step_journal.Replay.t option;
  }

  let default =
    {
      policy = Round_robin;
      input = "";
      collapse_mask_frames = true;
      fork_inherits_mask = true;
      sync_throw_to = false;
      max_steps = 50_000_000;
      tracer = None;
      inject = None;
      journal = None;
      event_source = None;
      domains = 1;
      replay = None;
    }
end

let pp_event ppf = function
  | Ev_fork { parent; child; name } ->
      Fmt.pf ppf "fork t%d -> t%d%a" parent child
        Fmt.(option (fmt " (%s)"))
        name
  | Ev_exit { tid; uncaught = None } -> Fmt.pf ppf "exit t%d" tid
  | Ev_exit { tid; uncaught = Some e } ->
      Fmt.pf ppf "exit t%d (uncaught %s)" tid (Printexc.to_string e)
  | Ev_throw_to { source; target; exn } ->
      Fmt.pf ppf "throwTo t%d -> t%d (%s)" source target
        (Printexc.to_string exn)
  | Ev_deliver { tid; exn } ->
      Fmt.pf ppf "deliver %s at t%d" (Printexc.to_string exn) tid
  | Ev_blocked { tid; why; mvar } ->
      Fmt.pf ppf "t%d blocked on %s%a" tid (wait_reason_label why)
        Fmt.(option (fmt " m%d"))
        mvar
  | Ev_wakeup { tid } -> Fmt.pf ppf "t%d woken" tid
  | Ev_mask { tid; masked } ->
      Fmt.pf ppf "t%d %s" tid (if masked then "masked" else "unmasked")
  | Ev_clock { now } -> Fmt.pf ppf "clock -> %dus" now

let default_log_src = Logs.Src.create "hio.runtime" ~doc:"hio scheduler events"

let logs_tracer ?(src = default_log_src) () event =
  Logs.debug ~src (fun m -> m "%a" pp_event event)

type 'a outcome = Value of 'a | Uncaught of exn | Deadlock | Out_of_steps

type thread_stat = {
  ts_id : int;
  ts_name : string option;
  ts_steps : int;
  ts_blocked : int;
  ts_delivered : int;
}

type blocked_thread = {
  bt_tid : int;
  bt_name : string option;
  bt_why : wait_reason;
  bt_mvar : int option;
  bt_mvar_full : bool option;
  bt_last_taker : int option;
  bt_fd : int option;
}

type domain_stat = {
  ds_dom : int;
  ds_steps : int;
  ds_steals : int;
  ds_records : int;
}

type 'a result = {
  outcome : 'a outcome;
  output : string;
  steps : int;
  time : int;
  forks : int;
  max_frame_depth : int;
  thread_stats : thread_stat list;
  blocked_at_exit : blocked_thread list;
  injections : int;
  domain_stats : domain_stat list;
  replay_log : Step_journal.Replay.t option;
  replay_diverged : bool;
}

let pp_blocked_thread ppf bt =
  Fmt.pf ppf "t%d%a blocked on %s" bt.bt_tid
    Fmt.(option (fmt " (%s)"))
    bt.bt_name
    (wait_reason_label bt.bt_why);
  (match bt.bt_fd with None -> () | Some fd -> Fmt.pf ppf " fd %d" fd);
  match bt.bt_mvar with
  | None -> ()
  | Some m ->
      Fmt.pf ppf " m%d [%s%a]" m
        (match bt.bt_mvar_full with
        | Some true -> "full"
        | Some false -> "empty"
        | None -> "?")
        Fmt.(option (fmt ", last held by t%d"))
        bt.bt_last_taker

(* The deadlock watchdog's report: every blocked thread, its reason, and —
   when it waits on an MVar — the box's state, its last holder, and the
   other threads queued on the same box (tid → MVar → holder/waiters). *)
let pp_wait_graph ppf blocked =
  List.iter
    (fun bt ->
      pp_blocked_thread ppf bt;
      (match bt.bt_mvar with
      | None -> ()
      | Some m -> (
          match
            List.filter_map
              (fun o ->
                if o.bt_tid <> bt.bt_tid && o.bt_mvar = Some m then
                  Some o.bt_tid
                else None)
              blocked
          with
          | [] -> ()
          | others ->
              Fmt.pf ppf " (co-waiters:%a)"
                Fmt.(list ~sep:nop (fmt " t%d"))
                others));
      Fmt.pf ppf "@.")
    blocked

type stats = {
  s_names : string array;  (* [unnamed] for [None] *)
  s_steps : int array;
  s_blocked : int array;
  s_delivered : int array;
}

type state = {
  config : Config.t;
  rng : Random.State.t option;
  mutable now : int;
  mutable runq : thread Runq.t;  (* FIFO ring deque: head runs next *)
  mutable threads : thread array;  (* the live threads: see [add_thread] *)
  mutable live_threads : int;
  (* thread statistics for [finish]: see [keep_stats] *)
  mutable stats : stats array;
  mutable max_depth : int;  (* the deepest frame stack among them *)
  wheel : timer_kind Timer_wheel.t;  (* all sleep/alarm deadlines *)
  fd_readers : (int, fd_waiter Queue.t) Hashtbl.t;
  fd_writers : (int, fd_waiter Queue.t) Hashtbl.t;
  mutable fd_live : int;  (* live (uncancelled) fd waiters, both tables *)
  mutable next_timer : int;  (* Arm_timer handle ids *)
  mutable input : char list;
  output : Buffer.t;
  mutable steps : int;
  mutable next_tid : int;
  mutable next_mv : int;
  mutable forks : int;
  mutable injections : int;  (* fault-injection hook deliveries applied *)
  mutable finished : bool;  (* main thread done *)
  (* multi-domain plumbing. On a single-domain run or a replay:
     [cur_dom] is the domain the step runs on (0, or the recorded one),
     [poke] is a no-op and [enqueue_hook] pushes [runq] — the seed
     scheduler, bit for bit. A live multi-domain run points
     [enqueue_hook] at the lock-holding domain's deque and [poke] at the
     per-domain poke flags. *)
  mutable cur_dom : int;
  mutable poke : int -> unit;
  mutable enqueue_hook : thread -> unit;
}

let enqueue st t = st.enqueue_hook t

(* Events are built only under a tracer, so an untraced step allocates
   none: every [emit] sits behind [tracing]. *)
let[@inline] tracing st = st.config.Config.tracer <> None

let emit st event =
  match st.config.Config.tracer with Some f -> f event | None -> ()

let bump_depth t k =
  t.t_frame_depth <- t.t_frame_depth + k;
  if t.t_frame_depth > t.t_max_frame_depth then
    t.t_max_frame_depth <- t.t_frame_depth

(* Wake a blocked thread normally, resuming it at [io] over [frames]. *)
let wake st t io frames =
  if tracing st then emit st (Ev_wakeup { tid = t.t_id });
  t.t_state <- T_run (io, frames);
  enqueue st t

(* Pop the head of the pending queue, to be raised at the thread's current
   evaluation point — rules (Receive)/(Interrupt) — and wake a synchronous
   throwTo sender waiting for it. *)
let deliver_pending st t =
  match t.t_pending with
  | [] -> assert false
  | p :: rest ->
      t.t_pending <- rest;
      t.t_delivered <- t.t_delivered + 1;
      if tracing st then emit st (Ev_deliver { tid = t.t_id; exn = p.p_exn });
      (match p.p_sender with
      | Sender (sender, frames) -> (
          match sender.t_state with
          | T_blocked _ -> wake st sender (Pure ()) frames
          | T_run _ | T_dead _ -> ())
      | No_sender -> ());
      p.p_exn

(* Resume [t] by raising its head pending exception into [frames]. *)
let raise_into st t frames =
  t.t_state <- T_run (Throw_async (deliver_pending st t), frames)

(* The step-boundary delivery check of §8.1 ("at regular intervals during
   execution inside unblock, the pending exceptions queue must be
   checked"): an unmasked thread with pending exceptions takes the head
   one instead of its next step. Every engine's boundary goes through
   [checked_step]. *)
let[@inline] deliverable t = t.t_mask = Mask_none && t.t_pending <> []

(* A thread at an interruptible wait, about to block or already blocked,
   takes its head pending exception instead, even inside [block]: it is
   by definition waiting on an unavailable resource (§5.3). Only
   [uninterruptibly] defers it. *)
let[@inline] interruptible_now t =
  t.t_pending <> [] && t.t_mask <> Mask_uninterruptible

(* --- fd waiter plumbing -------------------------------------------------- *)

let fd_queue tbl fd =
  match Hashtbl.find_opt tbl fd with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.add tbl fd q;
      q

let queue_has_live q =
  Queue.fold (fun acc w -> acc || not w.fw_cancelled) false q

(* Keep the poller's interest set in step with the waiter tables: called
   after every registration, cancellation, and wakeup. *)
let update_interest st fd =
  match st.config.Config.event_source with
  | None -> ()
  | Some es ->
      let has tbl =
        match Hashtbl.find_opt tbl fd with
        | Some q -> queue_has_live q
        | None -> false
      in
      es.es_modify ~fd ~read:(has st.fd_readers) ~write:(has st.fd_writers)

(* Withdraw a blocked thread's registration (waiter, timer, fd interest,
   synchronous throwTo) before it is resumed by an exception. *)
let withdraw st = function
  | On_take (_, tk) -> tk.tk_cancelled <- true
  | On_put (_, pt) -> pt.pt_cancelled <- true
  | On_sleep entry -> Timer_wheel.cancel st.wheel entry
  | On_fd w ->
      if not w.fw_cancelled then begin
        w.fw_cancelled <- true;
        st.fd_live <- st.fd_live - 1;
        update_interest st w.fw_fd
      end
  | On_throw_to p -> p.p_sender <- No_sender
  | On_get_char -> ()

(* Resume a blocked thread by raising its head pending exception into it —
   rule (Interrupt). A waiter that would be woken normally but is
   [interruptible_now] gets this instead. This mirrors GHC: a racing
   throwTo beats the wakeup, so an MVar value is never handed to a
   resumption that an exception is about to discard. *)
let interrupt st t =
  match t.t_state with
  | T_blocked (frames, w) ->
      withdraw st w;
      raise_into st t frames;
      enqueue st t
  | T_run _ | T_dead _ -> ()

(* Append [entry] to [target]'s pending queue and apply rule (Interrupt)
   if it is blocked — the only code that appends to a pending queue, on
   every engine and always under the shared-state lock. When the target
   is running on another domain, its owner is poked so the boundary
   delivery check of §8.1 notices the new entry promptly: the poke's
   atomic write publishes the append, and the owner's atomic read of its
   flag is the acquire that makes it visible before its next lock. A
   no-op distinction on one domain. *)
let post_now st target entry =
  target.t_pending <- target.t_pending @ [ entry ];
  if interruptible_now target then interrupt st target;
  match target.t_state with
  | T_run _ when target.t_dom <> st.cur_dom -> st.poke target.t_dom
  | T_run _ | T_blocked _ | T_dead _ -> ()

(* --- the thread table ----------------------------------------------------- *)

(* A fresh thread, before its first step. *)
let new_thread ~id ~name ~mask ~dom state =
  {
    t_id = id;
    t_name = name;
    t_mask = mask;
    t_pending = [];
    t_state = state;
    t_frame_depth = 1;
    t_max_frame_depth = 1;
    t_steps = 0;
    t_blocked_count = 0;
    t_delivered = 0;
    t_dom = dom;
    t_tseq = 0;
  }

(* The empty slot of the thread table. It never runs, and nothing writes
   to it. *)
let vacant =
  new_thread ~id:(-1) ~name:None ~mask:Mask_none ~dom:0 (T_dead None)

(* The slot holding thread [tid], or the vacant slot where it would go:
   linear probing from slot [tid land mask]. *)
let rec find_slot a mask tid i =
  let t = a.(i) in
  if t == vacant || t.t_id = tid then i
  else find_slot a mask tid ((i + 1) land mask)

let slot_of st tid =
  let a = st.threads in
  let mask = Array.length a - 1 in
  find_slot a mask tid (tid land mask)

(* The live thread [tid], or [vacant]. *)
let lookup st tid = if tid < 0 then vacant else st.threads.(slot_of st tid)

let find_thread st tid =
  let t = lookup st tid in
  if t == vacant then None else Some t

(* Register a thread just created with tid [st.next_tid]. The thread
   table holds only the threads that can still run: an open-addressed
   table keyed by tid, which doubles when half full, so its size follows
   the peak number of live threads, not the forks. Tids are dense and
   allocated under the shared-state lock, so consecutive tids take
   consecutive slots and a probe rarely moves. *)
let add_thread st t =
  let old = st.threads in
  if 2 * (st.live_threads + 1) > Array.length old then begin
    st.threads <- Array.make (2 * Array.length old) vacant;
    Array.iter
      (fun u -> if u != vacant then st.threads.(slot_of st u.t_id) <- u)
      old
  end;
  st.threads.(slot_of st t.t_id) <- t;
  st.live_threads <- st.live_threads + 1;
  st.next_tid <- st.next_tid + 1

(* Empty [tid]'s slot, shifting later entries of its probe run back so
   that every live thread stays reachable from its home slot. *)
let remove_thread st tid =
  let a = st.threads in
  let mask = Array.length a - 1 in
  let hole = ref (slot_of st tid) in
  let j = ref ((!hole + 1) land mask) in
  while a.(!j) != vacant do
    let home = a.(!j).t_id land mask in
    if (!j - home) land mask >= (!j - !hole) land mask then begin
      a.(!hole) <- a.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  a.(!hole) <- vacant;
  st.live_threads <- st.live_threads - 1

(* Thread statistics by tid, in chunks of [stat_chunk] tids: per tid its
   name and three ints, and no block of its own. A thread's statistics go
   in when it dies, and the threads still live at the end go in at
   [finish]. *)
let stat_chunk = 32

(* A name is kept without its option box, which a fork may allocate
   afresh (a supervisor names each child from its spec): [unnamed], a
   string no thread can be given, stands for [None]. *)
let unnamed = String.make 1 '?'

let no_stats =
  { s_names = [||]; s_steps = [||]; s_blocked = [||]; s_delivered = [||] }

let keep_stats st t =
  let k = t.t_id / stat_chunk and i = t.t_id mod stat_chunk in
  if k >= Array.length st.stats then begin
    let d = Array.make (max (k + 1) (2 * Array.length st.stats)) no_stats in
    Array.blit st.stats 0 d 0 (Array.length st.stats);
    st.stats <- d
  end;
  if st.stats.(k) == no_stats then
    st.stats.(k) <-
      {
        s_names = Array.make stat_chunk unnamed;
        s_steps = Array.make stat_chunk 0;
        s_blocked = Array.make stat_chunk 0;
        s_delivered = Array.make stat_chunk 0;
      };
  let c = st.stats.(k) in
  c.s_names.(i) <- Option.value t.t_name ~default:unnamed;
  c.s_steps.(i) <- t.t_steps;
  c.s_blocked.(i) <- t.t_blocked_count;
  c.s_delivered.(i) <- t.t_delivered;
  st.max_depth <- Int.max st.max_depth t.t_max_frame_depth

let thread_stat st tid =
  let c = st.stats.(tid / stat_chunk) and i = tid mod stat_chunk in
  {
    ts_id = tid;
    ts_name = (if c.s_names.(i) == unnamed then None else Some c.s_names.(i));
    ts_steps = c.s_steps.(i);
    ts_blocked = c.s_blocked.(i);
    ts_delivered = c.s_delivered.(i);
  }

(* Thread [t] has just died (rules (Return GC) and (Throw GC) drop it):
   it leaves the table, and only its statistics stay. Both deaths are
   [F_stop] steps, so on the multi-domain engine this runs under the
   shared-state lock. *)
let retire st t =
  remove_thread st t.t_id;
  keep_stats st t

(* Fold [f] over every live thread in descending tid order, so consing
   builds an ascending list. *)
let fold_threads st f acc =
  let acc = ref acc in
  for tid = st.next_tid - 1 downto 0 do
    let t = lookup st tid in
    if t != vacant then acc := f t !acc
  done;
  !acc

(* --- MVar plumbing ------------------------------------------------------ *)

let rec pop_taker q =
  match Queue.take_opt q with
  | None -> None
  | Some tk -> if tk.tk_cancelled then pop_taker q else Some tk

let rec pop_putter q =
  match Queue.take_opt q with
  | None -> None
  | Some pt -> if pt.pt_cancelled then pop_putter q else Some pt

(* Remove a value from a full MVar; if a putter is waiting, its value fills
   the box in the same atomic step (no barging past the queue). *)
let rec mvar_remove st (m : _ mvar) v_now =
  (match pop_putter m.mv_putters with
  | Some pt when interruptible_now pt.pt_thread ->
      interrupt st pt.pt_thread;
      ignore (mvar_remove st m v_now)
  | Some pt ->
      m.mv_contents <- Some pt.pt_value;
      wake st pt.pt_thread (Pure ()) pt.pt_frames
  | None -> m.mv_contents <- None);
  v_now

(* Insert into an empty MVar; a waiting taker receives the value directly
   and the box stays empty. *)
let rec mvar_insert st (m : _ mvar) v =
  match pop_taker m.mv_takers with
  | Some tk when interruptible_now tk.tk_thread ->
      interrupt st tk.tk_thread;
      mvar_insert st m v
  | Some tk ->
      m.mv_last_taker <- Some tk.tk_thread.t_id;
      wake st tk.tk_thread (Pure v) tk.tk_frames
  | None -> m.mv_contents <- Some v

(* --- One scheduler step -------------------------------------------------- *)

(* A step's next state is one 3-word [T_run] cell: all a step allocates
   beyond what the program asks for. A primitive returns its result [v];
   a [unit] one resumes with a static [Pure ()]. *)
let[@inline] return_value t v frames = t.t_state <- T_run (Pure v, frames)
let[@inline] return_unit t frames = t.t_state <- T_run (Pure (), frames)

let wait_mvar_id = function
  | On_take (m, _) -> Some m.mv_id
  | On_put (m, _) -> Some m.mv_id
  | On_sleep _ | On_fd _ | On_throw_to _ | On_get_char -> None

(* Park [t] over [frames], waiting on [w]. *)
let park st t frames w =
  if tracing st then
    emit st
      (Ev_blocked
         { tid = t.t_id; why = wait_reason_of w; mvar = wait_mvar_id w });
  t.t_blocked_count <- t.t_blocked_count + 1;
  t.t_state <- T_blocked (frames, w)

let exec_prim : type a. state -> thread -> a prim -> a frames -> unit =
 fun st t prim frames ->
  match prim with
  | Fork (name, body) ->
      let child =
        new_thread ~id:st.next_tid ~name
          ~mask:(if st.config.fork_inherits_mask then t.t_mask else Mask_none)
          ~dom:st.cur_dom
          (T_run (body, F_stop (fun _ -> ())))
      in
      add_thread st child;
      st.forks <- st.forks + 1;
      enqueue st child;
      if tracing st then
        emit st (Ev_fork { parent = t.t_id; child = child.t_id; name });
      return_value t child frames
  | My_tid -> return_value t t frames
  | New_mvar contents ->
      let m =
        {
          mv_id = st.next_mv;
          mv_contents = contents;
          mv_takers = Queue.create ();
          mv_putters = Queue.create ();
          mv_last_taker = None;
        }
      in
      st.next_mv <- st.next_mv + 1;
      return_value t m frames
  | Take_mvar m -> (
      match m.mv_contents with
      | Some v ->
          m.mv_last_taker <- Some t.t_id;
          return_value t (mvar_remove st m v) frames
      | None when interruptible_now t -> raise_into st t frames
      | None ->
          let tk =
            { tk_thread = t; tk_frames = frames; tk_cancelled = false }
          in
          park st t frames (On_take (m, tk));
          Queue.add tk m.mv_takers)
  | Put_mvar (m, v) -> (
      match m.mv_contents with
      | None ->
          mvar_insert st m v;
          return_unit t frames
      | Some _ when interruptible_now t -> raise_into st t frames
      | Some _ ->
          let pt =
            {
              pt_thread = t;
              pt_value = v;
              pt_frames = frames;
              pt_cancelled = false;
            }
          in
          park st t frames (On_put (m, pt));
          Queue.add pt m.mv_putters)
  | Try_take_mvar m -> (
      match m.mv_contents with
      | Some v ->
          m.mv_last_taker <- Some t.t_id;
          return_value t (Some (mvar_remove st m v)) frames
      | None -> return_value t None frames)
  | Try_put_mvar (m, v) -> (
      match m.mv_contents with
      | None ->
          mvar_insert st m v;
          return_value t true frames
      | Some _ -> return_value t false frames)
  | Throw_to (target, e) -> (
      match target.t_state with
      | T_dead _ -> return_unit t frames (* trivially succeeds (§5) *)
      | T_run _ | T_blocked _ ->
          if tracing st then
            emit st
              (Ev_throw_to { source = t.t_id; target = target.t_id; exn = e });
          if st.config.sync_throw_to then
            if target == t then
              (* §9: the synchronous version needs a special case for a
                 thread throwing to itself: raise immediately. *)
              t.t_state <- T_run (Throw_async e, frames)
            else begin
              (* Block first, then register, so that an immediate delivery
                 (blocked target) finds the sender already waiting. *)
              let entry = { p_exn = e; p_sender = Sender (t, frames) } in
              park st t frames (On_throw_to entry);
              post_now st target entry
            end
          else begin
            (* §8.2: place the exception on the target's pending queue and
               return immediately. *)
            post_now st target { p_exn = e; p_sender = No_sender };
            return_unit t frames
          end)
  | Sleep d when d <= 0 -> return_unit t frames
  | Sleep _ when interruptible_now t -> raise_into st t frames
  | Sleep d ->
      park st t frames
        (On_sleep
           (Timer_wheel.add st.wheel ~deadline:(st.now + d)
              (Tk_sleep { tm_thread = t; tm_frames = frames })))
  | Arm_timer d ->
      let id = st.next_timer in
      st.next_timer <- st.next_timer + 1;
      if d <= 0 then begin
        (* an expired deadline: the token is pending before the thread
           takes another interruptible step, exactly as if the wheel had
           fired at this instant *)
        post_now st t { p_exn = Timer_signal id; p_sender = No_sender };
        return_value t { th_id = id; th_entry = None } frames
      end
      else
        let entry =
          Timer_wheel.add st.wheel ~deadline:(st.now + d)
            (Tk_alarm { al_thread = t; al_id = id })
        in
        return_value t { th_id = id; th_entry = Some entry } frames
  | Cancel_timer h ->
      Option.iter (Timer_wheel.cancel st.wheel) h.th_entry;
      (* purge an already-fired-but-undelivered token: cancellation means
         "this deadline may no longer be observed", even if the wheel beat
         us to the pending queue *)
      t.t_pending <-
        List.filter
          (fun p ->
            match p.p_exn with
            | Timer_signal id -> id <> h.th_id
            | _ -> true)
          t.t_pending;
      return_unit t frames
  | Wait_fd _ when interruptible_now t -> raise_into st t frames
  | Wait_fd (fd, dir) ->
      let w =
        {
          fw_thread = t;
          fw_frames = frames;
          fw_fd = fd;
          fw_dir = dir;
          fw_cancelled = false;
        }
      in
      park st t frames (On_fd w);
      let tbl =
        match dir with Fd_read -> st.fd_readers | Fd_write -> st.fd_writers
      in
      Queue.add w (fd_queue tbl fd);
      st.fd_live <- st.fd_live + 1;
      update_interest st fd
  | Yield -> return_unit t frames
  | Now -> return_value t st.now frames
  | Put_char c ->
      Buffer.add_char st.output c;
      return_unit t frames
  | Put_string s ->
      Buffer.add_string st.output s;
      return_unit t frames
  | Get_char -> (
      match st.input with
      | c :: rest ->
          st.input <- rest;
          return_value t c frames
      | [] when interruptible_now t -> raise_into st t frames
      | [] -> park st t frames On_get_char)
  | Lift f -> return_value t (f ()) frames
  | Masked -> return_value t (t.t_mask <> Mask_none) frames
  | Mask_state -> return_value t t.t_mask frames
  | Steps -> return_value t st.steps frames
  | Status_of u ->
      return_value t
        (match u.t_state with
        | T_run _ -> Status_running
        | T_blocked (_, w) -> Status_blocked (wait_reason_of w)
        | T_dead _ -> Status_dead)
        frames
  | Frame_depth -> return_value t t.t_frame_depth frames
  | Domain_ix -> return_value t st.cur_dom frames

(* Install mask state [b], emitting the transition if it changes. *)
let[@inline] set_mask st t b =
  if t.t_mask <> b && tracing st then
    emit st (Ev_mask { tid = t.t_id; masked = b <> Mask_none });
  t.t_mask <- b

let enter_mask st t new_mask body frames =
  if t.t_mask = new_mask then t.t_state <- T_run (body, frames)
  else begin
    let old_mask = t.t_mask in
    set_mask st t new_mask;
    match frames with
    | F_mask (b, rest) when st.config.Config.collapse_mask_frames && b = new_mask ->
        (* §8.1: the frame on top would restore exactly the state we just
           set — remove it instead of pushing its cancelling twin, so
           patterns like [let rec f = block (unblock f)] run in constant
           stack space. *)
        bump_depth t (-1);
        t.t_state <- T_run (body, rest)
    | _ ->
        bump_depth t 1;
        t.t_state <- T_run (body, F_mask (old_mask, frames))
  end

(* Re-raise [e] into the next frame, keeping its synchrony. *)
let[@inline] rethrow t ~async e rest =
  t.t_state <- T_run ((if async then Throw_async e else Throw e), rest)

(* One unwinding step of a raised exception. [async] marks an
   asynchronously delivered one: the §9 "alerts" reading — plain [Catch]
   intercepts it, [Catch_sync] does not. *)
let unwind : type a. state -> thread -> async:bool -> exn -> a frames -> unit =
 fun st t ~async e frames ->
  match frames with
  | F_stop sink ->
      t.t_state <- T_dead (Some e);
      retire st t;
      if tracing st then emit st (Ev_exit { tid = t.t_id; uncaught = Some e });
      sink (Error e)
  | F_bind (_, rest) ->
      (* rule (Propagate) *)
      bump_depth t (-1);
      rethrow t ~async e rest
  | F_catch_sync (_, _, rest) when async ->
      (* alerts pass through synchronous-only handlers *)
      bump_depth t (-1);
      rethrow t ~async e rest
  | F_catch (h, saved_mask, rest) | F_catch_sync (h, saved_mask, rest) ->
      (* rule (Catch): the handler runs with the mask state saved when
         the catch frame was pushed (§8.1) *)
      bump_depth t (-1);
      set_mask st t saved_mask;
      t.t_state <- T_run (h e, rest)
  | F_mask (b, rest) ->
      (* rules (Block Throw)/(Unblock Throw) *)
      bump_depth t (-1);
      set_mask st t b;
      rethrow t ~async e rest

let exec_step : type a. state -> thread -> a io -> a frames -> unit =
 fun st t io frames ->
  match io with
  | Pure v -> (
      match frames with
      | F_stop sink ->
          t.t_state <- T_dead None;
          retire st t;
          if tracing st then
            emit st (Ev_exit { tid = t.t_id; uncaught = None });
          sink (Ok v)
      | F_bind (k, rest) ->
          bump_depth t (-1);
          t.t_state <- T_run (k v, rest)
      | F_catch (_, _, rest) | F_catch_sync (_, _, rest) ->
          (* rule (Handle) *)
          bump_depth t (-1);
          t.t_state <- T_run (io, rest)
      | F_mask (b, rest) ->
          (* rules (Block Return)/(Unblock Return) *)
          bump_depth t (-1);
          set_mask st t b;
          t.t_state <- T_run (io, rest))
  | Throw e -> unwind st t ~async:false e frames
  | Throw_async e -> unwind st t ~async:true e frames
  | Bind (m, k) ->
      bump_depth t 1;
      t.t_state <- T_run (m, F_bind (k, frames))
  | Catch (m, h) ->
      bump_depth t 1;
      t.t_state <- T_run (m, F_catch (h, t.t_mask, frames))
  | Catch_sync (m, h) ->
      bump_depth t 1;
      t.t_state <- T_run (m, F_catch_sync (h, t.t_mask, frames))
  | Mask (level, m) -> enter_mask st t level m frames
  | Mask_restore f ->
      let saved = t.t_mask in
      let level =
        match saved with
        | Mask_uninterruptible -> Mask_uninterruptible
        | Mask_none | Mask_block -> Mask_block
      in
      enter_mask st t level (f (fun m -> Mask (saved, m))) frames
  | Prim p -> exec_prim st t p frames

(* One step behind the §8.1 delivery check: a deliverable pending
   exception is raised into [frames] in place of the step. *)
let[@inline] checked_step st t io frames =
  if deliverable t then unwind st t ~async:true (deliver_pending st t) frames
  else exec_step st t io frames

(* Bump the global and per-thread step counters. *)
let[@inline] count_step st t =
  st.steps <- st.steps + 1;
  t.t_steps <- t.t_steps + 1

(* The fault-injection hook: consulted once per scheduler step (before the
   step executes) with the global step index and the thread about to run.
   Returning [Some (tid, e)] posts [e] on thread [tid]'s pending queue at
   exactly this step boundary — as if a [throw_to] from outside the program
   had landed here — so a sweep can place a kill at every program point. *)
let apply_injection st t =
  match st.config.Config.inject with
  | None -> ()
  | Some hook -> (
      match hook ~step:st.steps ~running:t.t_id with
      | None -> ()
      | Some (tid, e) -> (
          match find_thread st tid with
          | None -> ()
          | Some target -> (
              match target.t_state with
              | T_dead _ -> ()
              | T_run _ | T_blocked _ ->
                  st.injections <- st.injections + 1;
                  post_now st target { p_exn = e; p_sender = No_sender })))

(* Stamp the step journal with the thread about to run. *)
let[@inline] note_step st t =
  match st.config.Config.journal with
  | None -> ()
  | Some j -> Step_journal.note j ~step:st.steps ~running:t.t_id

(* Run one scheduling slice of [t]: the step-boundary delivery check of
   §8.1, then one step. *)
let run_slice st t =
  match t.t_state with
  | T_blocked _ | T_dead _ -> () (* stale queue entry *)
  | T_run (io, frames) ->
      note_step st t;
      apply_injection st t;
      count_step st t;
      checked_step st t io frames;
      (match t.t_state with
      | T_run _ -> enqueue st t
      | T_blocked _ | T_dead _ -> ())

(* Dequeue the next thread; the queue is known non-empty. Round-robin pops
   the head in O(1); the random policy draws a uniform index (O(1) length,
   no List.length walk) and removes it preserving the order of the rest,
   so the picked sequence for a given seed is exactly the seed runtime's. *)
let pick_nonempty st =
  match st.rng with
  | None -> Runq.pop st.runq
  | Some rng -> Runq.remove st.runq (Random.State.int rng (Runq.length st.runq))

(* One fired wheel entry: a sleeper wakes normally; an armed alarm posts
   its token to the arming thread (rule (Interrupt) if it is blocked). *)
let fire_timer st = function
  | Tk_sleep { tm_thread; tm_frames } -> wake st tm_thread (Pure ()) tm_frames
  | Tk_alarm { al_thread; al_id } -> (
      match al_thread.t_state with
      | T_dead _ -> ()
      | T_run _ | T_blocked _ ->
          post_now st al_thread
            { p_exn = Timer_signal al_id; p_sender = No_sender })

(* Advance the virtual clock to the earliest live deadline and wake every
   timer due at that instant. Returns false if no timer is pending. The
   wheel reproduces the seed's wake order (same-deadline cohorts in
   reverse insertion order), so the golden traces are unchanged. *)
let advance_clock st =
  match Timer_wheel.next_deadline st.wheel with
  | None -> false
  | Some earliest ->
      st.now <- max st.now earliest;
      if tracing st then emit st (Ev_clock { now = st.now });
      let fired = Timer_wheel.advance st.wheel ~now:st.now in
      List.iter (fire_timer st) fired;
      true

(* Readiness arrived for [fd]: wake every live waiter in FIFO order
   (level-triggered — a waiter that still cannot make progress re-arms). *)
let wake_fd_waiters st tbl fd =
  match Hashtbl.find_opt tbl fd with
  | None -> ()
  | Some q ->
      let woke = ref false in
      while not (Queue.is_empty q) do
        let w = Queue.pop q in
        if not w.fw_cancelled then begin
          st.fd_live <- st.fd_live - 1;
          woke := true;
          wake st w.fw_thread (Pure ()) w.fw_frames
        end
      done;
      if !woke then update_interest st fd

(* One pass over the event source: collect readiness (blocking until the
   wheel's next deadline when [blocking]), refresh the monotonic clock,
   and fire whatever became due. *)
let poll_event_source st es ~blocking =
  let timeout_us =
    if not blocking then Some 0
    else
      match Timer_wheel.next_deadline st.wheel with
      | Some nd -> Some (max 0 (nd - st.now))
      | None -> None
  in
  let evs = es.es_wait ~timeout_us in
  st.now <- max st.now (es.es_now ());
  List.iter
    (fun { fde_fd; fde_readable; fde_writable } ->
      if fde_readable then wake_fd_waiters st st.fd_readers fde_fd;
      if fde_writable then wake_fd_waiters st st.fd_writers fde_fd)
    evs;
  match Timer_wheel.advance st.wheel ~now:st.now with
  | [] -> ()
  | fired ->
      if tracing st then emit st (Ev_clock { now = st.now });
      List.iter (fire_timer st) fired

(* --- state construction, shared by all three engines --------------------- *)

let make_state config =
  let start_now =
    match config.Config.event_source with None -> 0 | Some es -> es.es_now ()
  in
  let st =
    {
      config;
      rng =
        (match config.Config.policy with
        | Config.Round_robin -> None
        | Config.Random seed -> Some (Random.State.make [| seed |]));
      now = start_now;
      runq = Runq.create ();
      threads = Array.make 16 vacant;
      live_threads = 0;
      stats = [||];
      max_depth = 0;
      wheel = Timer_wheel.create ~start:start_now ();
      fd_readers = Hashtbl.create 16;
      fd_writers = Hashtbl.create 16;
      fd_live = 0;
      next_timer = 0;
      input =
        List.init (String.length config.Config.input)
          (String.get config.Config.input);
      output = Buffer.create 64;
      steps = 0;
      next_tid = 0;
      next_mv = 0;
      forks = 1;
      injections = 0;
      finished = false;
      cur_dom = 0;
      poke = (fun _ -> ());
      enqueue_hook = (fun _ -> ());
    }
  in
  (* The default hook is the single-domain (and replay) scheduler: push
     the global run queue and stamp the thread with the domain the
     enqueueing step ran on — wakeup migration, exactly what a live
     domain's hook does to its own deque. *)
  st.enqueue_hook <-
    (fun t ->
      t.t_dom <- st.cur_dom;
      Runq.push st.runq t);
  st

let make_main st main_io result =
  let main_thread =
    new_thread ~id:0 ~name:(Some "main") ~mask:Mask_none ~dom:0
      (T_run
         ( main_io,
           F_stop
             (fun r ->
               result := Some r;
               st.finished <- true) ))
  in
  add_thread st main_thread;
  main_thread

(* The outcome of a run whose main thread finished. *)
let outcome_of result =
  match !result with
  | Some (Ok v) -> Value v
  | Some (Error e) -> Uncaught e
  | None -> assert false

(* The single-domain scheduling loop — the seed scheduler, also the
   continuation a replay falls back to when it diverges from its log. *)
let main_loop st config result =
  let outcome = ref Out_of_steps in
  let running = ref true in
  while !running do
    if st.finished then begin
      running := false;
      outcome := outcome_of result
    end
    else if st.steps >= config.Config.max_steps then begin
      running := false;
      outcome := Out_of_steps
    end
    else if not (Runq.is_empty st.runq) then begin
      run_slice st (pick_nonempty st);
      (* Under a real event source a busy scheduler must still notice
         readiness and due deadlines: a cheap non-blocking poll every
         1024 steps. Absent (the simulated runtime), this is free. *)
      match st.config.Config.event_source with
      | Some es when st.steps land 1023 = 0 ->
          poll_event_source st es ~blocking:false
      | Some _ | None -> ()
    end
    else begin
      match st.config.Config.event_source with
      | None ->
          if not (advance_clock st) then begin
            running := false;
            outcome := Deadlock
          end
      | Some es ->
          if st.fd_live = 0 && Timer_wheel.live st.wheel = 0 then begin
            running := false;
            outcome := Deadlock
          end
          else poll_event_source st es ~blocking:true
    end
  done;
  !outcome

let finish st ~outcome ?(domain_stats = []) ?replay_log
    ?(replay_diverged = false) () =
  fold_threads st (fun t () -> keep_stats st t) ();
  {
    outcome;
    output = Buffer.contents st.output;
    steps = st.steps;
    time = st.now;
    forks = st.forks;
    max_frame_depth = st.max_depth;
    thread_stats = List.init st.next_tid (thread_stat st);
    blocked_at_exit =
      (* the watchdog's wait graph: threads still blocked when the
         scheduler stopped, in ascending thread id. Under the [Deadlock]
         outcome this is every live thread (no one runnable, no timer
         pending); under the other outcomes it lists the threads a
         finished main left stranded. *)
      fold_threads st
        (fun t acc ->
          match t.t_state with
          | T_run _ | T_dead _ -> acc
          | T_blocked (_, w) ->
              let box m = (Some (m.mv_contents <> None), m.mv_last_taker) in
              let full, last =
                match w with
                | On_take (m, _) -> box m
                | On_put (m, _) -> box m
                | On_sleep _ | On_fd _ | On_throw_to _ | On_get_char ->
                    (None, None)
              in
              {
                bt_tid = t.t_id;
                bt_name = t.t_name;
                bt_why = wait_reason_of w;
                bt_mvar = wait_mvar_id w;
                bt_mvar_full = full;
                bt_last_taker = last;
                bt_fd = (match w with On_fd fw -> Some fw.fw_fd | _ -> None);
              }
              :: acc)
        [];
    injections = st.injections;
    domain_stats;
    replay_log;
    replay_diverged;
  }

let run_single config main_io =
  let result = ref None in
  let st = make_state config in
  let main_thread = make_main st main_io result in
  enqueue st main_thread;
  let outcome = main_loop st config result in
  finish st ~outcome ()

(* --- step classification -------------------------------------------------- *)

(* Is this step purely thread-local — touching only the thread's own
   continuation, mask, and frame counters? Local steps run outside the
   multi-domain shared-state lock and are replayed unsequenced: they
   commute with every other thread's steps. Everything else (MVar
   traffic, fork, throwTo, timers, console, [Lift], death at [F_stop])
   reads or writes shared scheduler state and must run under the lock,
   in a globally sequenced order. [Yield] is local but ends the segment
   (the scheduler switches threads). *)
let step_is_local : type a. a io -> a frames -> bool =
 fun io frames ->
  match io with
  | Pure _ | Throw _ | Throw_async _ -> (
      match frames with
      | F_stop _ -> false (* thread exit publishes to the result sink *)
      | F_bind _ | F_catch _ | F_catch_sync _ | F_mask _ -> true)
  | Bind _ | Catch _ | Catch_sync _ | Mask _ | Mask_restore _ -> true
  | Prim p -> (
      match p with
      | My_tid | Masked | Mask_state | Frame_depth | Yield -> true
      | _ -> false)

(* --- the multi-domain work-stealing engine -------------------------------- *)

module Rlog = Step_journal.Replay

type dom_ctx = {
  d_ix : int;
  d_deque : thread Runq.t;  (* owner pops head; thieves pop the back *)
  d_lock : Mutex.t;  (* guards [d_deque] only *)
  d_poke : bool Atomic.t;  (* "a thread you run got a pending entry" *)
  d_buf : Rlog.buf;  (* this domain's replay records *)
  mutable d_steps : int;  (* steps executed by this domain *)
  mutable d_flushed : int;  (* portion already folded into [st.steps] *)
  mutable d_steals : int;
  mutable d_victim : int;  (* steal rotor *)
  mutable d_enq : thread -> unit;  (* [enqueue_hook] while this domain
                                      holds the shared-state lock *)
}

type multi = {
  m_gl : Mutex.t;  (* the shared-state lock: all sequenced steps *)
  m_cond : Condition.t;  (* idle domains park here *)
  m_doms : dom_ctx array;
  mutable m_seq : int;  (* global sequence counter (under the lock) *)
  mutable m_runnable : int;  (* queued + running threads (under the lock) *)
  m_stop : bool Atomic.t;
  mutable m_idlers : int;  (* under the lock *)
  mutable m_late : [ `Deadlock | `Out_of_steps ] option;  (* under the lock *)
  m_fatal : exn option Atomic.t;  (* a domain crashed (runtime bug) *)
}

let quantum = 64 (* steps one thread may run before requeueing *)
let local_flush = 1024 (* local steps between global-budget flushes *)

(* Take the shared-state lock for domain [d]: subsequent shared-state
   mutations (wakeups, forks) must attribute to this domain. *)
let lock_shared st m d =
  Mutex.lock m.m_gl;
  st.cur_dom <- d.d_ix;
  st.enqueue_hook <- d.d_enq

let next_seq m =
  let s = m.m_seq in
  m.m_seq <- s + 1;
  s

(* Append one record to this domain's replay buffer. [seq] is the global
   sequence number, taken under the shared-state lock ([next_seq]), or 0
   for an unsequenced [K_end]. *)
let record d kind ~tid ~tseq ~steps ~seq =
  Rlog.buf_add d.d_buf
    {
      Rlog.r_kind = kind;
      r_dom = d.d_ix;
      r_tid = tid;
      r_tseq = tseq;
      r_steps = steps;
      r_seq = seq;
    }

let flush_steps st d =
  if d.d_steps > d.d_flushed then begin
    st.steps <- st.steps + (d.d_steps - d.d_flushed);
    d.d_flushed <- d.d_steps
  end

(* Callers hold the shared-state lock (except the fatal path, where the
   lost-wakeup race does not matter: every domain is about to die). *)
let stop_multi m =
  if not (Atomic.get m.m_stop) then begin
    Atomic.set m.m_stop true;
    Condition.broadcast m.m_cond
  end

(* The [max_steps] budget stop, under the lock after a flush. *)
let check_budget st m =
  if st.steps >= st.config.Config.max_steps && not (Atomic.get m.m_stop)
  then begin
    m.m_late <- Some `Out_of_steps;
    stop_multi m
  end

(* No runnable thread anywhere (under the lock): either finish, advance
   the virtual clock, or declare deadlock. *)
let quiesce st m d =
  if not (Atomic.get m.m_stop) then begin
    if st.finished then stop_multi m
    else if Timer_wheel.next_deadline st.wheel <> None then begin
      record d Rlog.K_clock ~tid:0 ~tseq:0 ~steps:0 ~seq:(next_seq m);
      ignore (advance_clock st)
    end
    else begin
      m.m_late <- Some `Deadlock;
      stop_multi m
    end
  end

let requeue d t =
  Mutex.lock d.d_lock;
  Runq.push d.d_deque t;
  Mutex.unlock d.d_lock

(* A sequenced step boundary: take the lock, re-run the §8.1 delivery
   check authoritatively, execute the one shared-state step (or the
   delivery that preempts it), and record the segment. Returns whether
   the thread is still runnable. *)
let boundary st m d t io frames seg =
  lock_shared st m d;
  let deliver = deliverable t in
  d.d_steps <- d.d_steps + 1;
  t.t_steps <- t.t_steps + 1;
  flush_steps st d;
  (try checked_step st t io frames
   with e ->
     Mutex.unlock m.m_gl;
     raise e);
  t.t_tseq <- t.t_tseq + 1;
  record d
    (if deliver then Rlog.K_deliver else Rlog.K_op)
    ~tid:t.t_id ~tseq:t.t_tseq ~steps:(seg + 1) ~seq:(next_seq m);
  let still =
    match t.t_state with T_run _ -> true | T_blocked _ | T_dead _ -> false
  in
  if not still then begin
    m.m_runnable <- m.m_runnable - 1;
    if m.m_runnable = 0 then quiesce st m d
  end;
  if st.finished then stop_multi m else check_budget st m;
  Mutex.unlock m.m_gl;
  still

(* Close the open local segment so the record stream stays replayable. *)
let end_segment d t seg =
  if seg > 0 then begin
    t.t_tseq <- t.t_tseq + 1;
    record d Rlog.K_end ~tid:t.t_id ~tseq:t.t_tseq ~steps:seg ~seq:0
  end

(* Run one thread for up to a quantum: purely local steps execute
   lock-free; the delivery check and every shared-state step go through
   [boundary]. *)
let run_thread st m d t =
  let total = ref 0 and seg = ref 0 in
  let running = ref true in
  (* Close the open segment and put the thread back on our deque. *)
  let hand_back () =
    end_segment d t !seg;
    requeue d t;
    running := false
  in
  while !running do
    (* The poke's atomic read is the acquire that makes a pending entry
       another domain appended (under the lock, then poked) visible to
       the advisory [deliverable] read below within one step; without a
       poke, the read is synchronized by the next lock acquisition
       ([boundary], or a [local_flush]). [boundary] re-checks
       authoritatively under the lock. *)
    if Atomic.get d.d_poke then Atomic.set d.d_poke false;
    match t.t_state with
    | T_blocked _ | T_dead _ -> running := false
    | T_run (io, frames) ->
        if deliverable t || not (step_is_local io frames) then begin
          let still = boundary st m d t io frames !seg in
          seg := 0;
          incr total;
          if (not still) || Atomic.get m.m_stop then running := false
          else if !total >= quantum then hand_back ()
        end
        else begin
          d.d_steps <- d.d_steps + 1;
          t.t_steps <- t.t_steps + 1;
          incr seg;
          incr total;
          let yielded = match io with Prim Yield -> true | _ -> false in
          exec_step st t io frames;
          if yielded || !total >= quantum then hand_back ()
          else if d.d_steps - d.d_flushed >= local_flush then begin
            (* A long purely-local stretch: fold the step count into the
               global budget so [max_steps] still bounds local livelock. *)
            lock_shared st m d;
            flush_steps st d;
            check_budget st m;
            Mutex.unlock m.m_gl;
            if Atomic.get m.m_stop then hand_back ()
          end
        end
  done

(* Steal half the victim's deque, oldest entries first (the back of the
   ring is the freshest work; taking from the back keeps the owner's
   round-robin head contention-free, Chase–Lev style). *)
let try_steal st m d =
  let n = Array.length m.m_doms in
  let found = ref false in
  for k = 0 to n - 1 do
    if not !found then begin
      let v = m.m_doms.((d.d_victim + k) mod n) in
      if v.d_ix <> d.d_ix && Runq.length v.d_deque > 0 then begin
        lock_shared st m d;
        Mutex.lock v.d_lock;
        let half = (Runq.length v.d_deque + 1) / 2 in
        for _ = 1 to half do
          if not (Runq.is_empty v.d_deque) then begin
            let t = Runq.pop_back v.d_deque in
            t.t_dom <- d.d_ix;
            d.d_steals <- d.d_steals + 1;
            requeue d t;
            found := true
          end
        done;
        Mutex.unlock v.d_lock;
        Mutex.unlock m.m_gl
      end
    end
  done;
  d.d_victim <- (d.d_victim + 1) mod n;
  !found

let pop_own d =
  Mutex.lock d.d_lock;
  let t =
    if Runq.is_empty d.d_deque then None else Some (Runq.pop d.d_deque)
  in
  Mutex.unlock d.d_lock;
  t

(* Nothing to run, nothing to steal: either detect quiescence (this
   domain runs the clock/deadlock decision) or park on the condition
   until a producer signals. *)
let idle st m d =
  lock_shared st m d;
  let work =
    Runq.length d.d_deque > 0
    || Array.exists
         (fun v -> v.d_ix <> d.d_ix && Runq.length v.d_deque > 0)
         m.m_doms
  in
  if work || Atomic.get m.m_stop then Mutex.unlock m.m_gl
  else if m.m_runnable = 0 then begin
    quiesce st m d;
    Mutex.unlock m.m_gl
  end
  else begin
    m.m_idlers <- m.m_idlers + 1;
    Condition.wait m.m_cond m.m_gl;
    m.m_idlers <- m.m_idlers - 1;
    Mutex.unlock m.m_gl
  end

let rec dom_loop st m d =
  if not (Atomic.get m.m_stop) then begin
    (match pop_own d with
    | Some t -> run_thread st m d t
    | None -> if not (try_steal st m d) then idle st m d);
    dom_loop st m d
  end

let run_multi config main_io =
  let ndom = config.Config.domains in
  if config.Config.tracer <> None then
    invalid_arg
      "Runtime.run: tracer is unsupported with domains > 1 (record a replay \
       log and trace the replay)";
  if config.Config.inject <> None then
    invalid_arg
      "Runtime.run: inject is unsupported with domains > 1 (inject into a \
       replay instead)";
  if config.Config.event_source <> None then
    invalid_arg "Runtime.run: event_source is unsupported with domains > 1";
  (match config.Config.policy with
  | Config.Round_robin -> ()
  | Config.Random _ ->
      invalid_arg "Runtime.run: the Random policy is unsupported with \
                   domains > 1");
  let result = ref None in
  let st = make_state config in
  let doms =
    Array.init ndom (fun i ->
        {
          d_ix = i;
          d_deque = Runq.create ();
          d_lock = Mutex.create ();
          d_poke = Atomic.make false;
          d_buf = Rlog.buf_create ();
          d_steps = 0;
          d_flushed = 0;
          d_steals = 0;
          d_victim = (i + 1) mod ndom;
          d_enq = ignore;
        })
  in
  let m =
    {
      m_gl = Mutex.create ();
      m_cond = Condition.create ();
      m_doms = doms;
      m_seq = 0;
      m_runnable = 0;
      m_stop = Atomic.make false;
      m_idlers = 0;
      m_late = None;
      m_fatal = Atomic.make None;
    }
  in
  Array.iter
    (fun d ->
      d.d_enq <-
        (fun t ->
          t.t_dom <- d.d_ix;
          m.m_runnable <- m.m_runnable + 1;
          requeue d t;
          if m.m_idlers > 0 then Condition.signal m.m_cond))
    doms;
  st.poke <- (fun i -> Atomic.set doms.(i).d_poke true);
  let main_thread = make_main st main_io result in
  doms.(0).d_enq main_thread;
  let worker d () =
    try dom_loop st m d
    with e ->
      ignore (Atomic.compare_and_set m.m_fatal None (Some e));
      stop_multi m
  in
  let spawned =
    Array.init (ndom - 1) (fun i -> Domain.spawn (worker doms.(i + 1)))
  in
  worker doms.(0) ();
  Array.iter Domain.join spawned;
  (match Atomic.get m.m_fatal with Some e -> raise e | None -> ());
  Array.iter (fun d -> flush_steps st d) doms;
  let log = Rlog.merge ~domains:ndom (Array.map (fun d -> d.d_buf) doms) in
  (* Synthesize the per-step journal the replay of this log writes: one
     note per executed step, in merged (replay) order. *)
  (match config.Config.journal with
  | None -> ()
  | Some j ->
      let step = ref 0 in
      Array.iter
        (fun r ->
          match r.Rlog.r_kind with
          | Rlog.K_op | Rlog.K_deliver | Rlog.K_end ->
              for _ = 1 to r.Rlog.r_steps do
                Step_journal.note j ~step:!step ~running:r.Rlog.r_tid;
                incr step
              done
          | Rlog.K_clock -> ())
        log.Rlog.records);
  let outcome =
    if st.finished then outcome_of result
    else
      match m.m_late with
      | Some `Deadlock -> Deadlock
      | Some `Out_of_steps | None -> Out_of_steps
  in
  let domain_stats =
    Array.to_list
      (Array.map
         (fun d ->
           let recs =
             Array.fold_left
               (fun acc r -> if r.Rlog.r_dom = d.d_ix then acc + 1 else acc)
               0 log.Rlog.records
           in
           {
             ds_dom = d.d_ix;
             ds_steps = d.d_steps;
             ds_steals = d.d_steals;
             ds_records = recs;
           })
         doms)
  in
  finish st ~outcome ~domain_stats ~replay_log:log ()

(* --- deterministic replay ------------------------------------------------- *)

(* Re-execute a recorded multi-domain run on one domain by walking the
   merged record stream. The log pins every scheduling decision; the
   thread-local steps in between are deterministic given the decisions,
   so the replay reproduces the run exactly — outcome, output, ids,
   per-thread statistics.

   The replay is {e lenient}: if the program's behavior does not match
   the log (the program changed, or a fault-injection hook perturbed the
   run — that is how the kill sweep explores schedules recorded from a
   live multi-domain run), the replay notes the divergence and continues
   under the free single-domain round-robin scheduler from the exact
   divergence state, which is still fully deterministic. *)
let run_replay config log main_io =
  if config.Config.event_source <> None then
    invalid_arg "Runtime.run: event_source is unsupported under replay";
  let result = ref None in
  let st = make_state config in
  enqueue st (make_main st main_io result);
  let diverged = ref false in
  let records = log.Rlog.records in
  let nrec = Array.length records in
  let ri = ref 0 in
  while (not !diverged) && !ri < nrec do
    let r = records.(!ri) in
    incr ri;
    st.cur_dom <- r.Rlog.r_dom;
    match r.Rlog.r_kind with
    | Rlog.K_clock -> if not (advance_clock st) then diverged := true
    | Rlog.K_op | Rlog.K_deliver | Rlog.K_end -> (
        match find_thread st r.Rlog.r_tid with
        | None -> diverged := true
        | Some t ->
            let k = r.Rlog.r_steps in
            let j = ref 0 in
            while (not !diverged) && !j < k do
              incr j;
              let last = !j = k in
              match t.t_state with
              | T_blocked _ | T_dead _ -> diverged := true
              | T_run (io, frames) ->
                  note_step st t;
                  let before = st.injections in
                  apply_injection st t;
                  if st.injections > before then begin
                    (* The fault hook perturbed the run: execute this one
                       step with full single-domain semantics (delivery
                       check included) and hand over to the free
                       scheduler. *)
                    count_step st t;
                    checked_step st t io frames;
                    diverged := true
                  end
                  else if last && r.Rlog.r_kind = Rlog.K_deliver then
                    if deliverable t then begin
                      count_step st t;
                      checked_step st t io frames
                    end
                    else diverged := true
                  else begin
                    (* A recorded plain step: local everywhere except the
                       sequenced step a [K_op] segment ends in. Pending
                       exceptions wait for their recorded [K_deliver] —
                       live domains notice cross-domain posts with the
                       same bounded lag. *)
                    let sequenced = last && r.Rlog.r_kind = Rlog.K_op in
                    if step_is_local io frames = sequenced then
                      diverged := true
                    else begin
                      count_step st t;
                      exec_step st t io frames
                    end
                  end
            done)
  done;
  if st.finished && not !diverged then
    finish st ~outcome:(outcome_of result) ~replay_log:log ()
  else
    let runnable =
      fold_threads st
        (fun u acc -> match u.t_state with T_run _ -> u :: acc | _ -> acc)
        []
    in
    if !diverged then begin
      (* Continue under the free single-domain scheduler from the exact
         divergence state, the runnable threads queued in tid order. *)
      st.cur_dom <- 0;
      st.runq <- Runq.create ();
      List.iter (Runq.push st.runq) runnable;
      let outcome = main_loop st config result in
      finish st ~outcome ~replay_log:log ~replay_diverged:true ()
    end
    else
      (* Log exhausted without finishing: reproduce how the recorded run
         stopped. *)
      let outcome =
        if runnable <> [] || Timer_wheel.next_deadline st.wheel <> None then
          Out_of_steps
        else Deadlock
      in
      finish st ~outcome ~replay_log:log ()

let run ?(config = Config.default) main_io =
  if config.Config.domains < 1 then
    invalid_arg "Runtime.run: domains must be >= 1";
  match config.Config.replay with
  | Some log -> run_replay config log main_io
  | None ->
      if config.Config.domains > 1 then run_multi config main_io
      else run_single config main_io

let pp_outcome pp_value ppf = function
  | Value v -> Fmt.pf ppf "Value %a" pp_value v
  | Uncaught e -> Fmt.pf ppf "Uncaught %s" (Printexc.to_string e)
  | Deadlock -> Fmt.string ppf "Deadlock"
  | Out_of_steps -> Fmt.string ppf "Out_of_steps"
