(* Internal shared representation of the hio runtime. Not part of the
   public API: use {!Io}, {!Mvar} and {!Runtime}.

   This module is the paper's §8 made concrete:
   - threads carry a mask flag and a queue of pending asynchronous
     exceptions;
   - each thread's continuation is an explicit stack of frames; catch
     frames record the mask state at push time, and mask frames restore it
     on normal or exceptional exit (with the §8.1 adjacent-frame collapse);
   - a thread's state is that stack of frames, updated in place: one
     flat [T_run] cell per step; the only closures in a running or
     blocked state are the program's own, inside its frames;
   - blocked threads keep their frames and can be woken normally (each
     waiter holds the frames it resumes) or by raising an asynchronous
     exception into them ((Interrupt) of Figure 5), in any masking
     context. *)

(* Three-level interrupt mask: the paper has two ([block]/[unblock]);
   [Mask_uninterruptible] is the post-paper GHC extension
   (uninterruptibleMask) under which even interruptible operations defer
   delivery — see Io.uninterruptibly. *)
type mask_level = Mask_none | Mask_block | Mask_uninterruptible

(* The closed set of reasons a thread can block. This used to be a
   free-form string ("takeMVar", "sleep", …); a variant means a new
   blocking primitive (the event manager's fd waits) cannot silently miss
   the deadlock watchdog's wait graph or the observability layer — the
   compiler forces every consumer to say what it does with the new
   reason. [wait_reason_label] renders the exact legacy strings, so every
   golden trace is byte-identical. *)
type wait_reason =
  | W_take_mvar
  | W_put_mvar
  | W_sleep
  | W_get_char
  | W_throw_to  (* the §9 synchronous throwTo waiting for delivery *)
  | W_fd_read  (* event manager: fd not yet readable *)
  | W_fd_write  (* event manager: fd not yet writable *)

let wait_reason_label = function
  | W_take_mvar -> "takeMVar"
  | W_put_mvar -> "putMVar"
  | W_sleep -> "sleep"
  | W_get_char -> "getChar"
  | W_throw_to -> "throwTo"
  | W_fd_read -> "fdRead"
  | W_fd_write -> "fdWrite"

(* Which readiness a [Wait_fd] is asking the event manager for. *)
type fd_dir = Fd_read | Fd_write

(* The asynchronous token a fired [Arm_timer] posts to the arming thread:
   carries the handle's unique id so nested timeouts cannot confuse each
   other's deadlines (§7.3 composability). *)
exception Timer_signal of int

type _ io =
  | Pure : 'a -> 'a io
  | Bind : 'a io * ('a -> 'b io) -> 'b io
  | Catch : 'a io * (exn -> 'a io) -> 'a io
  | Catch_sync : 'a io * (exn -> 'a io) -> 'a io
      (* the §9 "alerts" alternative: does not intercept asynchronously
         delivered exceptions *)
  | Mask : mask_level * 'a io -> 'a io
      (* [block] = Mask_block, [unblock] = Mask_none,
         [uninterruptibly] = Mask_uninterruptible *)
  | Mask_restore : (('a io -> 'a io) -> 'b io) -> 'b io
      (* the restore-passing [mask]: read the current level, enter
         Mask_block (or stay uninterruptible) and hand the body a restore
         function re-installing the saved level — in ONE scheduler step,
         so no asynchronous exception can land between reading the state
         and masking (combinators rely on that atomicity for "either the
         action never started or the cleanup runs") *)
  | Throw : exn -> 'a io
  | Throw_async : exn -> 'a io
      (* internal: an exception in flight that was delivered
         asynchronously; skips [F_catch_sync] frames *)
  | Prim : 'a prim -> 'a io

and _ prim =
  | Fork : string option * unit io -> thread prim
  | My_tid : thread prim
  | New_mvar : 'a option -> 'a mvar prim
  | Take_mvar : 'a mvar -> 'a prim
  | Put_mvar : 'a mvar * 'a -> unit prim
  | Try_take_mvar : 'a mvar -> 'a option prim
  | Try_put_mvar : 'a mvar * 'a -> bool prim
  | Throw_to : thread * exn -> unit prim
  | Sleep : int -> unit prim
  | Arm_timer : int -> timer_handle prim
      (* arm a timer-wheel deadline [d] µs out; when it fires, a
         [Timer_signal id] token is posted to {e this} thread's pending
         queue (waking it by rule (Interrupt) if blocked). A delay <= 0
         posts the token immediately. *)
  | Cancel_timer : timer_handle -> unit prim
      (* withdraw the wheel entry AND purge any not-yet-delivered
         [Timer_signal id] token from this thread's pending queue — no
         ghost wakeups after the race where the action finished at the
         same instant the deadline fired *)
  | Wait_fd : int * fd_dir -> unit prim
      (* block (interruptibly) until the event manager reports the fd
         ready in the given direction; without a configured event source
         this waits forever (and shows in the deadlock report) *)
  | Yield : unit prim
  | Now : int prim
  | Put_char : char -> unit prim
  | Put_string : string -> unit prim
  | Get_char : char prim
  | Lift : (unit -> 'a) -> 'a prim
  | Masked : bool prim
  | Mask_state : mask_level prim
  | Steps : int prim
  | Status_of : thread -> status prim
  | Frame_depth : int prim
  | Domain_ix : int prim
      (* the index of the scheduler domain executing this step (always 0
         on a single-domain run). A sequenced step: under replay the
         recorded domain is reported, so a program that printed its
         domain placement replays byte-identically on one domain. *)

and status = Status_running | Status_blocked of wait_reason | Status_dead

(* A handle returned by [Arm_timer]: the token's id and the wheel entry
   [Cancel_timer] withdraws ([None] when the deadline had already
   passed and the token was posted at once). *)
and timer_handle = {
  th_id : int;
  th_entry : timer_kind Timer_wheel.entry option;
}

(* Continuation frames. [F_catch] records the mask state when pushed
   (paper §8.1: "extend the catch frame to include the state of
   asynchronous exceptions"); [F_mask b] restores mask state [b] when
   returned to, normally or exceptionally. *)
and _ frames =
  | F_stop : (('a, exn) result -> unit) -> 'a frames
  | F_bind : ('a -> 'b io) * 'b frames -> 'a frames
  | F_catch : (exn -> 'a io) * mask_level * 'a frames -> 'a frames
  | F_catch_sync : (exn -> 'a io) * mask_level * 'a frames -> 'a frames
  | F_mask : mask_level * 'a frames -> 'a frames

and thread = {
  t_id : int;
  t_name : string option;
  mutable t_mask : mask_level;
  mutable t_pending : pending list;  (* FIFO: head delivered first *)
  mutable t_state : t_state;
  mutable t_frame_depth : int;
  mutable t_max_frame_depth : int;
  (* per-thread step accounting, reported in [Runtime.result]: cheap
     counters bumped on the scheduler hot path *)
  mutable t_steps : int;  (* scheduler steps executed by this thread *)
  mutable t_blocked_count : int;  (* times this thread went T_blocked *)
  mutable t_delivered : int;  (* async exceptions raised into this thread *)
  (* multi-domain scheduling state. [t_dom] is the domain whose deque
     the thread was last pushed to (or that stole it) — written only
     under the shared-state lock or by the stealing domain holding it,
     and read under the same lock by [post_now], which pokes that domain
     when a post for a running thread comes from another. [t_tseq]
     counts this thread's replay-log records (written only by the domain
     currently running the thread). *)
  mutable t_dom : int;
  mutable t_tseq : int;
}

and pending = {
  p_exn : exn;
  mutable p_sender : sender;
      (* synchronous throwTo (§9): the sender to wake once raised; cleared
         if the sender is itself interrupted while waiting *)
}

and sender = No_sender | Sender of thread * unit frames

(* A thread's state is its continuation, updated in place (§8): a
   running thread holds the term it steps next and the frames that term
   returns into, a blocked one the frames rule (Interrupt) raises into.
   The element type is hidden, so each step replaces one 3-word cell,
   and the runtime adds no closure of its own to either state. *)
and t_state =
  | T_run : 'a io * 'a frames -> t_state
  | T_blocked : 'a frames * wait -> t_state
  | T_dead : exn option -> t_state
      (* [Some e]: died from uncaught exception [e] *)

(* What a blocked thread waits on: the registration rule (Interrupt)
   withdraws, and what the deadlock watchdog's wait graph reports. Each
   waiter holds the frames a normal wakeup resumes, typed by the value it
   resumes with. *)
and wait =
  | On_take : 'a mvar * 'a taker -> wait
  | On_put : 'a mvar * 'a putter -> wait
  | On_sleep : timer_kind Timer_wheel.entry -> wait
  | On_fd : fd_waiter -> wait
  | On_throw_to : pending -> wait  (* the §9 synchronous throwTo *)
  | On_get_char : wait

(* A timer-wheel payload: either a sleeping thread to wake normally, or
   an armed [Arm_timer] deadline whose token is posted asynchronously. *)
and timer_kind =
  | Tk_sleep of { tm_thread : thread; tm_frames : unit frames }
  | Tk_alarm of { al_thread : thread; al_id : int }

(* One thread parked in [Wait_fd], queued FIFO per (fd, direction). *)
and fd_waiter = {
  fw_thread : thread;
  fw_frames : unit frames;
  fw_fd : int;
  fw_dir : fd_dir;
  mutable fw_cancelled : bool;
}

and 'a mvar = {
  mv_id : int;
  mutable mv_contents : 'a option;
  mv_takers : 'a taker Queue.t;
  mv_putters : 'a putter Queue.t;
  mutable mv_last_taker : int option;
      (* tid that last emptied the box — for lock-style MVars this is the
         current holder, which is what the wait graph wants to name *)
}

and 'a taker = {
  tk_thread : thread;
  tk_frames : 'a frames;
  mutable tk_cancelled : bool;
}

and 'a putter = {
  pt_thread : thread;
  pt_value : 'a;
  pt_frames : unit frames;
  mutable pt_cancelled : bool;
}

let wait_reason_of = function
  | On_take _ -> W_take_mvar
  | On_put _ -> W_put_mvar
  | On_sleep _ -> W_sleep
  | On_fd { fw_dir = Fd_read; _ } -> W_fd_read
  | On_fd { fw_dir = Fd_write; _ } -> W_fd_write
  | On_throw_to _ -> W_throw_to
  | On_get_char -> W_get_char
