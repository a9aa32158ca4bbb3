(* Internal shared representation of the hio runtime. Not part of the
   public API: use {!Io}, {!Mvar} and {!Runtime}.

   This module is the paper's §8 made concrete:
   - threads carry a mask flag and a queue of pending asynchronous
     exceptions;
   - each thread's continuation is an explicit stack of frames; catch
     frames record the mask state at push time, and mask frames restore it
     on normal or exceptional exit (with the §8.1 adjacent-frame collapse);
   - blocked threads can be woken normally or by raising an asynchronous
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

(* A handle returned by [Arm_timer]. [th_cancel] is installed by the
   runtime (it closes over the wheel entry); the id is the token's
   payload. *)
and timer_handle = { th_id : int; mutable th_cancel : unit -> unit }

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

and packed = Pack : 'a io * 'a frames -> packed

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
  mutable p_on_delivered : (unit -> unit) option;
      (* synchronous throwTo (§9): wake the sender once raised; cleared if
         the sender is itself interrupted while waiting *)
}

and t_state =
  | T_run of packed
  | T_blocked of blocked
  | T_dead of exn option  (* [Some e]: died from uncaught exception [e] *)

and blocked = {
  b_why : wait_reason;
  b_interrupt : exn -> packed;
      (* resume by raising: implements rule (Interrupt) *)
  b_cancel : unit -> unit;  (* withdraw the registration (waiter/timer) *)
  b_on : ex_mvar option;
      (* the MVar this thread waits on, if any — the edge the deadlock
         watchdog's wait graph is built from *)
  b_fd : int option;
      (* the fd this thread waits on, for the event-manager wait reasons —
         the watchdog names it the way it names MVars *)
}

(* An MVar with its element type hidden: what a blocked thread can record
   about the box it waits on without infecting [blocked] with a type
   parameter. *)
and ex_mvar = Ex_mvar : 'a mvar -> ex_mvar

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
  tk_wake : 'a -> packed;
  tk_raise : exn -> packed;
  mutable tk_cancelled : bool;
}

and 'a putter = {
  pt_thread : thread;
  pt_value : 'a;
  pt_wake : unit -> packed;
  pt_raise : exn -> packed;
  mutable pt_cancelled : bool;
}

let frames_depth frames =
  let rec go : type a. int -> a frames -> int =
   fun acc -> function
    | F_stop _ -> acc
    | F_bind (_, rest) -> go (acc + 1) rest
    | F_catch (_, _, rest) -> go (acc + 1) rest
    | F_catch_sync (_, _, rest) -> go (acc + 1) rest
    | F_mask (_, rest) -> go (acc + 1) rest
  in
  go 0 frames
