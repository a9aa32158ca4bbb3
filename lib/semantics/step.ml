open Ch_lang
open Ch_lang.Term
open Context

type rule =
  | R_bind
  | R_put_char
  | R_get_char
  | R_sleep
  | R_put_mvar
  | R_take_mvar
  | R_new_mvar
  | R_fork
  | R_thread_id
  | R_propagate
  | R_catch
  | R_handle
  | R_return_gc
  | R_throw_gc
  | R_proc_gc
  | R_eval
  | R_raise
  | R_block_return
  | R_unblock_return
  | R_block_throw
  | R_unblock_throw
  | R_throw_to
  | R_receive
  | R_interrupt
  | R_stuck_put_char
  | R_stuck_get_char
  | R_stuck_sleep
  | R_stuck_put_mvar
  | R_stuck_take_mvar
  | R_kill

let rule_name = function
  | R_bind -> "(Bind)"
  | R_put_char -> "(PutChar)"
  | R_get_char -> "(GetChar)"
  | R_sleep -> "(Sleep)"
  | R_put_mvar -> "(PutMVar)"
  | R_take_mvar -> "(TakeMVar)"
  | R_new_mvar -> "(NewMVar)"
  | R_fork -> "(Fork)"
  | R_thread_id -> "(ThreadId)"
  | R_propagate -> "(Propagate)"
  | R_catch -> "(Catch)"
  | R_handle -> "(Handle)"
  | R_return_gc -> "(Return GC)"
  | R_throw_gc -> "(Throw GC)"
  | R_proc_gc -> "(Proc GC)"
  | R_eval -> "(Eval)"
  | R_raise -> "(Raise)"
  | R_block_return -> "(Block Return)"
  | R_unblock_return -> "(Unblock Return)"
  | R_block_throw -> "(Block Throw)"
  | R_unblock_throw -> "(Unblock Throw)"
  | R_throw_to -> "(ThrowTo)"
  | R_receive -> "(Receive)"
  | R_interrupt -> "(Interrupt)"
  | R_stuck_put_char -> "(Stuck PutChar)"
  | R_stuck_get_char -> "(Stuck GetChar)"
  | R_stuck_sleep -> "(Stuck Sleep)"
  | R_stuck_put_mvar -> "(Stuck PutMVar)"
  | R_stuck_take_mvar -> "(Stuck TakeMVar)"
  | R_kill -> "(Kill)"

type label = Out_char of char | In_char of char | Time of int
type actor = Thread_step of Term.tid | Delivery of int | Global

type transition = {
  rule : rule;
  actor : actor;
  label : label option;
  next : State.t;
}

type config = {
  fuel : int;
  fork_inherits_mask : bool;
  stuck_io : bool;
}

let default_config =
  {
    fuel = Ch_pure.Eval.default_fuel;
    fork_inherits_mask = false;
    stuck_io = true;
  }

(* Transitions of one thread's evaluation site. Action rules apply to both
   runnable and stuck threads (completing the operation wakes a stuck
   thread); the stuckness rules move a runnable thread to the stuck state so
   that (Interrupt) — which works in any masking context — becomes
   applicable. *)
let thread_transitions config (st : State.t) tid code status =
  let z = decompose code in
  let actor = Thread_step tid in
  let edge ?label rule next = { rule; actor; label; next } in
  (* [from] (by default [st]) with this thread running [code] *)
  let run ?(from = st) code =
    State.set_thread from tid (State.Active (code, Runnable))
  in
  let step ?label ?from rule redex' =
    edge ?label rule (run ?from (with_redex z redex'))
  in
  let pop rule frames redex =
    [ edge rule (run (recompose { frames; redex })) ]
  in
  let finish rule outcome =
    [ edge rule (State.set_thread st tid (State.Finished outcome)) ]
  in
  let stuck rule =
    (* Only offered from the runnable state: a stuck-to-stuck transition
       would be an identity self-loop. *)
    if status = State.Runnable then
      [ edge rule
          (State.set_thread st tid (State.Active (code, State.Stuck_thread))) ]
    else []
  in
  let io_stuck rule = if config.stuck_io then stuck rule else [] in
  match z.redex with
  | Return n -> (
      match z.frames with
      | F_bind m :: frames -> pop R_bind frames (App (m, n))
      | F_catch _ :: frames -> pop R_handle frames z.redex
      | F_block :: frames -> pop R_block_return frames z.redex
      | F_unblock :: frames -> pop R_unblock_return frames z.redex
      | [] -> finish R_return_gc (State.Done n))
  | Throw (Lit_exn e) -> (
      match z.frames with
      | F_bind _ :: frames -> pop R_propagate frames z.redex
      | F_catch h :: frames -> pop R_catch frames (App (h, Lit_exn e))
      | F_block :: frames -> pop R_block_throw frames z.redex
      | F_unblock :: frames -> pop R_unblock_throw frames z.redex
      | [] -> finish R_throw_gc (State.Threw e))
  | Put_char (Lit_char c) ->
      let from = { st with State.output = c :: st.State.output } in
      step ~label:(Out_char c) ~from R_put_char (Return unit_v)
      :: io_stuck R_stuck_put_char
  | Get_char ->
      let read =
        match st.State.input with
        | c :: input ->
            let from = { st with State.input } in
            [ step ~label:(In_char c) ~from R_get_char (Return (Lit_char c)) ]
        | [] -> []
      in
      read @ io_stuck R_stuck_get_char
  | Sleep (Lit_int d) ->
      step ~label:(Time d) R_sleep (Return unit_v) :: io_stuck R_stuck_sleep
  | Take_mvar (Mvar m) -> (
      match State.mvar st m with
      | Some (Some v) ->
          [ step ~from:(State.set_mvar st m None) R_take_mvar (Return v) ]
      | Some None -> stuck R_stuck_take_mvar
      | None -> [] (* reference to an unknown MVar: ill-typed *))
  | Put_mvar (Mvar m, payload) -> (
      match State.mvar st m with
      | Some None ->
          [ step ~from:(State.set_mvar st m (Some payload)) R_put_mvar
              (Return unit_v) ]
      | Some (Some _) -> stuck R_stuck_put_mvar
      | None -> [])
  | New_mvar ->
      let m = st.State.next_mvar in
      let from =
        {
          st with
          State.mvars = st.State.mvars @ [ (m, None) ];
          next_mvar = m + 1;
        }
      in
      [ step ~from R_new_mvar (Return (Mvar m)) ]
  | Fork body ->
      let u = st.State.next_tid in
      let child =
        if config.fork_inherits_mask && mask_of z.frames = Masked then
          Block body
        else body
      in
      let from =
        { st with
          State.threads =
            st.State.threads @ [ (u, State.Active (child, State.Runnable)) ];
          next_tid = u + 1 }
      in
      [ step ~from R_fork (Return (Tid u)) ]
  | My_tid -> [ step R_thread_id (Return (Tid tid)) ]
  | Throw_to (Tid u, Lit_exn e) ->
      let k = st.State.next_inflight in
      let from =
        { st with
          State.inflight =
            st.State.inflight @ [ (k, { State.target = u; exn = e }) ];
          next_inflight = k + 1 }
      in
      [ step ~from R_throw_to (Return unit_v) ]
  | redex when not (is_value redex) -> (
      match Ch_pure.Eval.eval ~fuel:config.fuel redex with
      | Value v -> [ step R_eval v ]
      | Raised e -> [ step R_raise (Throw (Lit_exn e)) ]
      | Diverged | Stuck _ -> [])
  | _ -> [] (* a value at the evaluation site that no rule matches *)

let receive_transitions (st : State.t) =
  List.concat_map
    (fun (k, { State.target; exn }) ->
      match State.thread st target with
      | Some (State.Active (code, State.Runnable)) ->
          let z = decompose code in
          if mask_of z.frames = Unmasked then
            [
              {
                rule = R_receive;
                actor = Delivery k;
                label = None;
                next =
                  (let st =
                     {
                       st with
                       State.inflight =
                         List.remove_assoc k st.State.inflight;
                     }
                   in
                   State.set_thread st target
                     (State.Active
                        (with_redex z (Throw (Lit_exn exn)), State.Runnable)));
              };
            ]
          else []
      | Some (State.Active (code, State.Stuck_thread)) ->
          let z = decompose code in
          [
            {
              rule = R_interrupt;
              actor = Delivery k;
              label = None;
              next =
                (let st =
                   {
                     st with
                     State.inflight = List.remove_assoc k st.State.inflight;
                   }
                 in
                 State.set_thread st target
                   (State.Active
                      (with_redex z (Throw (Lit_exn exn)), State.Runnable)));
            };
          ]
      | Some (State.Finished _) | None -> [])
    st.State.inflight

(* Once main alone remains, every in-flight exception targets a finished
   thread: it is inert, and [State.canonical_key] already drops it, so
   reaping it alone would be a step to the same key — a self-loop that
   hides the terminal from the explorer. *)
let proc_gc_transition (st : State.t) =
  match State.main_result st with
  | Some _ when List.length st.State.threads > 1 || st.State.mvars <> [] ->
      [
        {
          rule = R_proc_gc;
          actor = Global;
          label = None;
          next =
            {
              st with
              State.threads =
                List.filter (fun (t, _) -> t = st.State.main) st.State.threads;
              mvars = [];
              inflight = [];
            };
        };
      ]
  | Some _ | None -> []

let enumerate ?(config = default_config) (st : State.t) =
  let per_thread =
    List.concat_map
      (fun (tid, th) ->
        match th with
        | State.Active (code, status) ->
            thread_transitions config st tid code status
        | State.Finished _ -> [])
      st.State.threads
  in
  per_thread @ receive_transitions st @ proc_gc_transition st

let kills (st : State.t) =
  let k = st.State.next_inflight in
  List.filter_map
    (fun (target, th) ->
      match th with
      | State.Active _ ->
          Some
            {
              rule = R_kill;
              actor = Global;
              label = None;
              next =
                {
                  st with
                  State.inflight =
                    st.State.inflight
                    @ [ (k, { State.target; exn = "KillThread" }) ];
                  next_inflight = k + 1;
                };
            }
      | State.Finished _ -> None)
    st.State.threads

type stall = Waiting | Diverging | Ill_typed of string

let thread_stall config (st : State.t) tid =
  match State.thread st tid with
  | None | Some (State.Finished _) -> None
  | Some (State.Active (code, status)) -> (
      if thread_transitions config st tid code status <> [] then None
      else
        let z = decompose code in
        match z.redex with
        | Take_mvar (Mvar m) | Put_mvar (Mvar m, _) -> (
            match State.mvar st m with
            | Some _ -> Some Waiting
            | None -> Some (Ill_typed "reference to unknown MVar"))
        | Get_char -> Some Waiting
        | redex when not (is_value redex) -> (
            match Ch_pure.Eval.eval ~fuel:config.fuel redex with
            | Diverged -> Some Diverging
            | Stuck msg -> Some (Ill_typed msg)
            | Value _ | Raised _ -> None)
        | redex ->
            Some
              (Ill_typed
                 (Printf.sprintf "no rule matches value %s at evaluation site"
                    (Pretty.term_to_string redex))))

let blocked_reasons ?(config = default_config) (st : State.t) =
  List.filter_map
    (fun (tid, th) ->
      match th with
      | State.Finished _ -> None
      | State.Active (code, _) -> (
          match thread_stall config st tid with
          | Some Waiting -> (
              match (decompose code).redex with
              | Take_mvar (Mvar m) -> Some (tid, "takeMVar", Some m)
              | Put_mvar (Mvar m, _) -> Some (tid, "putMVar", Some m)
              | Get_char -> Some (tid, "getChar", None)
              | _ -> None)
          | _ -> None))
    st.State.threads
