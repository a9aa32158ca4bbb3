open Hio
open Hio_std
open Io

type 'a t = {
  q : 'a Chan.t;
  mutable stash : 'a list;  (* arrival order; owner-thread only *)
  bound : int option;
  mutable len : int;  (* queued + stashed, i.e. pushed minus consumed *)
  on_drop : ('a -> unit) option;
  g_depth : Obs.Metrics.gauge option;
  uncount : exn -> unit Io.t;  (* see [send_counted] *)
}

(* Both run inside a [lift] of the pusher/owner. *)
let bump t =
  t.len <- t.len + 1;
  match t.g_depth with Some g -> Obs.Metrics.set g t.len | None -> ()

let consumed t =
  t.len <- t.len - 1;
  match t.g_depth with Some g -> Obs.Metrics.set g t.len | None -> ()

let create ?bound ?on_drop ?metrics ?(name = "mailbox") () =
  Chan.create () >>= fun q ->
  lift (fun () ->
      let g_depth =
        match metrics with
        | None -> None
        | Some reg ->
            Some
              (Obs.Metrics.gauge reg
                 ~labels:[ ("name", name) ]
                 "mailbox_depth")
      in
      let rec t =
        {
          q;
          stash = [];
          bound;
          len = 0;
          on_drop;
          g_depth;
          uncount =
            (fun e -> lift (fun () -> consumed t) >>= fun () -> throw e);
        }
      in
      t)

(* A push is masked so a kill cannot separate the depth accounting from
   the send itself. The send is still interruptible where it waits for
   the write cursor another pusher holds (§5.3); an interrupted send has
   enqueued nothing, so its handler undoes the count (§5.2). The handler
   is built once per mailbox, not once per push. *)
let send_counted t m = catch (Chan.send t.q m) t.uncount

let push t m =
  mask_
    ( lift (fun () ->
          match t.bound with
          | Some b when t.len >= b ->
              (* Shed-newest: the arrival is dropped, the queue keeps its
                 older (closer-to-service) messages. Deterministic — the
                 decision depends only on mailbox state at this step. *)
              (match t.on_drop with Some f -> f m | None -> ());
              false
          | _ ->
              bump t;
              true)
    >>= function
    | false -> return ()
    | true -> send_counted t m )

(* Control-plane push: counted in the depth but never shed, and never
   lost to a kill (the send retries, {!Combinators.critical}) — dropping
   a stop request or a monitor's one [down] would break their
   exactly-once/liveness contracts, and they are not amplified by load
   the way data messages are. *)
let push_urgent t m =
  mask_
    ( lift (fun () -> bump t) >>= fun () ->
      Combinators.critical (Chan.send t.q m) )

let stashed t = lift (fun () -> List.length t.stash)
let length t = lift (fun () -> t.len)

(* One atomic step: scan the stash in arrival order for the first match
   and remove it. *)
let take_stash t f =
  lift (fun () ->
      let rec go acc = function
        | [] -> None
        | m :: rest -> (
            match f m with
            | Some x ->
                t.stash <- List.rev_append acc rest;
                consumed t;
                Some x
            | None -> go (m :: acc) rest)
      in
      go [] t.stash)

(* The receive loop proper. Runs masked by the callers below: between
   [Chan.recv] handing us a message and the match/stash decision there
   is no delivery point, so a kill cannot strand a taken message.
   Messages parked in the stash stay counted in [len] — they are still
   in the mailbox. *)
let rec recv_match t f =
  Chan.recv t.q >>= fun m ->
  match f m with
  | Some x -> lift (fun () -> consumed t) >>= fun () -> return x
  | None -> lift (fun () -> t.stash <- t.stash @ [ m ]) >>= fun () ->
      recv_match t f

let receive t f =
  mask_
    ( take_stash t f >>= function
      | Some x -> return x
      | None -> recv_match t f )

(* Same loop with a deadline. The timer is armed in this thread — a
   forked [Combinators.timeout] child would be the one blocked in
   [Chan.recv], and killing it on expiry could lose the message it just
   took. Here expiry is a [Timer_signal] delivered to us at the
   interruptible [Chan.recv] wait: either we already hold a message
   (signal arrives at a later wait, or is purged by [cancel_timer]) or
   we hold nothing. Either way no message is in limbo. *)
let receive_timeout d t f =
  mask_
    ( arm_timer d >>= fun tm ->
      catch
        ( (take_stash t f >>= function
           | Some x -> return x
           | None -> recv_match t f)
          >>= fun x ->
          cancel_timer tm >>= fun () -> return (Some x) )
        (fun e ->
          if is_timer_signal tm e then return None
          else cancel_timer tm >>= fun () -> throw e) )

let next t = receive t (fun m -> Some m)
