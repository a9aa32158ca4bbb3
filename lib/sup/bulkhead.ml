open Hio
open Hio_std
open Io

type t = {
  capacity : int;
  max_waiting : int;
  queue_target : int option;
  sem : Sem.t;
  mutable count : int;  (* occupants + waiters *)
  mutable waiting : int;  (* CoDel waiters parked on the semaphore *)
  g_entered : Obs.Metrics.gauge;
  c_shed : Obs.Metrics.counter;
  g_qdepth : Obs.Metrics.gauge;
  g_qdelay : Obs.Metrics.gauge;
  c_qshed : Obs.Metrics.counter;
}

let create ?(name = "default") ?metrics ?queue_target ~capacity
    ?(max_waiting = 0) () =
  Sem.create capacity >>= fun sem ->
  lift (fun () ->
      let reg =
        match metrics with Some r -> r | None -> Obs.Metrics.create ()
      in
      let labels = [ ("name", name) ] in
      {
        capacity;
        max_waiting;
        queue_target;
        sem;
        count = 0;
        waiting = 0;
        g_entered = Obs.Metrics.gauge reg ~labels "sup_bulkhead_entered";
        c_shed = Obs.Metrics.counter reg ~labels "sup_bulkhead_shed_total";
        g_qdepth = Obs.Metrics.gauge reg ~labels "sup_bulkhead_queue_depth";
        g_qdelay = Obs.Metrics.gauge reg ~labels "sup_bulkhead_queue_delay";
        c_qshed =
          Obs.Metrics.counter reg ~labels "sup_bulkhead_queue_shed_total";
      })

(* CoDel-style bounded wait for a slot. We cannot wrap [Sem.wait] in
   [Combinators.timeout]: the timeout's child thread would own the
   acquired unit, and a kill landing between its acquisition and the
   parent's resumption leaks the unit. Instead the timer is armed in
   {e this} thread and the signal caught around the wait — [Sem.wait]'s
   withdraw-on-exception restores its queue position (or passes a
   dedicated unit on), so interruption conserves units (§5.3). Returns
   [`Got] holding a unit, or [`Late] having shed from the waiting room;
   runs masked, so [`Got] cannot be separated from its release. *)
let acquire_within b target =
  now >>= fun enq ->
  lift (fun () ->
      b.waiting <- b.waiting + 1;
      Obs.Metrics.set b.g_qdepth b.waiting)
  >>= fun () ->
  let dequeue =
    now >>= fun t ->
    lift (fun () ->
        b.waiting <- b.waiting - 1;
        Obs.Metrics.set b.g_qdepth b.waiting;
        Obs.Metrics.set b.g_qdelay (t - enq))
  in
  arm_timer target >>= fun tm ->
  catch
    ( Sem.wait b.sem >>= fun () ->
      cancel_timer tm >>= fun () ->
      dequeue >>= fun () -> return `Got )
    (fun e ->
      dequeue >>= fun () ->
      if is_timer_signal tm e then
        lift (fun () -> Obs.Metrics.inc b.c_qshed) >>= fun () -> return `Late
      else cancel_timer tm >>= fun () -> throw e)

let run b io =
  Combinators.bracket
    (lift (fun () ->
         if b.count >= b.capacity + b.max_waiting then begin
           Obs.Metrics.inc b.c_shed;
           false
         end
         else begin
           b.count <- b.count + 1;
           Obs.Metrics.set b.g_entered b.count;
           true
         end))
    (fun admitted ->
      if not admitted then return (Error `Shed)
      else
        match b.queue_target with
        | None -> Sem.with_unit b.sem (map (fun v -> Ok v) io)
        | Some target ->
            mask (fun restore ->
                acquire_within b target >>= function
                | `Late -> return (Error `Shed)
                | `Got ->
                    catch
                      ( restore io >>= fun v ->
                        Sem.signal b.sem >>= fun () -> return (Ok v) )
                      (fun e -> Sem.signal b.sem >>= fun () -> throw e)))
    (fun admitted ->
      if admitted then
        lift (fun () ->
            b.count <- b.count - 1;
            Obs.Metrics.set b.g_entered b.count)
      else return ())

let entered b = lift (fun () -> b.count)
