open Hio
open Io

type state = Closed | Half_open | Open

exception Open_circuit

type t = {
  threshold : int;
  reset_timeout : int;
  mutable st : state;
  mutable failures : int;  (* consecutive countable failures while closed *)
  mutable opened_at : int;  (* virtual time of the last trip *)
  mutable trial : bool;  (* a half-open trial is in flight *)
  g_state : Obs.Metrics.gauge;
  c_trips : Obs.Metrics.counter;
  c_rejected : Obs.Metrics.counter;
}

let gauge_of = function Closed -> 0 | Half_open -> 1 | Open -> 2

let set_state b st =
  b.st <- st;
  Obs.Metrics.set b.g_state (gauge_of st)

(* A kill aimed at the caller is not evidence about the service. *)
let countable = function Kill_thread -> false | _ -> true

let create ?(name = "default") ?metrics ?(failure_threshold = 3)
    ?(reset_timeout = 1_000) () =
  lift (fun () ->
      let reg =
        match metrics with Some r -> r | None -> Obs.Metrics.create ()
      in
      let labels = [ ("name", name) ] in
      let b =
        {
          threshold = failure_threshold;
          reset_timeout;
          st = Closed;
          failures = 0;
          opened_at = 0;
          trial = false;
          g_state = Obs.Metrics.gauge reg ~labels "sup_breaker_state";
          c_trips = Obs.Metrics.counter reg ~labels "sup_breaker_trips_total";
          c_rejected =
            Obs.Metrics.counter reg ~labels "sup_breaker_rejected_total";
        }
      in
      Obs.Metrics.set b.g_state 0;
      b)

let state b = lift (fun () -> b.st)

(* One atomic decision step. [true] = proceed (and, in half-open, the
   trial slot is ours). *)
let admit b now =
  match b.st with
  | Closed -> true
  | Open when now - b.opened_at >= b.reset_timeout ->
      set_state b Half_open;
      b.trial <- true;
      true
  | Open -> false
  | Half_open when not b.trial ->
      b.trial <- true;
      true
  | Half_open -> false

let trip b now =
  b.failures <- 0;
  b.opened_at <- now;
  set_state b Open;
  Obs.Metrics.inc b.c_trips

let record_success b =
  b.trial <- false;
  b.failures <- 0;
  if b.st <> Closed then set_state b Closed

let record_failure b now e =
  b.trial <- false;
  match b.st with
  | Half_open -> trip b now (* the trial failed, whatever the exception *)
  | Closed when countable e ->
      b.failures <- b.failures + 1;
      if b.failures >= b.threshold then trip b now
  | Closed | Open -> ()

(* ---- the peek/note surface for brownout ---------------------------------

   A route point doing brownout does not wrap calls in [run] — it
   {e peeks} at the breaker before queueing work for a backend and
   records outcomes observed elsewhere. [rejecting] never mutates
   (peeking must not claim the half-open trial slot: the probe that
   closes the circuit is just the first request allowed through once
   the reset window has passed).
   [note_failure] gives that probe discipline without the trial flag:
   a countable failure after the reset window re-trips the circuit —
   the implicit half-open probe failed — refreshing [opened_at]. *)

let rejecting b =
  now >>= fun t ->
  lift (fun () ->
      match b.st with
      | Closed -> false
      | Half_open -> b.trial (* a trial is in flight; new work sheds *)
      | Open -> t - b.opened_at < b.reset_timeout)

let note_success b = lift (fun () -> record_success b)

let note_failure b e =
  now >>= fun t ->
  lift (fun () ->
      match b.st with
      | Half_open -> trip b t
      | Closed when countable e ->
          b.failures <- b.failures + 1;
          if b.failures >= b.threshold then trip b t
      | Open when t - b.opened_at >= b.reset_timeout && countable e ->
          trip b t
      | Closed | Open -> ())

(* The decision, the catch frame, and both recording paths sit inside one
   mask: a kill delivered between "trial claimed" and "outcome recorded"
   lands either in [restore io] (recorded as a non-countable failure, the
   trial slot is released) or after the mask exits — never in a window
   where the breaker is left believing a trial is still running. *)
let run b io =
  mask (fun restore ->
      now >>= fun t ->
      lift (fun () ->
          if admit b t then true
          else begin
            Obs.Metrics.inc b.c_rejected;
            false
          end)
      >>= fun admitted ->
      if not admitted then throw Open_circuit
      else
        catch
          ( restore io >>= fun v ->
            lift (fun () -> record_success b) >>= fun () -> return v )
          (fun e ->
            now >>= fun t ->
            lift (fun () -> record_failure b t e) >>= fun () -> throw e))
