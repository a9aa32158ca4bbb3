open Hio
open Io

(* splitmix-style avalanche of the attempt index: deterministic, spread
   well enough for jitter, and free of any mutable generator state *)
let hash k =
  let x = k * 0x9E3779B9 in
  let x = x lxor (x lsr 16) in
  let x = x * 0x85EBCA6B in
  let x = x lxor (x lsr 13) in
  let x = x * 0xC2B2AE35 in
  abs (x lxor (x lsr 16))

let max_delay = 5_000

let backoff ?(base = 10) ?(jitter = 8) k =
  let rec pow acc n =
    if n <= 0 then acc
    else if acc >= max_delay then max_delay (* avoid overflow *)
    else pow (acc * 2) (n - 1)
  in
  let raw = min max_delay (pow base (k - 1)) in
  raw + (if jitter <= 0 then 0 else hash k mod jitter)

let schedule ?base ?jitter n =
  List.init n (fun i -> backoff ?base ?jitter (i + 1))

let default_retry_on = function
  | Kill_thread | Timeout -> false
  | _ -> true

let transient_io = function
  | End_of_file | Ev.Backend.Connection_reset | Ev.Backend.Connection_refused
  | Ev.Backend.Accept_failed | Ev.Backend.Too_many_fds
  | Ev.Backend.Buffer_full ->
      true
  | _ -> false

let retry ?(attempts = 4) ?base ?jitter ?(retry_on = default_retry_on) io =
  let rec go k =
    catch io (fun e ->
        if k >= attempts || not (retry_on e) then throw e
        else
          sleep (backoff ?base ?jitter k) >>= fun () ->
          go (k + 1))
  in
  go 1
