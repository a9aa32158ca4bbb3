(* Kill-point sweeps over the §11 server request path: the three
   adversaries (kill whichever thread is acting, kill the accept loop
   mid-accept, kill a connection worker mid-request), bounded so the
   suite stays fast — the full sweep runs via `chrun sweep --suite
   server`. *)

open Fault

let sweep_target target =
  Helpers.case
    (Fmt.str "server survives kills into %a" Plan.pp_target target)
    (fun () ->
      let r = Sweep.sweep ~max_points:40 ~target Cases.server in
      Alcotest.check Alcotest.bool "has kill points" true
        (fst (Helpers.kill_counts r) > 0);
      match r.Sweep.r_failures with
      | [] -> ()
      | f :: _ ->
          Alcotest.failf "%d failures, first: %a — %s"
            (List.length r.Sweep.r_failures)
            Plan.pp f.Sweep.f_shrunk f.Sweep.f_reason)

(* One client and no probes, so the lawful-outcome check alone decides
   the baseline. *)
let one_client handler =
  Sweep.case "one-client"
    (Hio.Io.ignore_result
       (Cases.serve
          {
            Cases.name = "one-client";
            tree = Single;
            config = Hserver.Server.default_config;
            handler;
            clients = Cases.at_once 1;
            timeout = 1_000;
            probes = [];
            attempts = 1;
          }))

(* A reason with a line break in it: the client reads "bogus" as a
   header without a colon, so [Http.read_response] raises [Bad_request]
   — an exception that is neither a kill nor a transport fault. *)
let malformed _request =
  Hio.Io.return
    { Hserver.Http.status = 200; reason = "OK\r\nbogus"; body = "hi" }

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let only_the_kill_exempts =
  Helpers.case "only the kill exempts a client: Bad_request fails the baseline"
    (fun () ->
      ignore (Sweep.record (one_client Cases.hello));
      match Sweep.record (one_client malformed) with
      | _ -> Alcotest.fail "a client that died of Bad_request was exempted"
      | exception Failure msg ->
          Alcotest.(check bool)
            (Printf.sprintf "the failure names the exception: %s" msg)
            true
            (contains msg "client0 died of" && contains msg "Bad_request"))

(* §5.2 at the accept hand-off: two clients, and a kill into the listener
   at every armed step, on the default transport and on an explicit sim
   backend (a chaos wrapper with an empty plan). Wherever the kill lands —
   in an accept, in the hand-off to a worker — the accepted connection is
   served or closed, never dropped, so no client waits out its timeout.
   The serving protocol alone would not notice: a timeout is lawful. *)
let handoff_case ~explicit =
  let name = if explicit then "handoff-explicit" else "handoff" in
  Sweep.case ~max_steps:400_000 name
    Hio.Io.(
      lift (fun () ->
          if explicit then Some (Ev.Chaos.create []) else None)
      >>= fun chaos ->
      Cases.serve ?chaos
        {
          Cases.name;
          tree = Single;
          config = Hserver.Server.default_config;
          handler = Cases.hello;
          clients = Cases.at_once 2;
          timeout = 1_000;
          probes = [ None ];
          attempts = 1;
        }
      >>= fun (outcomes, _) ->
      Sweep.require
        (name ^ ": no client waits out its timeout")
        (Array.for_all (fun o -> o <> Some Cases.Timed_out) outcomes))

let handoff ~explicit =
  Helpers.case
    (Printf.sprintf
       "a listener kill never strands an accepted connection (%s transport)"
       (if explicit then "explicit sim" else "default"))
    (fun () ->
      let r =
        Sweep.sweep ~target:(Plan.Named "listener") (handoff_case ~explicit)
      in
      let _, applied = Helpers.kill_counts r in
      Alcotest.check Alcotest.bool "kills applied" true (applied > 0);
      Alcotest.(check int)
        (Printf.sprintf "failures of %d applied kills" applied)
        0
        (List.length r.Sweep.r_failures))

let suites =
  [
    ( "fault:server",
      List.map sweep_target Cases.server_targets
      @ [
          only_the_kill_exempts;
          handoff ~explicit:false;
          handoff ~explicit:true;
        ] );
  ]
