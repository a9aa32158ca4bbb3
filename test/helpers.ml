(* Shared test utilities. *)

open Hio

let rr_config ?(input = "") () =
  { Runtime.Config.default with Runtime.Config.input }

let run ?input io = Runtime.run ~config:(rr_config ?input ()) io

let run_seed ?(input = "") seed io =
  Runtime.run
    ~config:
      {
        Runtime.Config.default with
        Runtime.Config.policy = Runtime.Config.Random seed;
        input;
      }
    io

let value ?input io =
  match (run ?input io).Runtime.outcome with
  | Runtime.Value v -> v
  | Runtime.Uncaught e -> Alcotest.failf "uncaught: %s" (Printexc.to_string e)
  | Runtime.Deadlock -> Alcotest.fail "unexpected deadlock"
  | Runtime.Out_of_steps -> Alcotest.fail "out of steps"

let uncaught ?input io =
  match (run ?input io).Runtime.outcome with
  | Runtime.Uncaught e -> e
  | Runtime.Value _ -> Alcotest.fail "expected an uncaught exception"
  | Runtime.Deadlock -> Alcotest.fail "unexpected deadlock"
  | Runtime.Out_of_steps -> Alcotest.fail "out of steps"

let expect_deadlock ?input io =
  match (run ?input io).Runtime.outcome with
  | Runtime.Deadlock -> ()
  | Runtime.Value _ -> Alcotest.fail "expected deadlock, got a value"
  | Runtime.Uncaught e ->
      Alcotest.failf "expected deadlock, got uncaught %s"
        (Printexc.to_string e)
  | Runtime.Out_of_steps -> Alcotest.fail "expected deadlock, ran out of steps"

(* [yields n] gives the scheduler n switch points. *)
let yields n = Hio_std.Combinators.repeat n Io.yield

(* Second-kill adversary: poll (yielding) until one of [tids] is blocked
   in an MVar take — for a sender, the interruptible wait for a
   channel's write cursor another sender holds (§5.3) — and kill it
   there. [false] if none was seen waiting within [rounds]. *)
let kill_first_waiting ?(rounds = 500) tids =
  let open Io in
  let rec waiting = function
    | [] -> return None
    | t :: rest -> (
        thread_status t >>= function
        | Blocked_on W_take_mvar -> return (Some t)
        | _ -> waiting rest)
  in
  let rec go n =
    if n = 0 then return false
    else
      waiting tids >>= function
      | Some t -> throw_to t Kill_thread >>= fun () -> return true
      | None -> yield >>= fun () -> go (n - 1)
  in
  go rounds

(* The kill points and applied count of a kill-sweep report. *)
let kill_counts (r : Fault.Sweep.report) =
  match r.r_payload with
  | Kills { kill_points; applied; _ } -> (kill_points, applied)
  | Chaos _ | Overload _ -> Alcotest.fail "not a kill-sweep report"

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* The real-backend smokes ride the host's loopback stack, timers and
   thread scheduler, so a loaded CI machine can occasionally stall a
   request past its timeout or stretch a sleep beyond the generous
   bound. Each smoke gets a bounded number of attempts — a transient
   miss retries silently, a systematic failure still fails (with the
   last attempt's assertion) — and keeps its slow marking. *)
let rec retrying attempts f =
  try f () with _ when attempts > 1 -> retrying (attempts - 1) f

let flaky_slow_case name f = slow_case name (fun () -> retrying 3 f)

(* Object-language helpers. *)
let parse = Ch_lang.Parser.parse
let term = Alcotest.testable Ch_lang.Pretty.pp_term ( = )
let term_alpha = Alcotest.testable Ch_lang.Pretty.pp_term Ch_lang.Term.alpha_eq

let explore_config ?(stuck_io = false) ?(fuel = 20_000) () =
  { Ch_semantics.Step.default_config with Ch_semantics.Step.stuck_io; fuel }

let explore ?stuck_io ?fuel ?max_states ?jobs ?kills ?watch program =
  Ch_explore.Space.explore
    ~config:(explore_config ?stuck_io ?fuel ())
    ?max_states ?jobs ?kills ?watch
    (Ch_semantics.State.initial program)

(* The state an index path of [explore program] replays to. *)
let witness_end ?stuck_io ?fuel program path =
  let init = Ch_semantics.State.initial program in
  match
    List.rev
      (Ch_explore.Space.witness
         ~config:(explore_config ?stuck_io ?fuel ())
         init path)
  with
  | last :: _ -> last.Ch_semantics.Step.next
  | [] -> init

let kinds result = Ch_explore.Space.terminal_kinds result

(* The closed corpus programs that terminate (all but [diverge]), as
   initial states with their inputs: the programs the kill adversary's
   table in [claims:C15-kill-adversary] pins. *)
let kill_corpus =
  let open Ch_semantics in
  [
    ("hello", State.initial Ch_corpus.Programs.hello);
    ("echo", State.initial ~input:"xy" Ch_corpus.Programs.echo);
    ("ping-pong", State.initial Ch_corpus.Programs.ping_pong);
    ("producer-consumer", State.initial Ch_corpus.Programs.producer_consumer);
    ("kill-sleeping", State.initial Ch_corpus.Programs.kill_sleeping);
    ("mask-interrupt", State.initial Ch_corpus.Programs.mask_interrupt);
    ("counter-loop", State.initial (Ch_corpus.Programs.counter_loop 3));
  ]

(* C4d's program: timeout 10 (return 5), unwrapped to 5 or 0. *)
let timeout_instant =
  Ch_lang.Term.Bind
    ( Ch_lang.Term.apps Ch_corpus.Combinators.timeout_t
        [ Ch_lang.Term.Lit_int 10; parse "return 5" ],
      parse "\\r -> case r of { Just x -> return x; Nothing -> return 0 }" )

let completed_int n =
  Ch_explore.Space.Completed (Ch_semantics.State.Done (Ch_lang.Term.Lit_int n))

let kind_testable =
  Alcotest.testable Ch_explore.Space.pp_terminal_kind ( = )
