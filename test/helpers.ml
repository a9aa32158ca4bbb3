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

let explore ?(stuck_io = false) ?fuel ?max_states ?watch program =
  let config =
    {
      Ch_semantics.Step.default_config with
      Ch_semantics.Step.stuck_io;
      fuel = Option.value fuel ~default:20_000;
    }
  in
  Ch_explore.Space.explore ~config ?max_states ?watch
    (Ch_semantics.State.initial program)

let kinds result = Ch_explore.Space.terminal_kinds result

let completed_int n =
  Ch_explore.Space.Completed (Ch_semantics.State.Done (Ch_lang.Term.Lit_int n))

let kind_testable =
  Alcotest.testable Ch_explore.Space.pp_terminal_kind ( = )
