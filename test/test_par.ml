(* Tests for lib/par (the domain pool) and for the parallel frontier mode
   of Ch_explore.Space: with [jobs > 1] the BFS must return a result that
   is structurally identical to the sequential search — ids, witness
   paths, terminal order, watch hits and truncation included. *)

open Helpers

(* --- the pool itself ------------------------------------------------------ *)

let pool_tests =
  [
    case "map agrees with Array.map" (fun () ->
        let input = Array.init 257 (fun i -> i) in
        let expected = Array.map (fun i -> (i * i) + 1) input in
        Alcotest.check
          (Alcotest.array Alcotest.int)
          "jobs=4" expected
          (Par.map ~jobs:4 (fun i -> (i * i) + 1) input));
    case "jobs<=1 runs inline and still agrees" (fun () ->
        let input = Array.init 31 string_of_int in
        Alcotest.check
          (Alcotest.array Alcotest.string)
          "jobs=1"
          (Array.map String.uppercase_ascii input)
          (Par.map ~jobs:1 String.uppercase_ascii input));
    case "empty and singleton arrays" (fun () ->
        Alcotest.check (Alcotest.array Alcotest.int) "empty" [||]
          (Par.map ~jobs:4 (fun i -> i) [||]);
        Alcotest.check (Alcotest.array Alcotest.int) "singleton" [| 7 |]
          (Par.map ~jobs:4 (fun i -> i) [| 7 |]));
    case "run visits every index exactly once" (fun () ->
        (* 4 workers grab 1000 / 32 = 31 indices at a time, so the last
           range (992 .. 999) is a partial one *)
        let n = 1000 in
        let hits = Array.make n 0 in
        Par.with_pool ~jobs:4 (fun pool ->
            (* distinct indexes go to distinct slots, so concurrent stores
               never collide; a double visit would still show as hits > 1 *)
            Par.Pool.run pool ~n (fun i -> hits.(i) <- hits.(i) + 1));
        Alcotest.check Alcotest.bool "all once" true
          (Array.for_all (fun h -> h = 1) hits));
    case "a pool is reusable across calls" (fun () ->
        Par.with_pool ~jobs:3 (fun pool ->
            for round = 1 to 5 do
              let out =
                Par.Pool.map pool (fun i -> i * round) (Array.init 64 Fun.id)
              in
              Alcotest.check
                (Alcotest.array Alcotest.int)
                (Printf.sprintf "round %d" round)
                (Array.init 64 (fun i -> i * round))
                out
            done));
    case "a worker exception propagates to the submitter" (fun () ->
        match
          Par.map ~jobs:4
            (fun i -> if i = 313 then failwith "boom" else i)
            (Array.init 500 Fun.id)
        with
        | _ -> Alcotest.fail "expected the worker failure to re-raise"
        | exception Failure m -> Alcotest.check Alcotest.string "msg" "boom" m);
    case "the pool survives a failed job" (fun () ->
        Par.with_pool ~jobs:4 (fun pool ->
            (match Par.Pool.map pool (fun _ -> failwith "first") [| 0; 1 |] with
            | _ -> Alcotest.fail "expected failure"
            | exception Failure _ -> ());
            Alcotest.check
              (Alcotest.array Alcotest.int)
              "next job runs clean" [| 0; 2; 4 |]
              (Par.Pool.map pool (fun i -> 2 * i) [| 0; 1; 2 |])));
    case "recommended_jobs is positive" (fun () ->
        Alcotest.check Alcotest.bool "n >= 1" true (Par.recommended_jobs () >= 1));
  ]

(* --- Space.explore: parallel ≡ sequential --------------------------------- *)

open Ch_semantics

let quiet =
  { Step.default_config with Step.stuck_io = false; fuel = 20_000 }

let explore_equiv ?max_states ?kills ?watch name program =
  case (name ^ ": explore is jobs-invariant") (fun () ->
      let init = State.initial program in
      let go jobs =
        Ch_explore.Space.explore ~config:quiet ?max_states ~jobs ?kills
          ?watch init
      in
      let seq = go 1 in
      List.iter
        (fun jobs ->
          let par = go jobs in
          (* full structural equality: states, keys, paths, order *)
          Alcotest.check Alcotest.bool
            (Printf.sprintf "jobs=%d equals jobs=1" jobs)
            true (par = seq))
        [ 2; 3; 4 ])

let explore_tests =
  [
    explore_equiv "block-protected lock"
      (Ch_corpus.Locking.harness Ch_corpus.Locking.block_protected);
    explore_equiv "catch-only lock (has Deadlock terminals)"
      (Ch_corpus.Locking.harness Ch_corpus.Locking.catch_only);
    explore_equiv "ping-pong (larger graph)" Ch_corpus.Programs.ping_pong;
    explore_equiv "ping-pong under 1 kill (budgets and kill paths)" ~kills:1
      Ch_corpus.Programs.ping_pong;
    (* 381 states at its widest level: more than one 2-domain slice *)
    explore_equiv "C4d's timeout (frontier wider than a slice)"
      timeout_instant;
    explore_equiv "truncated search truncates identically" ~max_states:100
      (Ch_corpus.Locking.harness Ch_corpus.Locking.unprotected);
    explore_equiv "watch hits collected identically"
      ~watch:(fun st -> List.length st.State.threads > 1)
      (Ch_corpus.Locking.harness Ch_corpus.Locking.block_protected);
  ]

let suites =
  [ ("par:pool", pool_tests); ("par:explore", explore_tests) ]
