(* The §5.1/§5.2 story, told twice:

   1. On the hio runtime: an adversary kills a lock-holding worker at every
      possible moment; the unprotected protocol loses the lock on some
      schedules, the block-protected protocol never does.

   2. On the executable formal semantics: the model checker explores ALL
      schedules of the same programs and prints the verdicts, including a
      concrete doomed schedule for the unsafe protocol.

   Run with: dune exec examples/safe_locking.exe *)

open Hio
open Hio.Io

(* --- Part 1: runtime sweep ---------------------------------------------- *)

let unprotected_update m =
  Mvar.take m >>= fun x ->
  yield >>= fun () -> Mvar.put m (x + 1)

let protected_update m = Mvar.modify m (fun x -> return (x + 1))

let sweep name update =
  let outcomes = Hashtbl.create 8 in
  for k = 0 to 25 do
    let prog =
      Mvar.new_filled 0 >>= fun m ->
      fork (update m) >>= fun t ->
      Hio_std.Combinators.repeat k yield >>= fun () ->
      throw_to t Kill_thread >>= fun () -> Mvar.take m
    in
    let key =
      match (Runtime.run prog).Runtime.outcome with
      | Runtime.Value v -> Printf.sprintf "lock intact, value %d" v
      | Runtime.Deadlock -> "LOCK LOST (deadlock)"
      | Runtime.Uncaught _ -> "uncaught"
      | Runtime.Out_of_steps -> "out of steps"
    in
    let n = try Hashtbl.find outcomes key with Not_found -> 0 in
    Hashtbl.replace outcomes key (n + 1)
  done;
  Printf.printf "%s (kill injected at 26 points):\n" name;
  Hashtbl.iter (fun k n -> Printf.printf "  %2d x %s\n" n k) outcomes;
  print_newline ()

(* --- Part 2: exhaustive model checking ---------------------------------- *)

let model_check name protocol =
  let open Ch_semantics in
  let open Ch_explore in
  let config = { Step.default_config with Step.stuck_io = false } in
  let program = Ch_corpus.Locking.harness protocol in
  let init = State.initial program in
  let result = Space.explore ~config init in
  Printf.printf "%s: %d states, %d transitions\n" name result.Space.visited
    result.Space.edges;
  List.iter
    (fun kind -> Fmt.pr "  terminal: %a@." Space.pp_terminal_kind kind)
    (Space.terminal_kinds result);
  (match
     List.find_opt
       (fun t -> t.Space.kind = Space.Deadlock)
       result.Space.terminals
   with
  | Some dead ->
      let path = Space.witness ~config init dead.Space.path in
      Fmt.pr "  a doomed schedule (%d steps):@." (List.length path);
      List.iteri
        (fun i (tr : Step.transition) ->
          if i < 14 then
            Fmt.pr "    %2d. %s@." (i + 1) (Step.rule_name tr.Step.rule))
        path;
      if List.length path > 14 then Fmt.pr "    ...@."
  | None -> Fmt.pr "  no deadlocking schedule exists.@.");
  print_newline ()

let () =
  print_endline "=== Part 1: adversarial sweep on the hio runtime ===\n";
  sweep "unprotected  take;compute;put " unprotected_update;
  sweep "protected    Mvar.modify (§5.2)" protected_update;
  print_endline "=== Part 2: exhaustive model check of the semantics ===\n";
  model_check "unprotected (§5.1 naive)  " Ch_corpus.Locking.unprotected;
  model_check "catch-only  (§5.1 fixed?) " Ch_corpus.Locking.catch_only;
  model_check "block+catch (§5.2)        " Ch_corpus.Locking.block_protected
