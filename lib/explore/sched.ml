open Ch_semantics

type policy = First | Round_robin | Random of int
type outcome = Terminated | Out_of_steps

type run = {
  final : State.t;
  trace : Step.transition list;
  steps : int;
  outcome : outcome;
}

(* Round-robin: exception deliveries first (the paper's implementation
   checks the pending queue eagerly), then the first thread at or after the
   cursor that can step, then (Proc GC). *)
let round_robin_pick cursor transitions =
  let delivery =
    List.find_opt
      (fun t ->
        match t.Step.actor with
        | Step.Delivery _ -> true
        | Step.Thread_step _ | Step.Global -> false)
      transitions
  in
  match delivery with
  | Some t -> t
  | None -> (
      let threads =
        List.filter_map
          (fun t ->
            match t.Step.actor with
            | Step.Thread_step tid -> Some (tid, t)
            | Step.Delivery _ | Step.Global -> None)
          transitions
      in
      let at_or_after = List.filter (fun (tid, _) -> tid >= cursor) threads in
      match (at_or_after, threads, transitions) with
      | (_, t) :: _, _, _ -> t
      | [], (_, t) :: _, _ -> t
      | [], [], t :: _ -> t
      | [], [], [] -> assert false)

let run ?config ?(max_steps = 20_000) policy init =
  let rng =
    match policy with
    | Random seed -> Some (Random.State.make [| seed |])
    | First | Round_robin -> None
  in
  let rec go state trace steps cursor =
    if steps >= max_steps then
      { final = state; trace = List.rev trace; steps; outcome = Out_of_steps }
    else
      match Step.enumerate ?config state with
      | [] ->
          { final = state; trace = List.rev trace; steps;
            outcome = Terminated }
      | transitions ->
          let chosen =
            match policy with
            | First -> List.hd transitions
            | Round_robin -> round_robin_pick cursor transitions
            | Random _ ->
                let rng = Option.get rng in
                List.nth transitions
                  (Random.State.int rng (List.length transitions))
          in
          let cursor' =
            match chosen.Step.actor with
            | Step.Thread_step tid -> tid + 1
            | Step.Delivery _ | Step.Global -> cursor
          in
          go chosen.Step.next (chosen :: trace) (steps + 1) cursor'
  in
  go init [] 0 0

let pp_transition ppf (t : Step.transition) =
  let actor =
    match t.Step.actor with
    | Step.Thread_step tid -> Printf.sprintf "t%d" tid
    | Step.Delivery k -> Printf.sprintf "⇐%d" k
    | Step.Global -> "·"
  in
  let label =
    match t.Step.label with
    | Some (Step.Out_char c) -> Printf.sprintf " !%C" c
    | Some (Step.In_char c) -> Printf.sprintf " ?%C" c
    | Some (Step.Time d) -> Printf.sprintf " $%d" d
    | None -> ""
  in
  Fmt.pf ppf "%-4s %-18s%s" actor (Step.rule_name t.Step.rule) label

let pp_trace ppf trace =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_transition) trace
