open Ch_semantics

type terminal_kind =
  | Completed of State.finished
  | Deadlock
  | Divergent
  | Wedged of string

type terminal = {
  state : State.t;
  kind : terminal_kind;
  path : int list;
}

type result = {
  visited : int;
  edges : int;
  terminals : terminal list;
  truncated : bool;
  watch_hits : terminal list;
  has_cycle : bool;
}

let classify config (st : State.t) =
  let stalls =
    List.filter_map
      (fun (tid, th) ->
        match th with
        | State.Active _ -> Step.thread_stall config st tid
        | State.Finished _ -> None)
      st.State.threads
  in
  let any_active =
    List.exists
      (fun (_, th) ->
        match th with State.Active _ -> true | State.Finished _ -> false)
      st.State.threads
  in
  if not any_active then
    match State.main_result st with
    | Some (State.Done v) -> (
        (* Normalize the recorded result with the inner semantics so that
           observably equal outcomes (e.g. [0 + 1] and [1]) coincide. *)
        match Ch_pure.Eval.eval ~fuel:config.Step.fuel v with
        | Ch_pure.Eval.Value v' -> Completed (State.Done v')
        | Raised _ | Diverged | Stuck _ -> Completed (State.Done v))
    | Some (State.Threw e) -> Completed (State.Threw e)
    | None -> Wedged "main thread vanished"
  else
    let wedged =
      List.find_map
        (function Step.Ill_typed m -> Some m | _ -> None)
        stalls
    in
    match wedged with
    | Some m -> Wedged m
    | None ->
        if List.mem Step.Diverging stalls then Divergent else Deadlock

let stranded (st : State.t) =
  (match State.main_result st with
  | Some (State.Done _) -> true
  | Some (State.Threw _) | None -> false)
  && List.exists
       (fun (_, th) ->
         match th with State.Active _ -> true | State.Finished _ -> false)
       st.State.threads
  &&
  match Step.enumerate st with
  | [ { Step.rule = Step.R_proc_gc; _ } ] -> true
  | _ -> false

module Visited = State.Fingerprint.Table

(* A growable array, for the search's tables indexed by state id. *)
type 'a vec = { mutable data : 'a array; mutable len : int }

let vec () = { data = [||]; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let data = Array.make (max 64 (2 * v.len)) x in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

(* States per domain in one pooled expansion: enough work per
   [Par.Pool.run] to amortise waking the workers, few enough that the
   slice's successors stay a small part of the heap. *)
let slice_per_job = 128

(* A state's moves under the adversary: its [Step.enumerate] list
   [program], then, while [budget] kills remain and the program can
   step, one (Kill) per active thread. *)
let with_kills budget state = function
  | [] -> []
  | program when budget > 0 -> program @ Step.kills state
  | program -> program

(* The budget left after [t]. *)
let spend budget (t : Step.transition) =
  if t.Step.rule = Step.R_kill then budget - 1 else budget

(* The search's adversary bookkeeping, made only when [kills > 0], so
   the plain search allocates nothing for it: state [id] has
   [budget.(id)] kills left, and [enumerated.(i)] carries slice entry
   [i]'s [Step.enumerate] count from its expansion to its merge, where a
   [via] index at or past it is a kill. *)
type adversary = { budget : int vec; enumerated : int array }

let explore ?(config = Step.default_config) ?(max_states = 200_000)
    ?(jobs = 1) ?(kills = 0) ?watch init =
  (* Keyed on the fingerprint of (kill budget, state): the same state
     with more kills left has more futures. *)
  let visited = Visited.create 1024 in
  (* For witness paths: state [id > 0] was first reached from state
     [parent.(id)] by the [via.(id - 1)]-th transition of its
     [Step.enumerate] list (or, past its end, of the adversary's kills).
     An index, not the transition: a transition holds its successor,
     and every visited state would stay alive. *)
  let parent = vec () and via = vec () in
  (* The graph, for cycle detection: state [id]'s successors are
     [succ.(first.(id))] to [succ.(first.(id + 1) - 1)]. *)
  let first = vec () and succ = vec () in
  let terminals = ref [] and watch_hits = ref [] in
  let edges = ref 0 and truncated = ref false in
  let path_to id =
    let rec go id acc =
      if id = 0 then acc else go parent.data.(id) (via.data.(id - 1) :: acc)
    in
    go id []
  in
  (* The BFS consumes its FIFO frontier in slices: it expands a slice —
     [Step.enumerate] plus the successors' fingerprints, the pure and
     expensive part — and then merges it sequentially {e in frontier
     order}, appending new states to the frontier, before it takes the
     next slice. States enter the frontier in id order, so the [n]-th
     state taken has id [n]. The merge does exactly the table reads and
     writes of a plain FIFO loop, so visited ids, witness paths, the
     graph, terminal order, watch hits and truncation do not depend on
     the slice size. With [jobs = 1] a slice is one state, so a
     successor that is already visited dies young; with [jobs > 1] a
     slice of [slice_per_job * jobs] states is expanded on a domain
     pool. Only the frontier's states are live: a merged state and its
     successors are dropped from the slice arrays, so an expanded state
     survives only as a terminal or a watch hit. *)
  let pool = if jobs > 1 then Some (Par.Pool.create jobs) else None in
  Fun.protect ~finally:(fun () -> Option.iter Par.Pool.shutdown pool)
  @@ fun () ->
  Visited.add visited (State.fingerprint ~budget:kills init) 0;
  push parent (-1);
  let frontier = Queue.create () in
  Queue.add init frontier;
  let slice = if jobs > 1 then slice_per_job * jobs else 1 in
  let batch = Array.make slice init and expansions = Array.make slice [] in
  let expand i =
    expansions.(i) <-
      List.map
        (fun (t : Step.transition) ->
          (t.Step.next, State.fingerprint ~budget:0 t.Step.next))
        (Step.enumerate ~config batch.(i))
  in
  let expanded = ref 0 in
  let adversary =
    if kills > 0 then begin
      let budget = vec () in
      push budget kills;
      Some { budget; enumerated = Array.make slice 0 }
    end
    else None
  in
  let expand =
    match adversary with
    | None -> expand
    | Some a ->
        fun i ->
          let b = a.budget.data.(!expanded + i) and state = batch.(i) in
          let program = Step.enumerate ~config state in
          a.enumerated.(i) <- List.length program;
          expansions.(i) <-
            List.map
              (fun t ->
                (t.Step.next, State.fingerprint ~budget:(spend b t) t.Step.next))
              (with_kills b state program)
  in
  let merge id state successors =
    (match watch with
    | Some pred when pred state ->
        watch_hits :=
          { state; kind = classify config state; path = path_to id }
          :: !watch_hits
    | Some _ | None -> ());
    push first succ.len;
    match successors with
    | [] ->
        terminals :=
          { state; kind = classify config state; path = path_to id }
          :: !terminals
    | successors ->
        List.iteri
          (fun i (next_state, next_key) ->
            incr edges;
            match Visited.find_opt visited next_key with
            | Some next -> push succ next
            | None ->
                if parent.len >= max_states then truncated := true
                else begin
                  let next = parent.len in
                  Visited.add visited next_key next;
                  push succ next;
                  push parent id;
                  push via i;
                  Queue.add next_state frontier
                end)
          successors
  in
  while not (Queue.is_empty frontier) do
    let n = min slice (Queue.length frontier) in
    for i = 0 to n - 1 do
      batch.(i) <- Queue.take frontier
    done;
    (match pool with
    | None ->
        for i = 0 to n - 1 do
          expand i
        done
    | Some pool -> Par.Pool.run pool ~n expand);
    for i = 0 to n - 1 do
      let id = !expanded + i and fresh = parent.len in
      merge id batch.(i) expansions.(i);
      (match adversary with
      | None -> ()
      | Some a ->
          (* the states this merge created, reached from [id] *)
          for next = fresh to parent.len - 1 do
            let killed = via.data.(next - 1) >= a.enumerated.(i) in
            push a.budget (a.budget.data.(id) - if killed then 1 else 0)
          done);
      batch.(i) <- init;
      expansions.(i) <- []
    done;
    expanded := !expanded + n
  done;
  push first succ.len;
  (* Cycle detection: three-colour DFS over the collected graph, from the
     initial state. A back edge means some execution never terminates.
     [cursor.(id)] is the next of [id]'s successors to follow. *)
  let has_cycle =
    let n = parent.len in
    let colour = Bytes.make n 'w' and cursor = Array.sub first.data 0 n in
    let stack = Array.make n 0 and top = ref 0 in
    let found = ref false in
    Bytes.set colour 0 'g';
    while !top >= 0 && not !found do
      let id = stack.(!top) in
      let i = cursor.(id) in
      if i = first.data.(id + 1) then begin
        Bytes.set colour id 'b';
        decr top
      end
      else begin
        cursor.(id) <- i + 1;
        let next = succ.data.(i) in
        match Bytes.get colour next with
        | 'g' -> found := true
        | 'w' ->
            Bytes.set colour next 'g';
            incr top;
            stack.(!top) <- next
        | _ -> ()
      end
    done;
    !found
  in
  {
    visited = Visited.length visited;
    edges = !edges;
    terminals = List.rev !terminals;
    truncated = !truncated;
    watch_hits = List.rev !watch_hits;
    has_cycle;
  }

(* A kill's index lies past its state's [Step.enumerate] list, and
   [Step.kills] depends only on the state, so offering the kills at
   every step replays a path taken under any budget. *)
let witness ?(config = Step.default_config) init path =
  let rec go state acc = function
    | [] -> List.rev acc
    | i :: path -> (
        match
          List.nth_opt (with_kills 1 state (Step.enumerate ~config state)) i
        with
        | Some t -> go t.Step.next (t :: acc) path
        | None -> invalid_arg "Space.witness: no such transition")
  in
  go init [] path

let terminal_kinds result =
  List.sort_uniq compare (List.map (fun t -> t.kind) result.terminals)

let pp_terminal_kind ppf = function
  | Completed (State.Done v) ->
      Fmt.pf ppf "completed(%s)" (Ch_lang.Pretty.term_to_string v)
  | Completed (State.Threw e) -> Fmt.pf ppf "uncaught(#%s)" e
  | Deadlock -> Fmt.string ppf "deadlock"
  | Divergent -> Fmt.string ppf "divergent"
  | Wedged m -> Fmt.pf ppf "wedged(%s)" m
