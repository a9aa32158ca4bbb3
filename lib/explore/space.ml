open Ch_semantics

type terminal_kind =
  | Completed of State.finished
  | Deadlock
  | Divergent
  | Wedged of string

type terminal = {
  state : State.t;
  kind : terminal_kind;
  path : Step.transition list;
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

let explore ?(config = Step.default_config) ?(max_states = 200_000)
    ?(jobs = 1) ?watch init =
  let visited : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  (* For witness paths: state [id > 0] was first reached from state
     [parent.(id)] by transition [via.(id - 1)]. *)
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
  (* The BFS is level-synchronous: each round snapshots the frontier (the
     FIFO queue's contents, in discovery order), expands every state —
     [Step.enumerate] plus the successors' [canonical_key]s, the pure and
     expensive part — and then merges sequentially {e in frontier order},
     doing exactly the Hashtbl reads/writes the plain FIFO loop would do.
     New states are appended in the same order a queue would append them,
     so visited ids, parent edges, the graph, terminal order, watch hits
     and truncation are all byte-identical to the sequential search.
     Ids are handed out in frontier order, so states are expanded in id
     order. With [jobs > 1] the expansion step is farmed to a domain
     pool; nothing else changes, so the result cannot depend on [jobs]. *)
  let pool = if jobs > 1 then Some (Par.Pool.create jobs) else None in
  Fun.protect ~finally:(fun () -> Option.iter Par.Pool.shutdown pool)
  @@ fun () ->
  Hashtbl.add visited (State.canonical_key init) 0;
  push parent (-1);
  let frontier = ref [ (init, 0) ] in
  let expand (state, _id) =
    List.map
      (fun (t : Step.transition) -> (t, State.canonical_key t.Step.next))
      (Step.enumerate ~config state)
  in
  while !frontier <> [] do
    let batch = Array.of_list !frontier in
    frontier := [];
    let expansions =
      match pool with
      | None -> Array.map expand batch
      | Some pool -> Par.Pool.map pool expand batch
    in
    let additions = ref [] in
    Array.iteri
      (fun i (state, id) ->
        (match watch with
        | Some pred when pred state ->
            watch_hits :=
              { state; kind = classify config state; path = path_to id }
              :: !watch_hits
        | Some _ | None -> ());
        push first succ.len;
        match expansions.(i) with
        | [] ->
            terminals :=
              { state; kind = classify config state; path = path_to id }
              :: !terminals
        | transitions ->
            List.iter
              (fun ((t : Step.transition), next_key) ->
                incr edges;
                match Hashtbl.find_opt visited next_key with
                | Some next -> push succ next
                | None ->
                    if parent.len >= max_states then truncated := true
                    else begin
                      let next = parent.len in
                      Hashtbl.add visited next_key next;
                      push succ next;
                      push parent id;
                      push via t;
                      additions := (t.Step.next, next) :: !additions
                    end)
              transitions)
      batch;
    frontier := List.rev !additions
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
    visited = Hashtbl.length visited;
    edges = !edges;
    terminals = List.rev !terminals;
    truncated = !truncated;
    watch_hits = List.rev !watch_hits;
    has_cycle;
  }

let terminal_kinds result =
  List.sort_uniq compare (List.map (fun t -> t.kind) result.terminals)

let pp_terminal_kind ppf = function
  | Completed (State.Done v) ->
      Fmt.pf ppf "completed(%s)" (Ch_lang.Pretty.term_to_string v)
  | Completed (State.Threw e) -> Fmt.pf ppf "uncaught(#%s)" e
  | Deadlock -> Fmt.string ppf "deadlock"
  | Divergent -> Fmt.string ppf "divergent"
  | Wedged m -> Fmt.pf ppf "wedged(%s)" m
