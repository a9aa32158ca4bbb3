open Ch_semantics

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

module Table = State.Fingerprint.Table

let dot ?(config = Step.default_config) ?(max_states = 2_000) init =
  let ids = Table.create 256 in
  let nodes = Buffer.create 1024 and edges = Buffer.create 1024 in
  let queue = Queue.create () in
  let next_id = ref 0 in
  let id_of state =
    let key = State.fingerprint ~budget:0 state in
    match Table.find_opt ids key with
    | Some id -> (id, false)
    | None ->
        let id = !next_id in
        incr next_id;
        Table.add ids key id;
        (id, true)
  in
  let node_decl id state transitions =
    let shape, color =
      if transitions <> [] then ("ellipse", "black")
      else
        match State.main_result state with
        | Some (State.Done _) -> ("doublecircle", "darkgreen")
        | Some (State.Threw _) -> ("doubleoctagon", "firebrick")
        | None -> ("octagon", "orange") (* deadlock / wedged / divergent *)
    in
    Buffer.add_string nodes
      (Printf.sprintf "  n%d [label=\"%d\", shape=%s, color=%s];\n" id id
         shape color)
  in
  let s0, _ = id_of init in
  Queue.add (init, s0) queue;
  let truncated = ref false in
  while not (Queue.is_empty queue) do
    let state, id = Queue.pop queue in
    let transitions = Step.enumerate ~config state in
    node_decl id state transitions;
    List.iter
      (fun (t : Step.transition) ->
        let target_id, fresh = id_of t.Step.next in
        if fresh then
          if Table.length ids > max_states then truncated := true
          else Queue.add (t.Step.next, target_id) queue;
        if Table.length ids <= max_states || not fresh then
          Buffer.add_string edges
            (Printf.sprintf "  n%d -> n%d [label=\"%s\"%s];\n" id target_id
               (escape (Step.rule_name t.Step.rule))
               (match t.Step.rule with
               | Step.R_receive | Step.R_interrupt -> ", color=firebrick"
               | Step.R_throw_to -> ", color=darkorange"
               | _ -> "")))
      transitions
  done;
  Printf.sprintf
    "digraph lts {\n  rankdir=TB;\n  node [fontsize=10];\n  edge [fontsize=8];\n%s%s%s}\n"
    (Buffer.contents nodes) (Buffer.contents edges)
    (if !truncated then "  trunc [label=\"(truncated)\", shape=plaintext];\n"
     else "")

let write ~path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc
