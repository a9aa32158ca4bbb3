(** Graphviz export of the reachable state space: every node is a program
    state (mod structural congruence), every edge one rule application of
    Figures 4/5. Useful for visualizing how an asynchronous exception's
    delivery points fan out — the §5.1 race is a pair of paths that
    separate at a (Receive) edge and never rejoin. *)

open Ch_semantics

val dot :
  ?config:Step.config ->
  ?max_states:int ->
  State.t ->
  string
(** Render the reachable graph (bounded by [max_states], default 2000) in
    DOT syntax. Each node is labelled with its numeric id; terminal
    states are shaped by kind (completion, deadlock, …). *)

val write : path:string -> string -> unit
(** Write the rendered graph to a file. *)
