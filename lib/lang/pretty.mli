(** Pretty-printer for terms, producing the concrete syntax accepted by
    {!Parser} (so that [parse (print m)] round-trips modulo sugar). *)

val pp_term : Format.formatter -> Term.term -> unit
val term_to_string : Term.term -> string

val prim_op_symbol : Term.prim_op -> string
(** The operator as written in source, e.g. ["/="]. *)

