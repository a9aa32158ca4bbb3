(** A list prelude for the object language ([Cons]/[Nil], as produced by
    string literals): the purely-functional workload that dominates real
    Concurrent Haskell programs ("most of the time is spent in
    purely-functional code", §2).

    All definitions are call-by-name and work on {e infinite} lists where
    Haskell's do ([take], [map], [filter], [zipWith], …) — the test suite
    runs them on both the substitution-based evaluator and the sharing
    graph-reduction machine, where the classic [fibs] knot demonstrates
    why sharing matters. *)

open Ch_lang

val with_list_prelude : Term.term -> Term.term
(** Bind the whole prelude around a program, in dependency order: [map],
    [filter], [foldr], [foldl], [append], [length], [take], [drop],
    [head], [tail], [repeat], [iterate], [zipWith], [range], [sum],
    [reverse] (earlier definitions are in scope for later ones). *)
