(** Evaluation contexts (paper §6.2 and §6.3).

    The paper's contexts are
    {v
    E ::= [.] | E >>= M | catch E M                 (Figure 4)
    𝔽 ::= [.] | 𝔽 >>= M | catch 𝔽 M
    𝔼 ::= 𝔽 | 𝔽[block 𝔼] | 𝔽[unblock 𝔼]            (split-level, §6.3)
    v}
    We represent a decomposed term as a redex plus a stack of context
    frames, innermost first. Decomposition follows the paper's convention
    that contexts are maximal: it descends through the first argument of
    [>>=] and [catch] and through the bodies of [block] and [unblock], so
    the redex is never itself of the form [block N] (the side condition of
    rule (Receive) holds by construction). *)

open Ch_lang

type frame =
  | F_bind of Term.term  (** [[.] >>= M] *)
  | F_catch of Term.term  (** [catch [.] M] *)
  | F_block  (** [block [.]] *)
  | F_unblock  (** [unblock [.]] *)

type zipper = { frames : frame list;  (** innermost first *) redex : Term.term }

val decompose : Term.term -> zipper
val recompose : zipper -> Term.term

type mask = Masked | Unmasked

val mask_of : frame list -> mask
(** The mask state at the evaluation site: decided by the innermost
    {!F_block} / {!F_unblock} frame. A context with no mask frames is
    [Unmasked]: the paper leaves this case open (its (Receive) rule
    requires an enclosing [unblock]), and its implementation section starts
    threads unblocked. *)

val with_redex : zipper -> Term.term -> Term.term
(** [with_redex z m] recomposes [z] with its redex replaced by [m]. *)
