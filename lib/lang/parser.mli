(** Recursive-descent parser for the surface syntax.

    Grammar (loosest binding first):
    {v
    expr  ::= \ x1 .. xn -> expr
            | let [rec] x = expr in expr
            | if expr then expr else expr
            | case expr of { alt ; ... }
            | do { stmt ; ... ; expr }
            | bind
    bind  ::= cmp ((">>=" | ">>") cmp)*          -- a lambda/let/if/case/do
                                                 -- as right operand extends
                                                 -- to the end of the input
    cmp   ::= add [("==" | "/=" | "<" | "<=") add]
    add   ::= mul (("+" | "-") mul)*
    mul   ::= app (("*" | "/") app)*
    app   ::= atom+
    atom  ::= int | 'c' | #Exn | ident | Con | () | (expr) | (expr, expr)
    stmt  ::= x <- expr | let x = expr | expr
    alt   ::= Con x1 .. xn -> expr | x -> expr
    v}

    The primitive names [return], [raise], [fix], [putChar], [getChar],
    [newEmptyMVar], [takeMVar], [putMVar], [sleep], [throw], [catch],
    [throwTo], [block], [unblock], [forkIO], [myThreadId] are reserved: they
    parse to the corresponding {!Term.term} constructors, eta-expanded when
    partially applied. *)

exception
  Parse_error of { line : int; col : int; message : string }

val parse : string -> Term.term
(** Parse a complete program.
    @raise Parse_error on syntax errors,
    @raise Lexer.Lex_error on lexical errors. *)
