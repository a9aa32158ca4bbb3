open Term

let prim_op_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Eq -> "=="
  | Ne -> "/="
  | Lt -> "<"
  | Le -> "<="

let pp_prim_op ppf op = Fmt.string ppf (prim_op_symbol op)

(* Precedence levels: 0 lambda/let/if/case, 1 [>>=], 2 comparisons,
   3 additive, 4 multiplicative, 5 application, 6 atoms. *)

let prim_level = function
  | Eq | Ne | Lt | Le -> 2
  | Add | Sub -> 3
  | Mul | Div -> 4

let pp_char_lit ppf c =
  match c with
  | '\n' -> Fmt.string ppf "'\\n'"
  | '\t' -> Fmt.string ppf "'\\t'"
  | '\\' -> Fmt.string ppf "'\\\\'"
  | '\'' -> Fmt.string ppf "'\\''"
  | c -> Fmt.pf ppf "'%c'" c

let rec pp level ppf m =
  let paren lvl body =
    if level > lvl then Fmt.pf ppf "(%t)" body else body ppf
  in
  let app1 name a = paren 5 (fun ppf -> Fmt.pf ppf "%s %a" name (pp 6) a) in
  let app2 name a b =
    paren 5 (fun ppf -> Fmt.pf ppf "%s %a %a" name (pp 6) a (pp 6) b)
  in
  match m with
  | Var x -> Fmt.string ppf x
  | Lam _ ->
      let rec gather xs = function
        | Lam (x, body) -> gather (x :: xs) body
        | body -> (List.rev xs, body)
      in
      let xs, body = gather [] m in
      paren 0 (fun ppf ->
          Fmt.pf ppf "@[<2>\\%a ->@ %a@]"
            Fmt.(list ~sep:sp string)
            xs (pp 0) body)
  | App (a, b) ->
      paren 5 (fun ppf -> Fmt.pf ppf "@[<2>%a@ %a@]" (pp 5) a (pp 6) b)
  | Con (c, []) -> Fmt.string ppf c
  | Con ("(,)", [ a; b ]) -> Fmt.pf ppf "(%a, %a)" (pp 0) a (pp 0) b
  | Con (c, ms) ->
      paren 5 (fun ppf ->
          Fmt.pf ppf "@[<2>%s@ %a@]" c Fmt.(list ~sep:sp (pp 6)) ms)
  | Lit_int i -> if i < 0 then Fmt.pf ppf "(%d)" i else Fmt.int ppf i
  | Lit_char c -> pp_char_lit ppf c
  | Lit_exn e -> Fmt.pf ppf "#%s" e
  | Mvar i -> Fmt.pf ppf "%%m%d" i
  | Tid t -> Fmt.pf ppf "%%t%d" t
  | Prim (op, a, b) ->
      let lvl = prim_level op in
      (* Comparisons are non-associative in the grammar, so both operands
         need a higher level; arithmetic is left-associative. *)
      let left_lvl = if lvl = 2 then lvl + 1 else lvl in
      paren lvl (fun ppf ->
          Fmt.pf ppf "@[<2>%a %a@ %a@]" (pp left_lvl) a pp_prim_op op
            (pp (lvl + 1)) b)
  | If (c, t, e) ->
      paren 0 (fun ppf ->
          Fmt.pf ppf "@[<2>if %a@ then %a@ else %a@]" (pp 1) c (pp 1) t (pp 0)
            e)
  | Case (s, alts) ->
      paren 0 (fun ppf ->
          Fmt.pf ppf "@[<2>case %a of {@ %a }@]" (pp 1) s
            Fmt.(list ~sep:(any ";@ ") pp_alt)
            alts)
  | Let (x, Fix (Lam (f, def)), body) when String.equal x f ->
      paren 0 (fun ppf ->
          Fmt.pf ppf "@[<2>let rec %s =@ %a in@ %a@]" x (pp 1) def (pp 0) body)
  | Let (x, def, body) ->
      paren 0 (fun ppf ->
          Fmt.pf ppf "@[<2>let %s =@ %a in@ %a@]" x (pp 1) def (pp 0) body)
  | Fix a -> app1 "fix" a
  | Raise a -> app1 "raise" a
  | Return a -> app1 "return" a
  | Bind (a, b) ->
      paren 1 (fun ppf -> Fmt.pf ppf "@[<2>%a >>=@ %a@]" (pp 1) a (pp 2) b)
  | Put_char a -> app1 "putChar" a
  | Get_char -> Fmt.string ppf "getChar"
  | New_mvar -> Fmt.string ppf "newEmptyMVar"
  | Take_mvar a -> app1 "takeMVar" a
  | Put_mvar (a, b) -> app2 "putMVar" a b
  | Sleep a -> app1 "sleep" a
  | Throw a -> app1 "throw" a
  | Catch (a, b) -> app2 "catch" a b
  | Throw_to (a, b) -> app2 "throwTo" a b
  | Block a -> app1 "block" a
  | Unblock a -> app1 "unblock" a
  | Fork a -> app1 "forkIO" a
  | My_tid -> Fmt.string ppf "myThreadId"

and pp_alt ppf = function
  | Alt (c, [], body) -> Fmt.pf ppf "@[<2>%s ->@ %a@]" c (pp 0) body
  | Alt (c, xs, body) ->
      Fmt.pf ppf "@[<2>%s %a ->@ %a@]" c
        Fmt.(list ~sep:sp string)
        xs (pp 0) body
  | Default (x, body) -> Fmt.pf ppf "@[<2>%s ->@ %a@]" x (pp 0) body

let pp_term = pp 0
let term_to_string m = Fmt.str "%a" pp_term m
