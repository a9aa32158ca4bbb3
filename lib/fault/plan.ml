type target = Acting | Named of string
type injection = { at_step : int; target : target; exn : exn }
type t = injection list

let kill at_step = { at_step; target = Acting; exn = Hio.Io.Kill_thread }

let pp_target ppf = function
  | Acting -> Fmt.string ppf "acting"
  | Named n -> Fmt.pf ppf "%S" n

let pp_injection ppf { at_step; target; exn } =
  Fmt.pf ppf "%s into %a at step %d" (Printexc.to_string exn) pp_target
    target at_step

let pp ppf plan =
  Fmt.pf ppf "[@[<hv>%a@]]" (Fmt.list ~sep:Fmt.semi pp_injection) plan
