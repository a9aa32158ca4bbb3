open Hio.Io

type t = { expires : int }

let mint budget = now >>= fun t -> return { expires = t + max 0 budget }
let remaining d = now >>= fun t -> return (d.expires - t)
let expired d = now >>= fun t -> return (t >= d.expires)

let timeout d io =
  now >>= fun t ->
  let r = d.expires - t in
  if r <= 0 then return None else Hio_std.Combinators.timeout r io
