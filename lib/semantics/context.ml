open Ch_lang.Term

type frame = F_bind of term | F_catch of term | F_block | F_unblock
type zipper = { frames : frame list; redex : term }

let decompose term =
  let rec go frames = function
    | Bind (m, n) -> go (F_bind n :: frames) m
    | Catch (m, h) -> go (F_catch h :: frames) m
    | Block m -> go (F_block :: frames) m
    | Unblock m -> go (F_unblock :: frames) m
    | m -> { frames; redex = m }
  in
  go [] term

let recompose { frames; redex } =
  List.fold_left
    (fun m frame ->
      match frame with
      | F_bind n -> Bind (m, n)
      | F_catch h -> Catch (m, h)
      | F_block -> Block m
      | F_unblock -> Unblock m)
    redex frames

type mask = Masked | Unmasked

let mask_of frames =
  let rec go = function
    | [] -> Unmasked
    | F_block :: _ -> Masked
    | F_unblock :: _ -> Unmasked
    | (F_bind _ | F_catch _) :: rest -> go rest
  in
  go frames

let with_redex z m = recompose { z with redex = m }
