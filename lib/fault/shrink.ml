let set_nth plan i inj = List.mapi (fun j x -> if j = i then inj else x) plan

let earlier at =
  if at = 0 then [] else List.sort_uniq compare [ 0; at / 2; at - 1 ]

let candidates plan =
  let drops =
    List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) plan) plan
  in
  let moves =
    List.concat
      (List.mapi
         (fun i (inj : Plan.injection) ->
           List.map
             (fun k -> set_nth plan i { inj with Plan.at_step = k })
             (earlier inj.Plan.at_step))
         plan)
  in
  drops @ moves

let minimize fails plan =
  if not (fails plan) then plan
  else
    let rec go plan =
      match List.find_opt fails (candidates plan) with
      | Some smaller -> go smaller
      | None -> plan
    in
    go plan
