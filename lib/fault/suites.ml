let kill (case, target) ~max_points ~max_sites:_ ~kills_per_point:_ ~jobs
    ~domains =
  Sweep.sweep ?max_points ~jobs ~domains ~target case

let chaos case ~max_points:_ ~max_sites ~kills_per_point ~jobs ~domains =
  Io_sweep.sweep ~max_sites_per_op:max_sites ~kills_per_point ~jobs ~domains
    case

let overload case ~max_points:_ ~max_sites:_ ~kills_per_point ~jobs
    ~domains:_ =
  Load_sweep.sweep ~kills_per_ramp:kills_per_point ~jobs case

let all =
  [
    ("std", List.map (fun c -> kill (c, Plan.Acting)) Cases.std);
    ("server", List.map (fun t -> kill (Cases.server, t)) Cases.server_targets);
    ("sup", List.map kill Cases.sup);
    ("actor", List.map kill Cases.actor);
    ("chaos", List.map chaos Io_cases.chaos);
    ("overload", List.map overload Load_cases.overload);
  ]
