type kind = Linear | Random | Tree | Hinted

let all = [ Linear; Random; Tree ]

let to_string = function
  | Linear -> "linear"
  | Random -> "random"
  | Tree -> "tree"
  | Hinted -> "hinted"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "linear" -> Ok Linear
  | "random" -> Ok Random
  | "tree" -> Ok Tree
  | "hinted" -> Ok Hinted
  | _ ->
    Error
      (Printf.sprintf "unknown pool kind %S (valid kinds: %s)" s
         (String.concat ", " (List.map to_string (all @ [ Hinted ]))))

module Workload = struct
  type arrival =
    | Closed
    | Poisson of float
    | Bursty of { rate : float; on_ms : float; off_ms : float }

  type arrangement = Uniform | Balanced of int | Unbalanced of int

  type t = {
    mix : float;
    initial : int;
    arrival : arrival;
    duration_s : float;
    arrangement : arrangement;
  }

  let default =
    {
      mix = 0.5;
      initial = 32;
      arrival = Closed;
      duration_s = 1.0;
      arrangement = Uniform;
    }

  (* The paper's two closed-loop regimes: sufficient keeps every segment
     stocked, sparse runs the pool dry so removes mostly probe and steal. *)
  let sufficient = { default with mix = 0.65; initial = 256 }

  let sparse = { default with mix = 0.35; initial = 8 }

  (* The open-loop siege starting cell: two producers spread across the
     ring, everyone else consumes, arrivals Poisson at a deliberately easy
     rate (the saturation search ramps from here). *)
  let siege =
    {
      default with
      initial = 0;
      arrival = Poisson 2000.0;
      duration_s = 0.3;
      arrangement = Balanced 2;
    }

  let closed t = t.arrival = Closed

  let sparse_regime t = t.mix < 0.5

  let offered_rate t =
    match t.arrival with
    | Closed -> None
    | Poisson r -> Some r
    | Bursty { rate; _ } -> Some rate

  let with_rate t rate =
    match t.arrival with
    | Closed -> invalid_arg "Workload.with_rate: closed-loop workload"
    | Poisson _ -> { t with arrival = Poisson rate }
    | Bursty b -> { t with arrival = Bursty { b with rate } }

  let arrival_to_string = function
    | Closed -> "closed"
    | Poisson r -> Printf.sprintf "poisson:%g" r
    | Bursty { rate; on_ms; off_ms } ->
      Printf.sprintf "bursty:%g:%g:%g" rate on_ms off_ms

  let arrangement_to_string = function
    | Uniform -> "uniform"
    | Balanced k -> Printf.sprintf "balanced:%d" k
    | Unbalanced k -> Printf.sprintf "unbalanced:%d" k

  let to_string t =
    Printf.sprintf "mix=%g,initial=%d,arrival=%s,duration=%g,arrangement=%s"
      t.mix t.initial (arrival_to_string t.arrival) t.duration_s
      (arrangement_to_string t.arrangement)

  let mix_label t =
    if t.mix = sufficient.mix && t.initial = sufficient.initial then "sufficient"
    else if t.mix = sparse.mix && t.initial = sparse.initial then "sparse"
    else Printf.sprintf "mix%g/init%d" t.mix t.initial

  let label t =
    let base = mix_label t in
    let base =
      match t.arrival with
      | Closed -> base
      | a -> base ^ "+" ^ arrival_to_string a
    in
    match t.arrangement with
    | Uniform -> base
    | a -> base ^ "/" ^ arrangement_to_string a

  let valid_forms =
    String.concat "\n"
      [
        "a workload spec is a comma-separated list of key=value settings,";
        "optionally starting with a preset name:";
        "  presets:      sufficient  (65% adds, 256 initial per segment)";
        "                sparse      (35% adds, 8 initial per segment)";
        "                default     (50% adds, 32 initial per segment)";
        "                siege       (open-loop: poisson:2000, balanced:2, 0.3 s)";
        "  mix=F         add fraction in [0, 1] (the closed-loop op mix)";
        "  initial=N     elements prefilled per segment";
        "  duration=S    seconds of load (positive)";
        "  arrival=A     closed | poisson:RATE | bursty:RATE:ON_MS:OFF_MS";
        "                (RATE in arrivals/s across all producers)";
        "  arrangement=R uniform | balanced:K | unbalanced:K  (K producers)";
        "examples: \"sparse\", \"sufficient,duration=2\",";
        "          \"arrival=poisson:8000,arrangement=balanced:2,duration=0.5\"";
      ]

  let err fmt = Printf.ksprintf (fun msg -> Error (msg ^ "\n" ^ valid_forms)) fmt

  let parse_float ~what s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> Ok f
    | Some _ | None -> err "%s: %S is not a finite number" what s

  let parse_arrival s =
    match String.split_on_char ':' s with
    | [ "closed" ] -> Ok Closed
    | [ "poisson"; r ] -> (
      match parse_float ~what:"arrival rate" r with
      | Ok rate when rate > 0.0 -> Ok (Poisson rate)
      | Ok _ -> err "arrival rate must be positive in %S" s
      | Error _ as e -> e)
    | [ "bursty"; r; on_ms; off_ms ] -> (
      match
        ( parse_float ~what:"arrival rate" r,
          parse_float ~what:"burst on_ms" on_ms,
          parse_float ~what:"burst off_ms" off_ms )
      with
      | Ok rate, Ok on_ms, Ok off_ms ->
        if rate > 0.0 && on_ms > 0.0 && off_ms > 0.0 then
          Ok (Bursty { rate; on_ms; off_ms })
        else err "bursty rate/on_ms/off_ms must all be positive in %S" s
      | (Error _ as e), _, _ | _, (Error _ as e), _ | _, _, (Error _ as e) -> e)
    | _ -> err "bad arrival %S" s

  let parse_arrangement s =
    let producers what k =
      match int_of_string_opt k with
      | Some k when k >= 1 -> Ok k
      | Some _ | None -> err "%s needs a positive producer count, got %S" what k
    in
    match String.split_on_char ':' s with
    | [ "uniform" ] -> Ok Uniform
    | [ "balanced"; k ] -> Result.map (fun k -> Balanced k) (producers "balanced" k)
    | [ "unbalanced"; k ] ->
      Result.map (fun k -> Unbalanced k) (producers "unbalanced" k)
    | _ -> err "bad arrangement %S" s

  let preset = function
    | "default" -> Some default
    | "sufficient" -> Some sufficient
    | "sparse" -> Some sparse
    | "siege" -> Some siege
    | _ -> None

  let of_string s =
    let ( let* ) = Result.bind in
    let tokens =
      List.filter (fun tok -> tok <> "")
        (List.map String.trim
           (String.split_on_char ',' (String.lowercase_ascii (String.trim s))))
    in
    let base, settings =
      match tokens with
      | first :: rest when not (String.contains first '=') -> (
        match preset first with
        | Some w -> (Ok w, rest)
        | None -> (err "unknown workload preset %S" first, rest))
      | _ -> (Ok default, tokens)
    in
    let* base = base in
    let apply acc tok =
      let* w = acc in
      match String.index_opt tok '=' with
      | None -> err "expected key=value, got %S" tok
      | Some i -> (
        let key = String.sub tok 0 i in
        let v = String.sub tok (i + 1) (String.length tok - i - 1) in
        match key with
        | "mix" ->
          let* mix = parse_float ~what:"mix" v in
          if mix >= 0.0 && mix <= 1.0 then Ok { w with mix }
          else err "mix must be in [0, 1], got %g" mix
        | "initial" -> (
          match int_of_string_opt v with
          | Some initial when initial >= 0 -> Ok { w with initial }
          | Some _ | None -> err "initial must be a non-negative count, got %S" v)
        | "duration" ->
          let* duration_s = parse_float ~what:"duration" v in
          if duration_s > 0.0 then Ok { w with duration_s }
          else err "duration must be positive, got %g" duration_s
        | "arrival" ->
          let* arrival = parse_arrival v in
          Ok { w with arrival }
        | "arrangement" ->
          let* arrangement = parse_arrangement v in
          Ok { w with arrangement }
        | _ -> err "unknown workload key %S" key)
    in
    if tokens = [] then err "empty workload spec"
    else List.fold_left apply (Ok base) settings

  let equal = ( = )
end
