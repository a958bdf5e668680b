module Workload = Cpool_intf.Workload

(* Sojourn histograms: log-scaled from 0.1 µs to 10 s, 20 bins per decade.
   Every domain records into its own histogram; they merge after the join
   and percentiles come out of the buckets, so no run ever stores samples. *)
let sojourn_lo_us = 0.1

let sojourn_hi_us = 1e7

let sojourn_bins = 160

let sojourn_histogram () =
  Cpool_metrics.Histogram.create_log ~lo:sojourn_lo_us ~hi:sojourn_hi_us
    ~bins:sojourn_bins

module Arrival = struct
  type spec =
    | Poisson of { mean_gap_ns : float }
    | Bursty of {
        burst_gap_ns : float; (* mean gap while a burst is on *)
        on_mean_ns : float;
        off_mean_ns : float;
        mutable window_left_ns : float; (* rest of the current on-window *)
      }

  type t = { rng : Cpool_util.Rng.t; spec : spec }

  (* Exponential with the given mean; [1.0 -. u] keeps the log argument in
     (0, 1] so the draw is always finite. *)
  let exp_draw rng mean = -.mean *. log (1.0 -. Cpool_util.Rng.float rng 1.0)

  let create (a : Workload.arrival) ~rate ~rng =
    if not (rate > 0.0) then
      invalid_arg "Mc_siege.Arrival.create: rate must be positive";
    match a with
    | Workload.Closed ->
      invalid_arg "Mc_siege.Arrival.create: closed-loop workload"
    | Workload.Poisson _ -> { rng; spec = Poisson { mean_gap_ns = 1e9 /. rate } }
    | Workload.Bursty { on_ms; off_ms; _ } ->
      (* [rate] is the long-run average, so while a burst is on the
         instantaneous rate is scaled by the duty cycle's inverse. *)
      let on_mean_ns = on_ms *. 1e6 and off_mean_ns = off_ms *. 1e6 in
      let burst_rate = rate *. (on_mean_ns +. off_mean_ns) /. on_mean_ns in
      {
        rng;
        spec =
          Bursty
            {
              burst_gap_ns = 1e9 /. burst_rate;
              on_mean_ns;
              off_mean_ns;
              window_left_ns = exp_draw rng on_mean_ns;
            };
      }

  let next_gap_ns t =
    match t.spec with
    | Poisson { mean_gap_ns } ->
      max 1 (int_of_float (exp_draw t.rng mean_gap_ns))
    | Bursty b ->
      let gap = ref 0.0 in
      let arrival_gap = ref (exp_draw t.rng b.burst_gap_ns) in
      while !arrival_gap > b.window_left_ns do
        (* The on-window closes before this arrival lands: spend the rest
           of the window plus an off sojourn, then redraw from the start of
           the next window — the exponential is memoryless, so redrawing
           keeps the within-burst process Poisson. *)
        gap := !gap +. b.window_left_ns +. exp_draw t.rng b.off_mean_ns;
        b.window_left_ns <- exp_draw t.rng b.on_mean_ns;
        arrival_gap := exp_draw t.rng b.burst_gap_ns
      done;
      b.window_left_ns <- b.window_left_ns -. !arrival_gap;
      max 1 (int_of_float (gap.contents +. !arrival_gap))
end

type config = {
  pool : Mc_pool.Config.t;
  workload : Workload.t;
  seed : int;
  p99_bound_us : float;
  max_rate : float;
  bisect_steps : int;
}

let default =
  {
    pool = { Mc_pool.Config.default with segments = 4 };
    workload = Workload.siege;
    seed = 42;
    p99_bound_us = 10_000.0;
    max_rate = 1e6;
    bisect_steps = 3;
  }

type point = {
  offered : float; (* arrivals/s across all producers *)
  duration : float;
  generated : int;
  completed : int;
  rejected : int;
  backlog : int; (* pool size at the deadline instant *)
  lagged : int; (* arrivals the generator delivered > 5 ms late *)
  throughput : float;
  p50_us : float;
  p90_us : float;
  p99_us : float;
  p999_us : float;
  broken : bool;
  violations : string list; (* Mc_run's invariant checks; not serialised *)
}

type outcome = {
  config : config;
  points : point list; (* ascending offered load *)
  saturation_rate : float option; (* lowest broken offered load *)
  max_good_rate : float option; (* highest offered load that held *)
}

type role = Producer | Consumer | Both

let roles ~segments (arrangement : Workload.arrangement) =
  match arrangement with
  | Workload.Uniform -> Array.make segments Both
  | Workload.Balanced k ->
    if k >= segments then
      invalid_arg "Mc_siege.run: balanced producers must leave a consumer";
    let r = Array.make segments Consumer in
    (* Spread the producers evenly around the ring, so with a topology they
       land across locality groups. *)
    for j = 0 to k - 1 do
      r.(j * segments / k) <- Producer
    done;
    r
  | Workload.Unbalanced k ->
    if k >= segments then
      invalid_arg "Mc_siege.run: unbalanced producers must leave a consumer";
    let r = Array.make segments Consumer in
    (* Pack them into the contiguous low slots — one locality group when
       the topology has groups of that size (the paper's skewed case). *)
    for j = 0 to k - 1 do
      r.(j) <- Producer
    done;
    r

let validate cfg =
  if Workload.closed cfg.workload then
    invalid_arg "Mc_siege.run: the siege harness is open-loop only";
  ignore (roles ~segments:cfg.pool.Mc_pool.Config.segments cfg.workload.arrangement);
  if not (cfg.p99_bound_us > 0.0) then
    invalid_arg "Mc_siege.run: p99_bound_us must be positive";
  if cfg.bisect_steps < 0 then
    invalid_arg "Mc_siege.run: bisect_steps must be non-negative";
  match Workload.offered_rate cfg.workload with
  | Some r when r > cfg.max_rate ->
    invalid_arg "Mc_siege.run: the workload's rate exceeds max_rate"
  | Some _ -> ()
  | None -> invalid_arg "Mc_siege.run: the siege harness is open-loop only"

(* Breaking-point predicate: a point is broken when latency blew through
   the bound, the backlog outgrew any plausible drain, adds started
   bouncing off the capacity, the generator itself could not sustain the
   schedule, or nothing completed at all. *)
let is_broken cfg p =
  (p.generated > 0 && p.completed = 0)
  || p.rejected > p.generated / 20
  || p.backlog > max 64 (p.generated / 5)
  || p.lagged > p.generated / 10
  || ((not (Float.is_nan p.p99_us)) && p.p99_us > cfg.p99_bound_us)

let lag_slack_ns = 5_000_000

(* One domain per segment, on the shared Mc_run scaffold. Producers run the
   absolute schedule [next := next + gap] from the instant the window
   opens: a slow enqueue does not thin the offered load, it shows up as
   lateness (and [lagged] once > 5 ms behind) — the open-loop property
   closed loops lack. Elements are enqueue timestamps, so the consuming
   side prices each element's whole sojourn. A consumer's phase is empty:
   the scaffold's drain — blocking removes until every worker searches an
   empty pool — is its whole job, and producers join that drain at the
   deadline, so even a uniform arrangement ends with the pool empty. *)
let run_point cfg offered =
  let segments = cfg.pool.Mc_pool.Config.segments in
  let role = roles ~segments cfg.workload.arrangement in
  let producers =
    Array.fold_left (fun n r -> if r = Consumer then n else n + 1) 0 role
  in
  let per_rate = offered /. float_of_int producers in
  let arrival = Workload.(with_rate cfg.workload offered).arrival in
  let duration_ns = Cpool_util.Clock.ns_of_s cfg.workload.duration_s in
  let hists = Array.init segments (fun _ -> sojourn_histogram ()) in
  let lagged = Array.make segments 0 in
  let record (w : Mc_run.worker) ts =
    Cpool_metrics.Histogram.add hists.(w.index)
      (float_of_int (Cpool_util.Clock.now_ns () - ts) /. 1e3)
  in
  let phase pool (w : Mc_run.worker) ~deadline_ns =
    match role.(w.index) with
    | Consumer -> ()
    | Producer | Both ->
      let rng = Cpool_util.Rng.create (Int64.of_int ((cfg.seed * 4099) + w.index + 1)) in
      let arr = Arrival.create arrival ~rate:per_rate ~rng in
      let next = ref (deadline_ns - duration_ns) in
      let running = ref true in
      while !running do
        next := !next + Arrival.next_gap_ns arr;
        if !next >= deadline_ns then running := false
        else begin
          let rec wait () =
            if Cpool_util.Clock.now_ns () < !next then begin
              (* A uniform worker consumes between its own arrivals. *)
              if role.(w.index) = Both then
                Option.iter (record w) (Mc_run.remove pool w ~blocking:false);
              if !next - Cpool_util.Clock.now_ns () > 2_000_000 then
                Unix.sleepf 0.0005
              else Domain.cpu_relax ();
              wait ()
            end
          in
          wait ();
          let now = Cpool_util.Clock.now_ns () in
          if now - !next > lag_slack_ns then lagged.(w.index) <- lagged.(w.index) + 1;
          ignore (Mc_run.add pool w now : bool)
        end
      done
  in
  (* Prefill (siege cells default to 0) is stamped at fill time, so leftover
     stock drains first and its sojourn counts from the start of load. *)
  let o =
    Mc_run.run cfg.pool ~initial:cfg.workload.initial
      ~fill:(fun _ -> Cpool_util.Clock.now_ns ())
      ~duration_s:cfg.workload.duration_s ~phase ~consume:record
  in
  let hist = sojourn_histogram () in
  Array.iter (Cpool_metrics.Histogram.merge hist) hists;
  let pct p = Cpool_metrics.Histogram.percentile hist p in
  let point =
    {
      offered;
      duration = o.elapsed_s;
      generated = o.adds + o.rejects;
      completed = o.removes;
      rejected = o.rejects;
      backlog = o.backlog;
      lagged = Array.fold_left ( + ) 0 lagged;
      throughput = float_of_int o.removes /. Float.max 1e-9 o.elapsed_s;
      p50_us = pct 50.0;
      p90_us = pct 90.0;
      p99_us = pct 99.0;
      p999_us = pct 99.9;
      broken = false;
      violations = o.violations;
    }
  in
  { point with broken = is_broken cfg point }

let run cfg =
  validate cfg;
  let start = Option.get (Workload.offered_rate cfg.workload) in
  let points = ref [] in
  let measure rate =
    let p = run_point cfg rate in
    points := p :: !points;
    p
  in
  (* Geometric ramp to the first broken rate (or max_rate), then a
     geometric bisection of the last-good/first-bad bracket: offered loads
     are ratios, so the midpoint lives in log space. *)
  let rec ramp rate last_good =
    let p = measure rate in
    if p.broken then (last_good, Some rate)
    else if rate >= cfg.max_rate then (Some rate, None)
    else ramp (Float.min (rate *. 2.0) cfg.max_rate) (Some rate)
  in
  let good, bad = ramp start None in
  let rec bisect steps lo hi =
    if steps <= 0 then ()
    else begin
      let mid = sqrt (lo *. hi) in
      if mid <= lo || mid >= hi then ()
      else
        let p = measure mid in
        if p.broken then bisect (steps - 1) lo mid else bisect (steps - 1) mid hi
    end
  in
  (match (good, bad) with
  | Some lo, Some hi -> bisect cfg.bisect_steps lo hi
  | _ -> ());
  let points =
    List.sort (fun a b -> Float.compare a.offered b.offered) !points
  in
  let broken_rates =
    List.filter_map (fun p -> if p.broken then Some p.offered else None) points
  in
  let good_rates =
    List.filter_map (fun p -> if p.broken then None else Some p.offered) points
  in
  {
    config = cfg;
    points;
    saturation_rate =
      (match broken_rates with [] -> None | r :: _ -> Some r);
    max_good_rate =
      (match List.rev good_rates with [] -> None | r :: _ -> Some r);
  }

let cell_label o =
  let c = o.config in
  Printf.sprintf "%s/%dd/%s%s"
    (Cpool_intf.to_string c.pool.Mc_pool.Config.kind)
    c.pool.Mc_pool.Config.segments
    (Workload.label c.workload)
    (match c.pool.Mc_pool.Config.topology with
    | None -> ""
    | Some _ ->
      if c.pool.Mc_pool.Config.topology_aware then "/topo" else "/topo-blind")

let violations o =
  List.concat_map
    (fun p -> List.map (Printf.sprintf "at %.0f/s: %s" p.offered) p.violations)
    o.points

let render outcomes =
  let buf = Buffer.create 1024 in
  List.iter
    (fun o ->
      let row p =
        [
          Printf.sprintf "%.0f" p.offered;
          Printf.sprintf "%.0f" p.throughput;
          Cpool_metrics.Render.float_cell p.p50_us;
          Cpool_metrics.Render.float_cell p.p99_us;
          Cpool_metrics.Render.float_cell p.p999_us;
          string_of_int p.backlog;
          string_of_int p.rejected;
          string_of_int p.lagged;
          (if p.broken then "BROKEN" else "ok");
        ]
      in
      Buffer.add_string buf
        (Cpool_metrics.Render.table
           ~title:(Printf.sprintf "mc-siege %s" (cell_label o))
           ~headers:
             [
               "offered/s"; "completed/s"; "p50 µs"; "p99 µs"; "p99.9 µs";
               "backlog"; "rejected"; "lagged"; "verdict";
             ]
           ~rows:(List.map row o.points) ());
      (match o.saturation_rate with
      | Some r ->
        Buffer.add_string buf
          (Printf.sprintf "saturation: breaks at %.0f arrivals/s%s\n" r
             (match o.max_good_rate with
             | Some g -> Printf.sprintf " (held %.0f/s)" g
             | None -> ""))
      | None ->
        Buffer.add_string buf
          (Printf.sprintf "saturation: not reached up to %.0f arrivals/s\n"
             o.config.max_rate));
      List.iter
        (fun v -> Buffer.add_string buf ("INVARIANT VIOLATION " ^ v ^ "\n"))
        (violations o);
      Buffer.add_char buf '\n')
    outcomes;
  Buffer.contents buf

(* {2 JSON artifact} *)

(* siege-diff thresholds, stored in the artifact itself so the gate and
   the baseline travel together. Generous on purpose: CI machines are
   noisy, and the gate is for collapses (a search regression that halves
   the breaking point), not single-digit scatter. *)
let default_max_throughput_drop_pct = 75.0

let default_max_p99_inflation_pct = 900.0

let json_of_point p =
  let module J = Cpool_util.Json in
  J.Assoc
    [
      ("offered_per_sec", J.Float p.offered);
      ("duration_s", J.Float p.duration);
      ("generated", J.Int p.generated);
      ("completed", J.Int p.completed);
      ("rejected", J.Int p.rejected);
      ("backlog", J.Int p.backlog);
      ("lagged", J.Int p.lagged);
      ("throughput", J.Float p.throughput);
      ("p50_us", J.Float p.p50_us);
      ("p90_us", J.Float p.p90_us);
      ("p99_us", J.Float p.p99_us);
      ("p999_us", J.Float p.p999_us);
      ("broken", J.Bool p.broken);
    ]

let json_of_outcome o =
  let module J = Cpool_util.Json in
  let c = o.config in
  let opt_rate = function None -> J.Null | Some r -> J.Float r in
  J.Assoc
    ([
       ("kind", J.Str (Cpool_intf.to_string c.pool.Mc_pool.Config.kind));
       ("workload", J.Str (Workload.to_string c.workload));
       ("domains", J.Int c.pool.Mc_pool.Config.segments);
       ( "capacity",
         match c.pool.Mc_pool.Config.capacity with
         | None -> J.Null
         | Some cap -> J.Int cap );
       ("seed", J.Int c.seed);
       ("p99_bound_us", J.Float c.p99_bound_us);
       ("max_rate", J.Float c.max_rate);
       ("bisect_steps", J.Int c.bisect_steps);
     ]
    @ (match c.pool.Mc_pool.Config.topology with
      | None -> []
      | Some topo ->
        [
          (* The full config text, not just the label, so siege-diff can
             reconstruct and rerun the exact cell. *)
          ("topology_config", J.Str (Cpool_topology.to_string topo));
          ("topology_aware", J.Bool c.pool.Mc_pool.Config.topology_aware);
        ])
    @ [
        ("points", J.List (List.map json_of_point o.points));
        ("saturation_rate", opt_rate o.saturation_rate);
        ("max_good_rate", opt_rate o.max_good_rate);
      ])

let to_json outcomes =
  let module J = Cpool_util.Json in
  J.Assoc
    [
      ("benchmark", J.Str "mc-siege");
      ("max_throughput_drop_pct", J.Float default_max_throughput_drop_pct);
      ("max_p99_inflation_pct", J.Float default_max_p99_inflation_pct);
      ("cells", J.List (List.map json_of_outcome outcomes));
    ]

(* {2 Validation, reconstruction, regression gate} *)

let validate_json doc =
  let module J = Cpool_util.Json in
  let ( let* ) = Result.bind in
  let* bench = J.field "benchmark" doc in
  let* () =
    match bench with
    | J.Str "mc-siege" -> Ok ()
    | _ -> Error "field \"benchmark\" is not \"mc-siege\""
  in
  let* _ = J.number "max_throughput_drop_pct" doc in
  let* _ = J.number "max_p99_inflation_pct" doc in
  let* cells = J.field "cells" doc in
  match J.to_list cells with
  | None -> Error "field \"cells\" is not a list"
  | Some cs ->
    let check_point i j p =
      let where e = Printf.sprintf "cell %d point %d: %s" i j e in
      let* offered = Result.map_error where (J.number "offered_per_sec" p) in
      let* completed = Result.map_error where (J.number "completed" p) in
      let* _ = Result.map_error where (J.number "generated" p) in
      let* _ = Result.map_error where (J.number "throughput" p) in
      let* _ = Result.map_error where (J.number "backlog" p) in
      let* () =
        match J.member "broken" p with
        | Some (J.Bool _) -> Ok ()
        | Some _ | None -> Error (where "missing boolean \"broken\"")
      in
      (* A point that completed work must carry real percentiles (an empty
         histogram serialises its NaN as null) in sane order. *)
      let* () =
        if completed <= 0.0 then Ok ()
        else
          let* p50 = Result.map_error where (J.number "p50_us" p) in
          let* p99 = Result.map_error where (J.number "p99_us" p) in
          if p50 > p99 then
            Error (where (Printf.sprintf "p50 %.3f > p99 %.3f" p50 p99))
          else Ok ()
      in
      Ok offered
    in
    let check_cell i c =
      let where e = Printf.sprintf "cell %d: %s" i e in
      let* kind = Result.map_error where (J.field "kind" c) in
      let* () =
        match kind with
        | J.Str s ->
          Result.map_error where
            (Result.map (fun (_ : Cpool_intf.kind) -> ()) (Cpool_intf.of_string s))
        | _ -> Error (where "field \"kind\" is not a string")
      in
      let* wl = Result.map_error where (J.field "workload" c) in
      let* () =
        match wl with
        | J.Str s ->
          let* w = Result.map_error where (Workload.of_string s) in
          if Workload.closed w then
            Error (where "workload is closed-loop in a siege artifact")
          else Ok ()
        | _ -> Error (where "field \"workload\" is not a string")
      in
      let* _ = Result.map_error where (J.number "domains" c) in
      let* max_rate = Result.map_error where (J.number "max_rate" c) in
      let* () =
        match J.member "topology_config" c with
        | None -> Ok ()
        | Some (J.Str s) ->
          Result.map_error
            (fun e -> where ("bad topology_config: " ^ e))
            (Result.map (fun (_ : Cpool_topology.t) -> ()) (Cpool_topology.parse s))
        | Some _ -> Error (where "field \"topology_config\" is not a string")
      in
      let* points = Result.map_error where (J.field "points" c) in
      let* ps =
        match J.to_list points with
        | Some (_ :: _ as ps) -> Ok ps
        | Some [] -> Error (where "empty \"points\"")
        | None -> Error (where "field \"points\" is not a list")
      in
      let* offereds =
        List.fold_left
          (fun acc (j, p) ->
            let* rs = acc in
            let* r = check_point i j p in
            Ok (r :: rs))
          (Ok [])
          (List.mapi (fun j p -> (j, p)) ps)
      in
      let offereds = List.rev offereds in
      (* The curve must sweep strictly upward — duplicated or shuffled
         load points mean the search mis-assembled it. *)
      let rec monotone = function
        | a :: (b :: _ as rest) ->
          if a >= b then
            Error
              (where
                 (Printf.sprintf "offered loads not strictly increasing (%g >= %g)" a b))
          else monotone rest
        | _ -> Ok ()
      in
      let* () = monotone offereds in
      let lo = List.hd offereds and hi = List.nth offereds (List.length offereds - 1) in
      let* () =
        match J.member "saturation_rate" c with
        | Some J.Null | None -> Ok ()
        | Some v -> (
          match J.to_number v with
          | None -> Error (where "field \"saturation_rate\" is not a number or null")
          | Some r ->
            if r < lo || r > hi then
              Error
                (where
                   (Printf.sprintf
                      "saturation_rate %g outside the swept range [%g, %g]" r lo hi))
            else Ok ())
      in
      let* () =
        if hi > max_rate *. 1.000001 then
          Error
            (where (Printf.sprintf "swept load %g exceeds max_rate %g" hi max_rate))
        else Ok ()
      in
      Ok ()
    in
    let rec all i = function
      | [] -> Ok (List.length cs)
      | c :: rest ->
        let* () = check_cell i c in
        all (i + 1) rest
    in
    all 0 cs

let config_of_cell_json c =
  let module J = Cpool_util.Json in
  let ( let* ) = Result.bind in
  let* kind =
    match J.member "kind" c with
    | Some (J.Str s) -> (
      match Cpool_intf.of_string s with
      | Ok Cpool_intf.Hinted ->
        Error "kind \"hinted\" is simulator-only; the real pool runs linear, random or tree"
      | r -> r)
    | _ -> Error "missing string \"kind\""
  in
  let* workload =
    match J.member "workload" c with
    | Some (J.Str s) -> Workload.of_string s
    | _ -> Error "missing string \"workload\""
  in
  let* domains = J.number "domains" c in
  let* seed = J.number "seed" c in
  let* p99_bound_us = J.number "p99_bound_us" c in
  let* max_rate = J.number "max_rate" c in
  let* bisect_steps = J.number "bisect_steps" c in
  let capacity =
    match J.member "capacity" c with
    | Some v -> Option.map int_of_float (J.to_number v)
    | None -> None
  in
  let* topology =
    match J.member "topology_config" c with
    | None -> Ok None
    | Some (J.Str s) -> Result.map Option.some (Cpool_topology.parse s)
    | Some _ -> Error "field \"topology_config\" is not a string"
  in
  let topology_aware =
    match J.member "topology_aware" c with Some (J.Bool b) -> b | _ -> true
  in
  Ok
    {
      pool =
        {
          Mc_pool.Config.default with
          segments = int_of_float domains;
          kind;
          capacity;
          topology;
          topology_aware;
        };
      workload;
      seed = int_of_float seed;
      p99_bound_us;
      max_rate;
      bisect_steps = int_of_float bisect_steps;
    }

(* Cells pair across runs by everything that defines the experiment. *)
let cell_key c =
  let module J = Cpool_util.Json in
  let str name = match J.member name c with Some (J.Str s) -> s | _ -> "" in
  let num name =
    match Option.bind (J.member name c) J.to_number with
    | Some f -> Printf.sprintf "%g" f
    | None -> ""
  in
  let aware =
    match J.member "topology_aware" c with
    | Some (J.Bool b) -> string_of_bool b
    | _ -> ""
  in
  String.concat "|"
    [ str "kind"; str "workload"; num "domains"; str "topology_config"; aware ]

let diff ~baseline ~fresh =
  let module J = Cpool_util.Json in
  let ( let* ) = Result.bind in
  let* _ = validate_json baseline in
  let* _ = validate_json fresh in
  let* drop_pct = J.number "max_throughput_drop_pct" baseline in
  let* infl_pct = J.number "max_p99_inflation_pct" baseline in
  let cells doc = Option.get (J.to_list (Option.get (J.member "cells" doc))) in
  let fresh_cells = List.map (fun c -> (cell_key c, c)) (cells fresh) in
  let point_stats c =
    (* (best non-broken throughput, p99 at the lowest offered load) *)
    let ps = Option.get (J.to_list (Option.get (J.member "points" c))) in
    let best =
      List.fold_left
        (fun acc p ->
          match (J.member "broken" p, Option.bind (J.member "throughput" p) J.to_number)
          with
          | Some (J.Bool false), Some t -> Float.max acc t
          | _ -> acc)
        Float.neg_infinity ps
    in
    let first_p99 =
      Option.bind (J.member "p99_us" (List.hd ps)) J.to_number
    in
    (best, first_p99)
  in
  let regressions =
    List.concat_map
      (fun bc ->
        let label = cell_key bc in
        match List.assoc_opt label fresh_cells with
        | None -> [ Printf.sprintf "cell %s: missing from the fresh run" label ]
        | Some fc ->
          let b_best, b_p99 = point_stats bc in
          let f_best, f_p99 = point_stats fc in
          let throughput =
            if Float.is_finite b_best && b_best > 0.0 then
              if not (Float.is_finite f_best) then
                [
                  Printf.sprintf
                    "cell %s: no surviving load point (baseline held %.0f/s)"
                    label b_best;
                ]
              else
                let drop = (b_best -. f_best) /. b_best *. 100.0 in
                if drop > drop_pct then
                  [
                    Printf.sprintf
                      "cell %s: throughput dropped %.0f%% (%.0f -> %.0f per s, \
                       limit %.0f%%)"
                      label drop b_best f_best drop_pct;
                  ]
                else []
            else []
          in
          let latency =
            match (b_p99, f_p99) with
            | Some b, Some f when b > 0.0 ->
              let infl = (f -. b) /. b *. 100.0 in
              if infl > infl_pct then
                [
                  Printf.sprintf
                    "cell %s: p99 at the lightest load inflated %.0f%% (%.1f -> \
                     %.1f µs, limit %.0f%%)"
                    label infl b f infl_pct;
                ]
              else []
            | _ -> []
          in
          throughput @ latency)
      (cells baseline)
  in
  Ok regressions
