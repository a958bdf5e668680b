(* Command-line driver: regenerate any paper experiment, or measure and
   soak-test the real multicore pool.

   Examples:
     pools_bench list
     pools_bench run fig2 fig7 --preset quick
     pools_bench run all --trials 10
     pools_bench mc-throughput --domains 8 --seconds 2 --kind all --churn
     pools_bench mc-throughput --kind tree --capacity 32 --trace TRACE.json
     pools_bench mc-throughput --domains 4 --topology two-group:4
     pools_bench mc-throughput --topology topo/two_group.topo --domains 4

   Exit codes follow the pools_lint convention: 0 clean, 1 findings
   (invariant violations, invalid artifacts), 2 usage errors (bad flags,
   malformed values, nonexistent files). *)

open Cmdliner
open Cpool_experiments

(* A usage error: the command line itself is wrong. Mirrors pools_lint's
   treatment so exit 1 keeps meaning "the run found something". *)
let usage_error fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "pools_bench: %s@." msg;
      2)
    fmt

let apply_overrides cfg trials ops participants initial seed plies =
  let cfg = match trials with Some t -> { cfg with Exp_config.trials = t } | None -> cfg in
  let cfg = match ops with Some o -> { cfg with Exp_config.total_ops = o } | None -> cfg in
  let cfg =
    match participants with Some p -> { cfg with Exp_config.participants = p } | None -> cfg
  in
  let cfg =
    match initial with Some i -> { cfg with Exp_config.initial_elements = i } | None -> cfg
  in
  let cfg =
    match seed with Some s -> { cfg with Exp_config.base_seed = Int64.of_int s } | None -> cfg
  in
  match plies with Some p -> { cfg with Exp_config.app_plies = p } | None -> cfg

let preset_conv =
  let parse = function
    | "paper" -> Ok Exp_config.paper
    | "quick" -> Ok Exp_config.quick
    | s -> Error (`Msg (Printf.sprintf "unknown preset %S (expected paper or quick)" s))
  in
  let print fmt cfg = Format.pp_print_string fmt (Exp_config.name cfg) in
  Arg.conv (parse, print)

let preset =
  let doc = "Configuration preset: $(b,paper) (full fidelity, 10 trials) or $(b,quick)." in
  Arg.(value & opt preset_conv Exp_config.quick & info [ "preset"; "p" ] ~docv:"PRESET" ~doc)

let trials =
  Arg.(value & opt (some int) None & info [ "trials" ] ~docv:"N" ~doc:"Trials per data point.")

let ops =
  Arg.(value & opt (some int) None & info [ "ops" ] ~docv:"N" ~doc:"Operations per trial.")

let participants =
  Arg.(
    value
    & opt (some int) None
    & info [ "participants" ] ~docv:"N" ~doc:"Processors/segments in the pool.")

let initial =
  Arg.(
    value
    & opt (some int) None
    & info [ "initial" ] ~docv:"N" ~doc:"Initial elements in the pool.")

let seed =
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"S" ~doc:"Base random seed.")

let plies =
  Arg.(
    value
    & opt (some int) None
    & info [ "plies" ] ~docv:"N" ~doc:"Application (tic-tac-toe) search depth.")

let experiments =
  let doc = "Experiments to run (see $(b,list)); $(b,all) runs every one." in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let topo_file =
  let doc =
    "Topology file for the $(b,topology) experiment ($(b,Cpool_topology) format; \
     the same file $(b,mc-throughput --topology) accepts)."
  in
  Arg.(value & opt (some string) None & info [ "topo" ] ~docv:"FILE" ~doc)

let run_cmd =
  let run preset trials ops participants initial seed plies topo_file names =
    (* Validate the topology file here so a bad path is a usage error, not
       an uncaught Failure out of the experiment. *)
    let topo_problem =
      match topo_file with
      | None -> None
      | Some file -> (
        match In_channel.with_open_bin file In_channel.input_all with
        | exception Sys_error msg -> Some msg
        | source -> (
          match Cpool_topology.parse source with
          | Error msg -> Some (Printf.sprintf "%s: %s" file msg)
          | Ok _ -> None))
    in
    match topo_problem with
    | Some msg -> usage_error "%s" msg
    | None ->
    let cfg = apply_overrides preset trials ops participants initial seed plies in
    let cfg = { cfg with Exp_config.topo_file } in
    let entries =
      if List.mem "all" names then Ok Registry.all
      else
        List.fold_left
          (fun acc name ->
            match (acc, Registry.find name) with
            | Error e, _ -> Error e
            | Ok entries, Some entry -> Ok (entries @ [ entry ])
            | Ok _, None ->
              Error
                (Printf.sprintf "unknown experiment %S; known: %s" name
                   (String.concat ", " Registry.ids)))
          (Ok []) names
    in
    match entries with
    | Error msg -> usage_error "%s" msg
    | Ok entries ->
      List.iter
        (fun entry ->
          Printf.printf "=== %s: %s ===\n%!" entry.Registry.id entry.Registry.title;
          print_endline (entry.Registry.run cfg);
          print_newline ())
        entries;
      0
  in
  let doc = "Regenerate paper experiments" in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ preset $ trials $ ops $ participants $ initial $ seed $ plies $ topo_file
      $ experiments)

let list_cmd =
  let list () =
    List.iter
      (fun e -> Printf.printf "%-10s %s\n" e.Registry.id e.Registry.title)
      Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments") Term.(const list $ const ())

(* --- shared mc-* arguments ---------------------------------------------- *)

(* One shared parser for the real pool's kinds, via Cpool_intf.of_string —
   a typo, or the simulator-only hinted kind, is a usage error (exit 2)
   carrying the valid-kind list, never a silently substituted default.
   [None] means "all": the paper's three kinds. *)
let kind_conv =
  let valid = String.concat ", " (List.map Cpool_intf.to_string Cpool_intf.all) ^ " or all" in
  let parse = function
    | "all" -> Ok None
    | s -> (
      match Cpool_intf.of_string s with
      | Ok Cpool_intf.Hinted ->
        Error (`Msg ("kind hinted is simulator-only (valid kinds: " ^ valid ^ ")"))
      | Ok k -> Ok (Some k)
      | Error _ -> Error (`Msg (Printf.sprintf "unknown pool kind %S (valid kinds: %s)" s valid)))
  in
  let print fmt = function
    | Some k -> Format.pp_print_string fmt (Cpool_intf.to_string k)
    | None -> Format.pp_print_string fmt "all"
  in
  Arg.conv (parse, print)

(* One shared workload-spec parser for mc-throughput and mc-siege
   (Cpool_intf.Workload.of_string): a bad spec is a usage error on stderr
   (exit 2) carrying the full list of valid forms. *)
let workload_conv =
  let parse s =
    match Cpool_intf.Workload.of_string s with
    | Ok w -> Ok w
    | Error msg -> Error (`Msg msg)
  in
  let print fmt w = Format.pp_print_string fmt (Cpool_intf.Workload.to_string w) in
  Arg.conv (parse, print)

let workload_doc =
  "Workload spec: an optional preset ($(b,sufficient), $(b,sparse), \
   $(b,default), $(b,siege)) followed by comma-separated settings — \
   $(b,mix=F), $(b,initial=N) (per segment), $(b,duration=S), \
   $(b,arrival=closed|poisson:RATE|bursty:RATE:ON_MS:OFF_MS), \
   $(b,arrangement=uniform|balanced:K|unbalanced:K)."

let workloads_arg doc =
  Arg.(
    value
    & opt_all workload_conv []
    & info [ "workload"; "w" ] ~docv:"SPEC" ~doc:(workload_doc ^ " " ^ doc))

(* A --seconds override rewrites every selected workload's duration, so
   scripts can scale a preset without restating the whole spec. *)
let seconds_arg per =
  let doc = "Override every selected workload's duration (seconds per " ^ per ^ ")." in
  Arg.(value & opt (some float) None & info [ "seconds"; "s" ] ~docv:"SEC" ~doc)

let override_seconds seconds workloads =
  match seconds with
  | None -> workloads
  | Some s ->
    List.map (fun w -> { w with Cpool_intf.Workload.duration_s = s }) workloads

let kind_arg default =
  let doc = "Search algorithm: $(b,linear), $(b,random), $(b,tree) or $(b,all) (the three)." in
  Arg.(value & opt kind_conv default & info [ "kind"; "k" ] ~docv:"KIND" ~doc)

let capacity_arg =
  let doc = "Per-segment capacity (omit for unbounded segments)." in
  Arg.(value & opt (some int) None & info [ "capacity" ] ~docv:"N" ~doc)

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Base random seed.")

let topology_arg doc =
  Arg.(value & opt (some string) None & info [ "topology"; "t" ] ~docv:"SPEC" ~doc)

let out_arg default what =
  let doc = "Write the JSON " ^ what ^ " to $(docv)." in
  Arg.(value & opt string default & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let write_json file doc =
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Cpool_util.Json.to_string doc))

(* The flag checks mc-throughput and mc-siege share, as a usage error. *)
let bad_seconds_or_capacity seconds capacity =
  if Option.fold ~none:false ~some:(fun s -> s <= 0.0) seconds then
    Some "--seconds must be positive"
  else if Option.fold ~none:false ~some:(fun c -> c < 1) capacity then
    Some "--capacity must be at least 1"
  else None

(* --- mc-throughput: lock-free fast path vs all-mutex baseline --------- *)

(* A topology spec is resolved per --domains count, because the preset form
   scales with the pool while a file pins an exact node count. *)
type topo_spec = {
  spec : string;  (* what the user typed, for error messages *)
  resolve : int -> (Cpool_topology.t, string) result;
}

(* SPEC is either the synthetic preset [two-group:PENALTY[:UNIT_NS]] (scales
   to any domain count >= 2) or a path to a topology file in the
   Cpool_topology.parse format — the same file the simulator's topology
   experiment consumes, so one config drives both worlds. Parsed inside the
   term (not an Arg.conv) so every malformed spec, unreadable file and
   node-count mismatch is a usage error on stderr with exit 2. *)
let parse_topo_spec spec =
  match String.split_on_char ':' spec with
  | "two-group" :: rest -> (
    let preset_err =
      Printf.sprintf
        "bad preset %S (expected two-group:PENALTY or two-group:PENALTY:UNIT_NS)" spec
    in
    let mk =
      match rest with
      | [] -> Ok (fun nodes -> Cpool_topology.two_group ~nodes ())
      | [ p ] -> (
        match float_of_string_opt p with
        | Some p -> Ok (fun nodes -> Cpool_topology.two_group ~penalty:p ~nodes ())
        | None -> Error preset_err)
      | [ p; u ] -> (
        match (float_of_string_opt p, int_of_string_opt u) with
        | Some p, Some u ->
          Ok (fun nodes -> Cpool_topology.two_group ~penalty:p ~unit_ns:u ~nodes ())
        | _ -> Error preset_err)
      | _ -> Error preset_err
    in
    match mk with
    | Error _ as e -> e
    | Ok mk ->
      Ok
        {
          spec;
          resolve =
            (fun nodes ->
              match mk nodes with
              | t -> Ok t
              | exception Invalid_argument msg -> Error msg);
        })
  | _ -> (
    match In_channel.with_open_bin spec In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | source -> (
      match Cpool_topology.parse source with
      | Error msg -> Error (Printf.sprintf "%s: %s" spec msg)
      | Ok t ->
        Ok
          {
            spec;
            resolve =
              (fun nodes ->
                if Cpool_topology.nodes t = nodes then Ok t
                else
                  Error
                    (Printf.sprintf
                       "topology file %s describes %d nodes but --domains asks for %d"
                       spec (Cpool_topology.nodes t) nodes));
          }))

let mc_throughput_cmd =
  let domains =
    let doc = "Comma-separated worker-domain counts, one grid column each." in
    Arg.(value & opt (list int) [ 2; 8 ] & info [ "domains"; "d" ] ~docv:"N,.." ~doc)
  in
  let workloads =
    workloads_arg
      "Repeatable, one grid row each; defaults to $(b,sufficient) and \
       $(b,sparse). Must be closed-loop."
  in
  let no_baseline =
    Arg.(
      value & flag
      & info [ "no-baseline" ] ~doc:"Skip the all-mutex ($(b,fast_path:false)) twin cells.")
  in
  let churn =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:
            "Odd-numbered workers retire their handle and register a fresh one \
             every ~4096 operations (register/deregister churn).")
  in
  let trace_out =
    let doc =
      "Trace every worker and write Chrome trace-event JSON to $(docv) (one Chrome \
       process per cell; load at ui.perfetto.dev). Also prints each cell's \
       per-domain and per-segment telemetry, steal distributions, non-zero \
       event counters and segment-size strip chart. Tracing adds a per-event timestamp cost — leave it off for \
       committed throughput numbers."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let topology =
    topology_arg
      "Attach a locality model and benchmark topology-aware stealing against \
       its distance-oblivious twin. $(docv) is $(b,two-group:PENALTY) (or \
       $(b,two-group:PENALTY:UNIT_NS)) for the synthetic two-socket preset, or \
       a path to a topology file in the $(b,Cpool_topology) format — the same \
       file the simulator's $(b,topology) experiment reads."
  in
  let run domains seconds kind workloads capacity no_baseline churn out seed trace_out
      topo_arg =
    (* Resolve the spec against every requested domain count up front, so a
       mismatched file or an unscalable preset is a usage error before any
       cell runs. *)
    let topo =
      match topo_arg with
      | None -> Ok None
      | Some spec -> (
        match parse_topo_spec spec with
        | Error _ as e -> e
        | Ok ts -> (
          match
            List.find_map
              (fun d ->
                if d < 1 then None
                else match ts.resolve d with Ok _ -> None | Error msg -> Some msg)
              domains
          with
          | Some msg -> Error msg
          | None -> Ok (Some ts)))
    in
    let workloads =
      if workloads = [] then
        [ Cpool_intf.Workload.sufficient; Cpool_intf.Workload.sparse ]
      else workloads
    in
    let workloads = override_seconds seconds workloads in
    if List.exists (fun d -> d < 1) domains || domains = [] then
      usage_error "--domains needs positive counts"
    else if
      List.exists (fun w -> not (Cpool_intf.Workload.closed w)) workloads
    then
      usage_error
        "mc-throughput is a closed-loop harness; open-loop arrivals belong to \
         mc-siege"
    else if churn && trace_out <> None then
      (* Every retired handle keeps its full event ring, so a churned
         Chrome export grows with the run length (~0.8 GB for one 4-domain
         cell of 0.3 s) instead of staying at one ring per worker. *)
      usage_error "--trace and --churn do not combine (one event ring per retired handle)"
    else
      match (bad_seconds_or_capacity seconds capacity, topo) with
      | Some msg, _ | None, Error msg -> usage_error "%s" msg
      | None, Ok topo ->
    begin
      let kinds = match kind with Some k -> [ k ] | None -> Cpool_intf.all in
      let config =
        {
          Cpool_mc.Mc_bench.kinds;
          domain_counts = domains;
          workloads;
          baseline = not no_baseline;
          capacity;
          churn;
          seed;
          trace = trace_out <> None;
          topo_of = Option.map (fun t -> t.resolve) topo;
        }
      in
      let results = Cpool_mc.Mc_bench.run config in
      print_string (Cpool_mc.Mc_bench.render results);
      write_json out (Cpool_mc.Mc_bench.to_json config results);
      Printf.printf "\nwrote %s (%d cells)\n" out (List.length results);
      (match trace_out with
      | None -> ()
      | Some file ->
        let events =
          List.fold_left
            (fun acc r ->
              acc + Cpool_mc.Mc_trace.total_recorded r.Cpool_mc.Mc_bench.run.traces)
            0 results
        in
        write_json file (Cpool_mc.Mc_bench.to_chrome results);
        Printf.printf "wrote %s (%d events recorded)\n" file events);
      match
        List.filter (fun r -> r.Cpool_mc.Mc_bench.run.violations <> []) results
      with
      | [] -> 0
      | bad ->
        Format.eprintf "pools_bench: %d cell(s) violated invariants (see above)@."
          (List.length bad);
        1
    end
  in
  let doc = "Measure mc-pool throughput: lock-free fast path vs all-mutex baseline" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs fixed-duration randomized workloads over a grid of search kind × \
         domain count × operation mix (the paper's sufficient and sparse regimes), \
         each cell twice — with the segments' lock-free owner path and with the \
         all-mutex baseline — and reports ops/sec, sampled p50/p99 per-op latency, \
         fast-path vs locked-path hit counts and the batched-steal profile. Every \
         cell drains to quiescence and is checked: element conservation, \
         per-segment count consistency, the capacity bound (watched \
         concurrently), slot-leak freedom, and telemetry against ground truth; \
         any violation exits 1. With \
         $(b,--topology) the grid gains topology cells: each selected kind runs on \
         the emulated machine with near-first (topology-aware) policies and, unless \
         $(b,--no-baseline), with distance-oblivious ones — same latencies, blind \
         probe order — reporting the near/far steal split. The JSON report \
         (default $(b,BENCH_mcpool.json)) is the committed artifact.";
    ]
  in
  Cmd.v
    (Cmd.info "mc-throughput" ~doc ~man)
    Term.(
      const run $ domains $ seconds_arg "cell"
      $ kind_arg (Some Cpool_mc.Mc_pool.Linear)
      $ workloads $ capacity_arg $ no_baseline $ churn
      $ out_arg "BENCH_mcpool.json" "report"
      $ seed_arg $ trace_out $ topology)

(* --- mc-siege: open-loop load harness and breaking-point finder ------- *)

let mc_siege_cmd =
  let domains =
    let doc = "Worker domains (= pool segments). Defaults to the recommended domain count." in
    Arg.(value & opt (some int) None & info [ "domains"; "d" ] ~docv:"N" ~doc)
  in
  let workloads =
    workloads_arg
      "Repeatable, one saturation search each; defaults to the $(b,siege) \
       preset. Must be open-loop (a non-closed arrival); the spec's rate is \
       the ramp's starting load."
  in
  let topology =
    topology_arg
      "Attach a locality model (remote-delay sweep): $(b,two-group:PENALTY) / \
       $(b,two-group:PENALTY:UNIT_NS) or a $(b,Cpool_topology) file — the same \
       specs mc-throughput accepts."
  in
  let topo_blind =
    Arg.(
      value & flag
      & info [ "topo-blind" ]
          ~doc:
            "With $(b,--topology), run the distance-oblivious twin (same \
             emulated machine, distance-blind policies).")
  in
  let p99_bound =
    let doc = "p99 sojourn bound of the breaking-point test, in µs." in
    Arg.(value & opt float 10_000.0 & info [ "p99-bound-us" ] ~docv:"US" ~doc)
  in
  let max_rate =
    let doc = "Upper end of the load ramp, arrivals/s." in
    Arg.(value & opt float 1e6 & info [ "max-rate" ] ~docv:"RATE" ~doc)
  in
  let bisect =
    let doc = "Bisection refinements after the geometric ramp." in
    Arg.(value & opt int 3 & info [ "bisect" ] ~docv:"N" ~doc)
  in
  let run domains kind workloads seconds capacity topo_arg topo_blind p99_bound
      max_rate bisect seed out =
    let domains =
      match domains with
      | Some d -> d
      | None -> min 8 (max 2 (Domain.recommended_domain_count ()))
    in
    let workloads =
      if workloads = [] then [ Cpool_intf.Workload.siege ] else workloads
    in
    let workloads = override_seconds seconds workloads in
    let arrangement_fits w =
      match w.Cpool_intf.Workload.arrangement with
      | Cpool_intf.Workload.Uniform -> true
      | Cpool_intf.Workload.Balanced k | Cpool_intf.Workload.Unbalanced k ->
        k < domains
    in
    let topo =
      match topo_arg with
      | None -> Ok None
      | Some spec ->
        Result.bind (parse_topo_spec spec) (fun ts ->
            Result.map Option.some (ts.resolve domains))
    in
    match bad_seconds_or_capacity seconds capacity with
    | Some msg -> usage_error "%s" msg
    | None ->
    if domains < 2 then usage_error "--domains must be at least 2"
    else if List.exists Cpool_intf.Workload.closed workloads then
      usage_error
        "mc-siege is open-loop: give the workload an arrival process \
         (arrival=poisson:RATE or arrival=bursty:RATE:ON_MS:OFF_MS)"
    else if not (List.for_all arrangement_fits workloads) then
      usage_error
        "the arrangement needs fewer producers than --domains (at least one \
         consumer)"
    else if not (p99_bound > 0.0) then usage_error "--p99-bound-us must be positive"
    else if bisect < 0 then usage_error "--bisect must be non-negative"
    else if
      List.exists
        (fun w ->
          match Cpool_intf.Workload.offered_rate w with
          | Some r -> r > max_rate
          | None -> false)
        workloads
    then usage_error "the workload's rate exceeds --max-rate"
    else
      match topo with
      | Error msg -> usage_error "%s" msg
      | Ok topology ->
        let kinds = match kind with Some k -> [ k ] | None -> Cpool_intf.all in
        let outcomes =
          List.concat_map
            (fun kind ->
              List.map
                (fun workload ->
                  Cpool_mc.Mc_siege.run
                    {
                      pool =
                        {
                          Cpool_mc.Mc_pool.Config.default with
                          segments = domains;
                          kind;
                          capacity;
                          topology;
                          topology_aware = not topo_blind;
                        };
                      workload;
                      seed;
                      p99_bound_us = p99_bound;
                      max_rate;
                      bisect_steps = bisect;
                    })
                workloads)
            kinds
        in
        print_string (Cpool_mc.Mc_siege.render outcomes);
        write_json out (Cpool_mc.Mc_siege.to_json outcomes);
        Printf.printf "wrote %s (%d cells)\n" out (List.length outcomes);
        if List.for_all (fun o -> Cpool_mc.Mc_siege.violations o = []) outcomes then 0
        else begin
          Format.eprintf "pools_bench: siege points violated invariants (see above)@.";
          1
        end
  in
  let doc = "Open-loop siege: find each pool's breaking point under arrival-driven load" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Drives the real pool with an arrival process (Poisson or bursty \
         on/off) on an absolute schedule — the open-loop regime that exposes \
         queueing collapse, unlike the closed-loop mc-throughput where workers \
         can never outrun the pool. Producer domains (placed by the workload's \
         arrangement: balanced around the ring, unbalanced in contiguous \
         slots, or uniform everyone-produces) enqueue timestamps; consumers \
         record each element's sojourn into mergeable log-scaled histograms. \
         The offered load ramps geometrically from the workload's rate and \
         then bisects to the breaking point (p99 beyond the bound, backlog \
         not draining, rejected adds, or a lagging generator), emitting the \
         latency-under-load curve as $(b,BENCH_mcsiege.json) — the baseline \
         $(b,siege-diff) gates CI against.";
    ]
  in
  Cmd.v
    (Cmd.info "mc-siege" ~doc ~man)
    Term.(
      const run $ domains $ kind_arg None $ workloads $ seconds_arg "load point"
      $ capacity_arg $ topology $ topo_blind $ p99_bound $ max_rate $ bisect $ seed_arg
      $ out_arg "BENCH_mcsiege.json" "curve")

(* --- mc-app: the paper's applications on real domains ------------------ *)

let mc_app_cmd =
  let module App = Cpool_game.Mc_app in
  let domains =
    let doc = "Comma-separated worker-domain counts, one grid column each." in
    Arg.(value & opt (list int) [ 1; 2; 4 ] & info [ "domains"; "d" ] ~docv:"N,.." ~doc)
  in
  let app_kind =
    let doc =
      "Pool kind to race against the stack: $(b,linear), $(b,random), $(b,tree) or $(b,all) (the three)."
    in
    Arg.(value & opt kind_conv None & info [ "kind"; "k" ] ~docv:"KIND" ~doc)
  in
  let app_plies =
    let doc = "Minimax search depth from the empty board." in
    Arg.(value & opt int App.default.App.plies & info [ "plies" ] ~docv:"N" ~doc)
  in
  let fork_plies =
    let doc = "Minimax fork frontier: plies that fork a future per move." in
    Arg.(value & opt int App.default.App.fork_plies & info [ "fork-plies" ] ~docv:"N" ~doc)
  in
  let queens =
    let doc = "N-queens board size." in
    Arg.(value & opt int App.default.App.queens & info [ "queens" ] ~docv:"N" ~doc)
  in
  let fork_depth =
    let doc = "N-queens fork frontier: rows that fork a future per placement." in
    Arg.(value & opt int App.default.App.fork_depth & info [ "fork-depth" ] ~docv:"N" ~doc)
  in
  let repeats =
    let doc = "Runs per cell; each cell keeps the fastest." in
    Arg.(value & opt int App.default.App.repeats & info [ "repeats" ] ~docv:"N" ~doc)
  in
  let run domains kind plies fork_plies queens fork_depth repeats seed out =
    if domains = [] || List.exists (fun d -> d < 1) domains then
      usage_error "--domains needs positive counts"
    else if repeats < 1 then usage_error "--repeats must be at least 1"
    else begin
      let config =
        {
          App.kinds = (match kind with Some k -> [ k ] | None -> Cpool_intf.all);
          domain_counts = domains;
          plies;
          fork_plies;
          queens;
          fork_depth;
          repeats;
          seed = Int64.of_int seed;
        }
      in
      (* Mc_app and Mc_search validate the search parameters; surface their
         Invalid_argument as a usage error rather than a backtrace. *)
      match App.run config with
      | exception Invalid_argument msg -> usage_error "%s" msg
      | summary ->
        print_string (App.render summary);
        write_json out (App.to_json summary);
        Printf.printf "\nwrote %s (%d cells)\n" out (List.length summary.App.cells);
        let bad = List.filter (fun c -> not c.App.ok) summary.App.cells in
        if bad = [] then 0
        else begin
          List.iter
            (fun c ->
              Format.eprintf
                "pools_bench: %s on %s with %d domain(s): got %d, expected %d \
                 (%d of %d forked tasks processed)@."
                (App.app_to_string c.App.app)
                (App.scheduler_to_string c.App.scheduler)
                c.App.domains c.App.value c.App.expected c.App.tasks c.App.forked)
            bad;
          1
        end
    end
  in
  let doc = "Race minimax and n-queens on real domains: every pool kind vs the stack" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the paper's two applications — fixed-depth minimax on the 4x4x4 \
         board and n-queens backtracking — through the work-stealing task \
         scheduler on real OCaml 5 domains, once per scheduler (the global-lock \
         stack baseline plus every selected pool kind) per domain count, best \
         of $(b,--repeats) runs per cell. Every cell's answer is checked \
         against the sequential reference and the scheduler's task conservation \
         ($(b,processed = forked)); any mismatch fails the run with exit 1. The \
         JSON report (default $(b,BENCH_mcapp.json)) is the committed artifact \
         $(b,json-check) validates.";
    ]
  in
  Cmd.v
    (Cmd.info "mc-app" ~doc ~man)
    Term.(
      const run $ domains $ app_kind $ app_plies $ fork_plies $ queens $ fork_depth
      $ repeats $ seed_arg $ out_arg "BENCH_mcapp.json" "report")

(* --- siege-diff: regression gate against the committed baseline -------- *)

let siege_diff_cmd =
  let baseline =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASELINE" ~doc:"Committed BENCH_mcsiege.json to gate against.")
  in
  let fresh =
    let doc =
      "Compare against this already-written fresh artifact instead of \
       rerunning the baseline's cells."
    in
    Arg.(value & opt (some string) None & info [ "fresh" ] ~docv:"FILE" ~doc)
  in
  let run baseline_file fresh_file =
    let read file =
      match In_channel.with_open_bin file In_channel.input_all with
      | exception Sys_error msg -> Error msg
      | source -> (
        match Cpool_util.Json.parse source with
        | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
        | Ok doc -> (
          match Cpool_mc.Mc_siege.validate_json doc with
          | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
          | Ok _ -> Ok doc))
    in
    match read baseline_file with
    | Error msg -> usage_error "%s" msg
    | Ok baseline -> (
      let fresh =
        match fresh_file with
        | Some file -> Result.map (fun doc -> (doc, [])) (read file)
        | None -> (
          (* Rerun every baseline cell with its own recorded config — the
             artifact carries everything needed to reproduce itself. *)
          let cells =
            Option.get
              (Cpool_util.Json.to_list
                 (Option.get (Cpool_util.Json.member "cells" baseline)))
          in
          let configs =
            List.fold_left
              (fun acc c ->
                Result.bind acc (fun cfgs ->
                    Result.map
                      (fun cfg -> cfg :: cfgs)
                      (Cpool_mc.Mc_siege.config_of_cell_json c)))
              (Ok []) cells
          in
          match configs with
          | Error msg -> Error (Printf.sprintf "%s: %s" baseline_file msg)
          | Ok cfgs ->
            let outcomes = List.rev_map Cpool_mc.Mc_siege.run cfgs in
            print_string (Cpool_mc.Mc_siege.render outcomes);
            (* A rerun point that broke an invariant fails the gate too. *)
            Ok
              ( Cpool_mc.Mc_siege.to_json outcomes,
                List.concat_map
                  (fun o ->
                    List.map
                      (Printf.sprintf "cell %s: %s" (Cpool_mc.Mc_siege.cell_label o))
                      (Cpool_mc.Mc_siege.violations o))
                  outcomes ))
      in
      match fresh with
      | Error msg -> usage_error "%s" msg
      | Ok (fresh, violations) -> (
        match Cpool_mc.Mc_siege.diff ~baseline ~fresh with
        | Error msg -> usage_error "%s" msg
        | Ok regressions when violations <> [] || regressions <> [] ->
          List.iter
            (fun r -> Format.eprintf "pools_bench: %s@." r)
            (violations @ regressions);
          1
        | Ok _ ->
          Printf.printf "siege-diff: OK against %s\n" baseline_file;
          0))
  in
  let doc = "Gate a fresh mc-siege run against the committed baseline curve" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reruns every cell recorded in $(b,BASELINE) (or reads $(b,--fresh)) \
         and fails — exit 1 — when a rerun point broke an invariant, a cell \
         went missing, its best surviving \
         throughput dropped more than the baseline's \
         $(b,max_throughput_drop_pct), or its p99 at the lightest load \
         inflated past $(b,max_p99_inflation_pct). The thresholds live in the \
         baseline artifact itself and are deliberately generous: the gate \
         catches collapses, not CI scatter.";
    ]
  in
  Cmd.v (Cmd.info "siege-diff" ~doc ~man) Term.(const run $ baseline $ fresh)

(* --- json-check: validate a benchmark artifact ------------------------- *)

let json_check_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"JSON report to check.")
  in
  let run file =
    let finding msg =
      Format.eprintf "pools_bench: %s: %s@." file msg;
      1
    in
    match In_channel.with_open_bin file In_channel.input_all with
    | exception Sys_error msg -> usage_error "%s" msg
    | source -> (
      match Cpool_util.Json.parse source with
      | Error msg -> finding msg
      | Ok doc ->
        if Cpool_util.Json.member "traceEvents" doc <> None then (
          match Cpool_mc.Mc_trace.validate_chrome doc with
          | Error msg -> finding msg
          | Ok events ->
            Printf.printf "%s: valid Chrome trace, %d events\n" file events;
            0)
        else if
          Cpool_util.Json.member "benchmark" doc
          = Some (Cpool_util.Json.Str "mc-siege")
        then (
          match Cpool_mc.Mc_siege.validate_json doc with
          | Error msg -> finding msg
          | Ok cells ->
            Printf.printf "%s: valid mc-siege report, %d cells\n" file cells;
            0)
        else if
          Cpool_util.Json.member "benchmark" doc
          = Some (Cpool_util.Json.Str "mc-app")
        then (
          match Cpool_game.Mc_app.validate_json doc with
          | Error msg -> finding msg
          | Ok cells ->
            Printf.printf "%s: valid mc-app report, %d cells\n" file cells;
            0)
        else (
          match Cpool_mc.Mc_bench.validate_json doc with
          | Error msg -> finding msg
          | Ok cells ->
            Printf.printf "%s: valid mc-throughput report, %d cells\n" file cells;
            0))
  in
  Cmd.v
    (Cmd.info "json-check"
       ~doc:"Validate an mc-throughput, mc-siege, mc-app or Chrome trace JSON report")
    Term.(const run $ file)

let main =
  let doc = "Concurrent pools (Kotz & Ellis 1989) experiment driver" in
  let info = Cmd.info "pools_bench" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      run_cmd;
      list_cmd;
      mc_throughput_cmd;
      mc_app_cmd;
      mc_siege_cmd;
      siege_diff_cmd;
      json_check_cmd;
    ]

(* eval' maps the int our terms return straight to the exit code;
   Cmdliner's own parse errors exit 2 to match — including Arg.conv
   failures (e.g. a malformed --workload spec), which Cmdliner reports as
   [Exit.cli_error] rather than [term_err]. *)
let () =
  let code = Cmd.eval' ~term_err:2 main in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
