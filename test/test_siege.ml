(* The open-loop siege harness: log-histogram percentile accuracy, the
   arrival-process generators, the shared Workload spec parser, and a tiny
   end-to-end breaking-point search on 2 domains. *)

open Cpool_mc
module Workload = Cpool_intf.Workload
module Histogram = Cpool_metrics.Histogram

(* --- log-scaled histogram percentiles --------------------------------- *)

(* 160 bins over [0.1, 1e7] is a 10^0.05 ~ 12% geometric bin width, so the
   interpolated percentile of a smooth distribution should land within a
   bin of the analytic value; 15% relative tolerance covers it. *)
let close name expected got =
  let rel = abs_float (got -. expected) /. expected in
  if rel > 0.15 then
    Alcotest.failf "%s: expected ~%g, got %g (%.1f%% off)" name expected got (100.0 *. rel)

let sojourn_histogram () = Histogram.create_log ~lo:0.1 ~hi:1e7 ~bins:160

let test_histogram_uniform () =
  let h = sojourn_histogram () in
  let rng = Cpool_util.Rng.create 7L in
  for _ = 1 to 100_000 do
    Histogram.add h (10.0 +. Cpool_util.Rng.float rng 990.0)
  done;
  (* Uniform on [10, 1000]: p = 10 + 990*q. *)
  close "uniform p50" 505.0 (Histogram.percentile h 50.0);
  close "uniform p90" 901.0 (Histogram.percentile h 90.0);
  close "uniform p99" 990.1 (Histogram.percentile h 99.0)

let test_histogram_exponential () =
  let h = sojourn_histogram () in
  let rng = Cpool_util.Rng.create 11L in
  for _ = 1 to 100_000 do
    Histogram.add h (-100.0 *. log (1.0 -. Cpool_util.Rng.float rng 1.0))
  done;
  (* Exponential, mean 100: p_q = -100 ln(1-q). *)
  close "exp p50" 69.31 (Histogram.percentile h 50.0);
  close "exp p99" 460.5 (Histogram.percentile h 99.0)

let test_histogram_merge () =
  let a = sojourn_histogram () and b = sojourn_histogram () in
  let rng = Cpool_util.Rng.create 13L in
  for _ = 1 to 10_000 do
    Histogram.add a (1.0 +. Cpool_util.Rng.float rng 9.0);
    Histogram.add b (100.0 +. Cpool_util.Rng.float rng 900.0)
  done;
  Histogram.merge a b;
  Alcotest.(check int) "merged total" 20_000 (Histogram.count a);
  (* Half the mass below 10, half above 100: the median sits in the gap. *)
  let p50 = Histogram.percentile a 50.0 in
  Alcotest.(check bool) "median in the gap" true (p50 >= 9.0 && p50 <= 110.0);
  close "upper tail from b" 991.0 (Histogram.percentile a 99.5);
  let tiny = Histogram.create_log ~lo:0.1 ~hi:10.0 ~bins:8 in
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Histogram.merge: histograms have different shapes") (fun () ->
      Histogram.merge a tiny)

let test_histogram_empty_and_bounds () =
  let h = sojourn_histogram () in
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Histogram.percentile h 50.0));
  Histogram.add h 0.0;
  (* Below-range samples clamp into the first bin. *)
  Alcotest.(check int) "clamped sample counted" 1 (Histogram.count h);
  Alcotest.(check bool) "clamped percentile at lo" true (Histogram.percentile h 50.0 <= 0.2)

(* --- arrival generators ------------------------------------------------ *)

let test_poisson_mean_variance () =
  let rng = Cpool_util.Rng.create 42L in
  let rate = 10_000.0 in
  let a = Mc_siege.Arrival.create (Workload.Poisson rate) ~rate ~rng in
  let n = 50_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let g = float_of_int (Mc_siege.Arrival.next_gap_ns a) in
    sum := !sum +. g;
    sumsq := !sumsq +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  let expected = 1e9 /. rate in
  (* Exponential gaps: mean = 1/rate, std = mean. 50k draws put the sample
     mean within ~1% and the std within a few %; 5% is comfortable. *)
  Alcotest.(check bool) "mean ~ 1/rate" true (abs_float (mean -. expected) /. expected < 0.05);
  let cv = sqrt var /. mean in
  Alcotest.(check bool) "coefficient of variation ~ 1" true (cv > 0.9 && cv < 1.1)

let test_bursty_long_run_rate () =
  let rng = Cpool_util.Rng.create 42L in
  let rate = 10_000.0 in
  let a =
    Mc_siege.Arrival.create
      (Workload.Bursty { rate; on_ms = 2.0; off_ms = 6.0 })
      ~rate ~rng
  in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. float_of_int (Mc_siege.Arrival.next_gap_ns a)
  done;
  let mean = !sum /. float_of_int n in
  let expected = 1e9 /. rate in
  (* Off-windows stretch some gaps, the 4x burst rate shrinks the rest; the
     long-run average must still meet the offered rate. The off-window sum
     is noisier than plain exponential gaps, hence the looser 15%. *)
  Alcotest.(check bool) "long-run rate preserved" true
    (abs_float (mean -. expected) /. expected < 0.15)

let test_arrival_rejects_closed () =
  let rng = Cpool_util.Rng.create 1L in
  (match Mc_siege.Arrival.create Workload.Closed ~rate:100.0 ~rng with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Closed must be rejected");
  match Mc_siege.Arrival.create (Workload.Poisson 0.0) ~rate:0.0 ~rng with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive rate must be rejected"

(* --- the shared Workload spec parser ----------------------------------- *)

let workload = Alcotest.testable (Fmt.of_to_string Workload.to_string) Workload.equal

let test_workload_round_trip () =
  let cases =
    [
      Workload.default;
      Workload.sufficient;
      Workload.sparse;
      Workload.siege;
      {
        Workload.mix = 0.25;
        initial = 7;
        arrival = Workload.Bursty { rate = 1500.0; on_ms = 2.0; off_ms = 8.0 };
        duration_s = 0.75;
        arrangement = Workload.Unbalanced 3;
      };
    ]
  in
  List.iter
    (fun w ->
      match Workload.of_string (Workload.to_string w) with
      | Ok w' -> Alcotest.check workload (Workload.to_string w) w w'
      | Error e -> Alcotest.failf "%s did not re-parse: %s" (Workload.to_string w) e)
    cases

let test_workload_presets_and_overrides () =
  (match Workload.of_string "sparse" with
  | Ok w -> Alcotest.check workload "sparse preset" Workload.sparse w
  | Error e -> Alcotest.fail e);
  (match Workload.of_string "siege,arrival=poisson:500,duration=0.05" with
  | Ok w ->
    Alcotest.check workload "preset with overrides"
      { Workload.siege with arrival = Workload.Poisson 500.0; duration_s = 0.05 }
      w
  | Error e -> Alcotest.fail e);
  match Workload.of_string "MIX=0.6,Initial=4" with
  | Ok w ->
    Alcotest.check workload "case-insensitive keys"
      { Workload.default with mix = 0.6; initial = 4 }
      w
  | Error e -> Alcotest.fail e

let test_workload_bad_specs () =
  let expect_error spec =
    match Workload.of_string spec with
    | Ok w ->
      Alcotest.failf "%S parsed to %s but must be rejected" spec (Workload.to_string w)
    | Error msg ->
      (* Every parse error teaches the valid forms (the CLI shows it on
         exit 2). *)
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%S error lists valid forms" spec)
        true
        (contains msg "mix=" && contains msg "arrival=")
  in
  List.iter expect_error
    [
      "";
      "bogus";
      "mix=1.5";
      "mix=nope";
      "initial=-1";
      "arrival=poisson:0";
      "arrival=bursty:100:0:5";
      "duration=-2";
      "arrangement=balanced:0";
      "sufficient,unknown=3";
    ]

(* --- end-to-end: a tiny siege on 2 domains ----------------------------- *)

let tiny_config =
  {
    Mc_siege.default with
    pool = { Mc_pool.Config.default with segments = 2 };
    workload =
      {
        Workload.siege with
        arrival = Workload.Poisson 500.0;
        duration_s = 0.05;
        arrangement = Workload.Balanced 1;
      };
    max_rate = 1000.0;
    bisect_steps = 0;
  }

let test_siege_smoke () =
  let outcome = Mc_siege.run tiny_config in
  Alcotest.(check bool) "swept at least one point" true (outcome.Mc_siege.points <> []);
  let rec ascending = function
    | a :: (b :: _ as rest) ->
      a.Mc_siege.offered < b.Mc_siege.offered && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "curve ascends" true (ascending outcome.Mc_siege.points);
  List.iter
    (fun (p : Mc_siege.point) ->
      Alcotest.(check bool) "generated arrivals" true (p.generated > 0);
      Alcotest.(check bool) "recorded sojourns" true (p.completed > 0);
      if not (Float.is_nan p.p50_us) then
        Alcotest.(check bool) "p50 <= p99" true (p.p50_us <= p.p99_us))
    outcome.Mc_siege.points;
  Alcotest.(check bool) "renders" true (String.length (Mc_siege.render [ outcome ]) > 0);
  (* The artifact round-trips through the strict validator. *)
  let doc = Mc_siege.to_json [ outcome ] in
  match Cpool_util.Json.parse (Cpool_util.Json.to_string doc) with
  | Error e -> Alcotest.fail ("emitted JSON does not re-parse: " ^ e)
  | Ok doc' -> (
    (match Mc_siege.validate_json doc' with
    | Ok 1 -> ()
    | Ok n -> Alcotest.failf "expected 1 cell, validator saw %d" n
    | Error e -> Alcotest.fail ("validator rejected the artifact: " ^ e));
    (* And the cell reconstructs into the config that produced it. *)
    let cells =
      Option.get (Cpool_util.Json.to_list (Option.get (Cpool_util.Json.member "cells" doc')))
    in
    match Mc_siege.config_of_cell_json (List.hd cells) with
    | Error e -> Alcotest.fail ("cell does not reconstruct: " ^ e)
    | Ok cfg ->
      Alcotest.(check int) "domains survive" 2 cfg.Mc_siege.pool.Mc_pool.Config.segments;
      Alcotest.check workload "workload survives" tiny_config.Mc_siege.workload
        cfg.Mc_siege.workload)

(* A minimal artifact cell, as siege-diff reads it back. *)
let cell_json kind =
  let module J = Cpool_util.Json in
  J.Assoc
    [
      ("kind", J.Str kind);
      ("workload", J.Str (Workload.to_string Workload.siege));
      ("domains", J.Int 2);
      ("seed", J.Int 42);
      ("p99_bound_us", J.Float 10_000.0);
      ("max_rate", J.Float 4000.0);
      ("bisect_steps", J.Int 0);
    ]

(* A committed cell of the simulator-only hinted kind must not reach
   Mc_pool.of_config (which raises) on the siege-diff rerun path: it is a
   reconstruction error, while the same cell as linear rebuilds. *)
let test_cell_rejects_hinted () =
  (match Mc_siege.config_of_cell_json (cell_json "linear") with
  | Ok cfg ->
    Alcotest.(check bool) "linear rebuilds" true
      (cfg.Mc_siege.pool.Mc_pool.Config.kind = Mc_pool.Linear)
  | Error e -> Alcotest.fail ("linear cell does not reconstruct: " ^ e));
  match Mc_siege.config_of_cell_json (cell_json "hinted") with
  | Ok _ -> Alcotest.fail "a hinted cell reconstructed into a runnable config"
  | Error _ -> ()

(* Each kind the real pool runs rebuilds from its cell with the cell's
   kind, domain count and workload. *)
let test_cell_rebuilds kind () =
  match Mc_siege.config_of_cell_json (cell_json (Cpool_intf.to_string kind)) with
  | Error e -> Alcotest.fail ("cell does not reconstruct: " ^ e)
  | Ok cfg ->
    Alcotest.(check bool) "kind" true (cfg.Mc_siege.pool.Mc_pool.Config.kind = kind);
    Alcotest.(check int) "one segment per domain" 2 cfg.Mc_siege.pool.Mc_pool.Config.segments;
    Alcotest.check workload "workload" Workload.siege cfg.Mc_siege.workload

(* The committed baseline that check.sh reruns cell by cell: it validates,
   covers exactly the three kinds, and every cell rebuilds. *)
let test_committed_baseline_rebuilds () =
  let file = Filename.concat (Filename.dirname Sys.executable_name) "../BENCH_mcsiege.json" in
  let doc =
    match Cpool_util.Json.parse (In_channel.with_open_bin file In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> Alcotest.fail ("BENCH_mcsiege.json does not parse: " ^ e)
  in
  (match Mc_siege.validate_json doc with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("BENCH_mcsiege.json no longer validates: " ^ e));
  let cells = Option.get (Cpool_util.Json.to_list (Option.get (Cpool_util.Json.member "cells" doc))) in
  let kinds =
    List.map
      (fun c ->
        match Mc_siege.config_of_cell_json c with
        | Ok cfg -> cfg.Mc_siege.pool.Mc_pool.Config.kind
        | Error e -> Alcotest.fail ("a committed cell does not rebuild: " ^ e))
      cells
  in
  Alcotest.(check bool) "the three kinds, once each" true
    (List.sort compare kinds = List.sort compare Cpool_intf.all)

(* The window opens at barrier release, not before the spawns: a lone
   producer's arrival count is a Poisson draw over exactly [duration], so
   it lands within 4 sigma of rate x duration. A clock started before
   [Domain.spawn] loses the spawn time — at 500k arrivals/s every lost
   millisecond is 500 arrivals, against a 4-sigma band of ~250. *)
let test_siege_window_starts_at_release () =
  let rate = 500_000.0 and duration_s = 0.008 in
  let cfg =
    {
      tiny_config with
      workload =
        {
          tiny_config.workload with
          arrival = Workload.Poisson rate;
          duration_s;
          arrangement = Workload.Balanced 1;
        };
      max_rate = rate;
    }
  in
  let p = Mc_siege.run_point cfg rate in
  let expected = rate *. duration_s in
  let band = 4.0 *. sqrt expected in
  if abs_float (float_of_int p.generated -. expected) > band then
    Alcotest.failf "generated %d arrivals, expected %.0f +- %.0f" p.generated expected band;
  Alcotest.(check (list string)) "no invariant violations" [] p.violations

(* Every worker of a uniform arrangement produces and consumes; at the
   deadline all of them drain, so the pool ends empty and every element
   generated (plus the prefill) completes. *)
let test_siege_uniform_drains () =
  let initial = 5 in
  let cfg =
    {
      tiny_config with
      workload =
        {
          tiny_config.workload with
          initial;
          arrival = Workload.Poisson 4000.0;
          arrangement = Workload.Uniform;
        };
      max_rate = 4000.0;
    }
  in
  let p = Mc_siege.run_point cfg 4000.0 in
  Alcotest.(check (list string)) "drained and consistent" [] p.violations;
  Alcotest.(check bool) "generated arrivals" true (p.generated > 0);
  Alcotest.(check int) "initial + generated - rejected = completed"
    ((initial * 2) + p.generated - p.rejected)
    p.completed

let test_siege_rejects_closed_loop () =
  match
    Mc_siege.run { tiny_config with workload = Workload.sufficient }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a closed-loop workload must be rejected"

let test_broken_predicate () =
  let base =
    {
      Mc_siege.offered = 100.0;
      duration = 1.0;
      generated = 1000;
      completed = 1000;
      rejected = 0;
      backlog = 0;
      lagged = 0;
      throughput = 1000.0;
      p50_us = 50.0;
      p90_us = 80.0;
      p99_us = 100.0;
      p999_us = 200.0;
      broken = false;
      violations = [];
    }
  in
  let cfg = tiny_config in
  Alcotest.(check bool) "healthy point holds" false (Mc_siege.is_broken cfg base);
  Alcotest.(check bool) "p99 over bound breaks" true
    (Mc_siege.is_broken cfg { base with p99_us = cfg.Mc_siege.p99_bound_us *. 2.0 });
  Alcotest.(check bool) "growing backlog breaks" true
    (Mc_siege.is_broken cfg { base with backlog = 300 });
  Alcotest.(check bool) "mass rejection breaks" true
    (Mc_siege.is_broken cfg { base with rejected = 100 });
  Alcotest.(check bool) "lagging generator breaks" true
    (Mc_siege.is_broken cfg { base with lagged = 200 });
  Alcotest.(check bool) "nothing completing breaks" true
    (Mc_siege.is_broken cfg { base with completed = 0; throughput = 0.0 })

let test_validate_rejects_junk () =
  let expect_error doc =
    match Mc_siege.validate_json doc with
    | Ok _ -> Alcotest.fail "junk accepted"
    | Error _ -> ()
  in
  expect_error (Cpool_util.Json.Assoc []);
  expect_error
    (Cpool_util.Json.Assoc [ ("benchmark", Cpool_util.Json.Str "mc-siege") ]);
  expect_error
    (Cpool_util.Json.Assoc
       [
         ("benchmark", Cpool_util.Json.Str "mc-siege");
         ("max_throughput_drop_pct", Cpool_util.Json.Float 75.0);
         ("max_p99_inflation_pct", Cpool_util.Json.Float 900.0);
         ("cells", Cpool_util.Json.List [ Cpool_util.Json.Assoc [] ]);
       ])

let test_diff_self_is_clean () =
  let outcome = Mc_siege.run tiny_config in
  let doc = Mc_siege.to_json [ outcome ] in
  match Mc_siege.diff ~baseline:doc ~fresh:doc with
  | Ok [] -> ()
  | Ok regressions ->
    Alcotest.failf "self-diff regressed: %s" (String.concat "; " regressions)
  | Error e -> Alcotest.fail e

let test_diff_flags_collapse () =
  let outcome = Mc_siege.run tiny_config in
  let doc = Mc_siege.to_json [ outcome ] in
  (* A fresh run that lost the cell entirely must regress. *)
  let empty = Mc_siege.to_json [] in
  match Mc_siege.diff ~baseline:doc ~fresh:empty with
  | Ok (_ :: _) -> ()
  | Ok [] -> Alcotest.fail "missing cell not flagged"
  | Error e -> Alcotest.fail e

let suites =
  [
    ( "mc_siege",
      [
        Alcotest.test_case "histogram: uniform percentiles" `Quick test_histogram_uniform;
        Alcotest.test_case "histogram: exponential percentiles" `Quick
          test_histogram_exponential;
        Alcotest.test_case "histogram: merge" `Quick test_histogram_merge;
        Alcotest.test_case "histogram: empty + clamping" `Quick
          test_histogram_empty_and_bounds;
        Alcotest.test_case "poisson gaps: mean and variance" `Quick
          test_poisson_mean_variance;
        Alcotest.test_case "bursty gaps: long-run rate" `Quick test_bursty_long_run_rate;
        Alcotest.test_case "arrival rejects closed/zero" `Quick test_arrival_rejects_closed;
        Alcotest.test_case "workload spec round-trip" `Quick test_workload_round_trip;
        Alcotest.test_case "workload presets + overrides" `Quick
          test_workload_presets_and_overrides;
        Alcotest.test_case "workload bad specs list valid forms" `Quick
          test_workload_bad_specs;
        Alcotest.test_case "siege smoke (2 domains)" `Quick test_siege_smoke;
        Alcotest.test_case "siege rejects closed loop" `Quick test_siege_rejects_closed_loop;
        Alcotest.test_case "breaking-point predicate" `Quick test_broken_predicate;
        Alcotest.test_case "validate rejects junk" `Quick test_validate_rejects_junk;
        Alcotest.test_case "siege-diff: self is clean" `Quick test_diff_self_is_clean;
        Alcotest.test_case "siege-diff: missing cell flagged" `Quick
          test_diff_flags_collapse;
        Alcotest.test_case "cell of the hinted kind is rejected" `Quick
          test_cell_rejects_hinted;
        Alcotest.test_case "committed baseline cells rebuild" `Quick
          test_committed_baseline_rebuilds;
        Alcotest.test_case "siege window opens at barrier release" `Quick
          test_siege_window_starts_at_release;
        Alcotest.test_case "siege uniform point drains and conserves" `Quick
          test_siege_uniform_drains;
      ]
      @ List.map
          (fun k ->
            Alcotest.test_case
              (Printf.sprintf "cell rebuilds (%s)" (Cpool_intf.to_string k))
              `Quick (test_cell_rebuilds k))
          Cpool_intf.all );
  ]
