(* Tests for Mc_trace: the per-handle lock-free event ring, its
   ring-overflow semantics, the Chrome exporter, the simulator-compatible
   size series, and the pool's one event path — each Mc_stats note bumps
   its counter and appends its event to the handle's ring. *)

open Cpool_mc

let kinds =
  [
    ("linear", Mc_pool.Linear);
    ("random", Mc_pool.Random);
    ("tree", Mc_pool.Tree);
  ]

(* --- Clock ----------------------------------------------------------- *)

let test_clock_monotonic () =
  let a = Cpool_util.Clock.now_ns () in
  let b = Cpool_util.Clock.now_ns () in
  Alcotest.(check bool) "non-decreasing" true (b >= a);
  Alcotest.(check bool) "positive" true (a > 0);
  Alcotest.(check bool) "elapsed non-negative" true
    (Cpool_util.Clock.elapsed_s ~since_ns:a >= 0.0);
  Alcotest.(check int) "ns round-trip" 1_500_000_000 (Cpool_util.Clock.ns_of_s 1.5)

(* --- Ring basics ----------------------------------------------------- *)

let test_create_invalid () =
  Alcotest.check_raises "capacity" (Invalid_argument "Mc_trace.create: capacity must be positive")
    (fun () -> ignore (Mc_trace.create ~capacity:0 ~domain:0 () : Mc_trace.t))

let test_capacity_rounds_to_pow2 () =
  let t = Mc_trace.create ~capacity:100 ~domain:0 () in
  Alcotest.(check int) "rounded up" 128 (Mc_trace.capacity t)

let test_record_and_read () =
  let t = Mc_trace.create ~capacity:8 ~domain:3 () in
  Alcotest.(check bool) "enabled" true (Mc_trace.enabled t);
  Alcotest.(check int) "domain" 3 (Mc_trace.domain t);
  Mc_trace.record t Mc_trace.Add ~a1:0 ~a2:1;
  Mc_trace.record t Mc_trace.Remove ~a1:0 ~a2:0;
  Alcotest.(check int) "recorded" 2 (Mc_trace.recorded t);
  Alcotest.(check int) "dropped" 0 (Mc_trace.dropped t);
  match Mc_trace.events t with
  | [ e1; e2 ] ->
    Alcotest.(check bool) "tags" true
      (e1.Mc_trace.tag = Mc_trace.Add && e2.Mc_trace.tag = Mc_trace.Remove);
    Alcotest.(check bool) "ordered stamps" true (e2.Mc_trace.ts_ns >= e1.Mc_trace.ts_ns);
    Alcotest.(check int) "track" 3 e1.Mc_trace.ev_domain
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_overflow_keeps_newest () =
  let t = Mc_trace.create ~capacity:4 ~domain:0 () in
  for i = 1 to 10 do
    Mc_trace.record t Mc_trace.Add ~a1:i ~a2:0
  done;
  Alcotest.(check int) "recorded survives overflow" 10 (Mc_trace.recorded t);
  Alcotest.(check int) "dropped = recorded - capacity" 6 (Mc_trace.dropped t);
  let evs = Mc_trace.events t in
  Alcotest.(check int) "ring holds capacity" 4 (List.length evs);
  Alcotest.(check (list int)) "newest events, oldest first" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Mc_trace.a1) evs)

let test_stats_exact_through_overflow () =
  let pool =
    Mc_pool.of_config
      { Mc_pool.Config.default with segments = 1; trace = true; trace_capacity = 4 }
  in
  let h = Mc_pool.register pool in
  for i = 1 to 10 do
    Mc_pool.add pool h i
  done;
  let stats = Mc_pool.stats_of_handle h and ring = Mc_pool.trace_of_handle h in
  Alcotest.(check bool) "the handle's ring lives in its stats" true (Mc_stats.ring stats == ring);
  (* The ring only holds 4 records, but the counter saw all 10 adds. *)
  Alcotest.(check int) "stats adds" 10
    (Cpool_metrics.Counters.get (Mc_stats.counters stats) "adds");
  Alcotest.(check int) "ring events" 4 (List.length (Mc_trace.events ring));
  Alcotest.(check int) "dropped" 6 (Mc_trace.dropped ring);
  Alcotest.(check (list int)) "newest sizes survive" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Mc_trace.a2) (Mc_trace.events ring))

let test_disabled_records_nothing () =
  let t = Mc_trace.disabled in
  Alcotest.(check bool) "disabled" false (Mc_trace.enabled t);
  Mc_trace.record t Mc_trace.Add ~a1:1 ~a2:2;
  Mc_trace.record t Mc_trace.Steal_claim ~a1:1 ~a2:2;
  Alcotest.(check int) "no records" 0 (Mc_trace.recorded t);
  Alcotest.(check int) "no drops" 0 (Mc_trace.dropped t);
  Alcotest.(check (list reject)) "no events" [] (Mc_trace.events t)

(* --- Merge ----------------------------------------------------------- *)

let test_merge_sorted () =
  let a = Mc_trace.create ~capacity:16 ~domain:0 () in
  let b = Mc_trace.create ~capacity:16 ~domain:1 () in
  (* Interleave writers so neither ring dominates the head of the line. *)
  for _ = 1 to 5 do
    Mc_trace.record a Mc_trace.Add ~a1:0 ~a2:0;
    Mc_trace.record b Mc_trace.Remove ~a1:1 ~a2:0;
    Mc_trace.record a Mc_trace.Sweep ~a1:0 ~a2:0
  done;
  let merged = Mc_trace.merge [ a; b ] in
  Alcotest.(check int) "all events" 15 (List.length merged);
  let rec check_sorted = function
    | e1 :: (e2 :: _ as rest) ->
      Alcotest.(check bool) "timeline sorted" true (e1.Mc_trace.ts_ns <= e2.Mc_trace.ts_ns);
      check_sorted rest
    | _ -> ()
  in
  check_sorted merged;
  let count tag = List.length (List.filter (fun e -> e.Mc_trace.tag = tag) merged) in
  Alcotest.(check int) "summed adds" 5 (count Mc_trace.Add);
  Alcotest.(check int) "summed removes" 5 (count Mc_trace.Remove);
  Alcotest.(check int) "summed sweeps" 5 (count Mc_trace.Sweep)

(* --- Chrome export --------------------------------------------------- *)

let test_chrome_round_trip () =
  let t = Mc_trace.create ~capacity:32 ~domain:2 () in
  Mc_trace.record t Mc_trace.Add ~a1:2 ~a2:1;
  Mc_trace.record t Mc_trace.Steal_probe ~a1:0 ~a2:4;
  Mc_trace.record t Mc_trace.Park ~a1:2 ~a2:64;
  let doc = Mc_trace.to_chrome [ ("cell", [ t ]) ] in
  (* The writer and parser must agree: serialize, re-parse, validate. *)
  match Cpool_util.Json.parse (Cpool_util.Json.to_string doc) with
  | Error msg -> Alcotest.failf "re-parse failed: %s" msg
  | Ok reparsed ->
    (match Mc_trace.validate_chrome reparsed with
    | Error msg -> Alcotest.failf "validation failed: %s" msg
    | Ok n ->
      (* 3 instants + counter events for the two size-carrying tags + the
         group's process_name metadata. *)
      Alcotest.(check int) "event count" 6 n);
    let events =
      match Cpool_util.Json.member "traceEvents" reparsed with
      | Some (Cpool_util.Json.List l) -> l
      | _ -> Alcotest.fail "missing traceEvents"
    in
    List.iter
      (fun ev ->
        let str name =
          match Cpool_util.Json.member name ev with
          | Some (Cpool_util.Json.Str s) -> s
          | _ -> Alcotest.failf "missing string field %s" name
        in
        let num name =
          match Cpool_util.Json.member name ev with
          | Some j -> (
            match Cpool_util.Json.to_number j with
            | Some f -> f
            | None -> Alcotest.failf "non-numeric field %s" name)
          | None -> Alcotest.failf "missing numeric field %s" name
        in
        Alcotest.(check bool) "known phase" true (List.mem (str "ph") [ "i"; "C"; "M" ]);
        Alcotest.(check bool) "ts rebased" true (num "ts" >= 0.0);
        Alcotest.(check (float 0.0)) "pid" 1.0 (num "pid");
        if str "ph" <> "M" then Alcotest.(check (float 0.0)) "tid" 2.0 (num "tid");
        ignore (str "name"))
      events

let test_chrome_labeled_groups () =
  let mk d =
    let t = Mc_trace.create ~capacity:8 ~domain:d () in
    Mc_trace.record t Mc_trace.Sweep ~a1:d ~a2:0;
    t
  in
  let doc = Mc_trace.to_chrome [ ("cell a", [ mk 0 ]); ("cell b", [ mk 1 ]) ] in
  match Mc_trace.validate_chrome doc with
  | Error msg -> Alcotest.failf "validation failed: %s" msg
  | Ok n ->
    (* 2 sweeps + 2 process_name metadata events. *)
    Alcotest.(check int) "events + metadata" 4 n

let test_validate_rejects_junk () =
  let check_err label doc =
    match Mc_trace.validate_chrome doc with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected validation failure" label
  in
  check_err "no traceEvents" (Cpool_util.Json.Assoc [ ("x", Cpool_util.Json.Int 1) ]);
  check_err "event missing ph"
    (Cpool_util.Json.Assoc
       [
         ( "traceEvents",
           Cpool_util.Json.List
             [ Cpool_util.Json.Assoc [ ("name", Cpool_util.Json.Str "add") ] ] );
       ])

(* --- Simulator-compatible size series -------------------------------- *)

let test_size_series () =
  let t = Mc_trace.create ~capacity:64 ~domain:0 () in
  Mc_trace.record t Mc_trace.Add ~a1:0 ~a2:1;
  Mc_trace.record t Mc_trace.Add ~a1:0 ~a2:2;
  Mc_trace.record t Mc_trace.Remove ~a1:0 ~a2:1;
  Mc_trace.record t Mc_trace.Spill ~a1:1 ~a2:3;
  let trace = Mc_trace.size_series ~segments:2 [ t ] in
  let grid = Cpool_metrics.Trace.grid trace ~buckets:4 in
  Alcotest.(check int) "one row per segment" 2 (Array.length grid);
  Alcotest.(check int) "bucket count" 4 (Array.length grid.(0));
  (* The last observation of segment 1 was size 3. *)
  Alcotest.(check int) "final size visible" 3 grid.(1).(3);
  Alcotest.check_raises "segment out of range"
    (Invalid_argument "Trace.record: segment out of range") (fun () ->
      ignore (Mc_trace.size_series ~segments:1 [ t ]))

(* --- Pool integration ------------------------------------------------ *)

(* The pool-wide counter each event tag is the ring copy of. [Mpsc_drain]
   is one event per draining pop, which drains at least once. *)
let counter_of_tag stats tag =
  let get = Cpool_metrics.Counters.get (Mc_stats.counters stats) in
  match tag with
  | Mc_trace.Add -> get "adds"
  | Remove -> get "local removes"
  | Spill -> get "spill adds"
  | Steal_probe -> get "segments examined"
  | Steal_claim -> get "steals"
  | Sweep -> get "sweeps"
  | Park -> get "parks"
  | Wake -> get "wakes"
  | Mpsc_drain -> get "inbox drains"
  | Far_probe -> get "far probes"

let tag_count events tag = List.length (List.filter (fun e -> e.Mc_trace.tag = tag) events)

let test_pool_tracing_disabled_by_default () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  Alcotest.(check bool) "off by default" false (Mc_pool.tracing pool);
  let h = Mc_pool.register pool in
  Mc_pool.add pool h 1;
  ignore (Mc_pool.try_remove pool h);
  Alcotest.(check bool) "handle tracer disabled" false
    (Mc_trace.enabled (Mc_pool.trace_of_handle h));
  Alcotest.(check (list reject)) "no traces collected" [] (Mc_pool.traces pool)

let test_pool_trace_capacity_invalid () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Mc_pool.of_config: trace_capacity must be positive") (fun () ->
      ignore
        (Mc_pool.of_config
           { Mc_pool.Config.default with segments = 1; trace = true; trace_capacity = 0 }
          : unit Mc_pool.t))

let test_pool_records_ops kind () =
  let pool =
    Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 2; trace = true }
  in
  Alcotest.(check bool) "tracing on" true (Mc_pool.tracing pool);
  let h0 = Mc_pool.register_at pool 0 in
  let h1 = Mc_pool.register_at pool 1 in
  for i = 1 to 4 do
    Mc_pool.add pool h1 i
  done;
  (* h0 is empty locally, so this remove must probe and steal. *)
  (match Mc_pool.try_remove pool h0 with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a stolen element");
  ignore (Mc_pool.try_remove_local pool h1);
  Mc_pool.deregister pool h0;
  Mc_pool.deregister pool h1;
  let traces = Mc_pool.traces pool in
  Alcotest.(check int) "both handles collected" 2 (List.length traces);
  Alcotest.(check int) "no ring overflow" 0 (Mc_trace.total_dropped traces);
  let events = Mc_trace.merge traces and stats = Mc_pool.stats pool in
  (* With nothing dropped, every note must have reached the ring. *)
  List.iter
    (fun tag ->
      Alcotest.(check int)
        (Mc_trace.tag_name tag ^ " events = counter")
        (counter_of_tag stats tag) (tag_count events tag))
    Mc_trace.all_tags;
  let count = tag_count events in
  Alcotest.(check int) "adds traced" 4 (count Mc_trace.Add);
  Alcotest.(check int) "steal traced" 1 (count Mc_trace.Steal_claim);
  Alcotest.(check bool) "probe traced" true (count Mc_trace.Steal_probe >= 1);
  Alcotest.(check bool) "local remove traced" true (count Mc_trace.Remove >= 1);
  Alcotest.(check int) "events agree with pool.steals" (Mc_pool.steals pool)
    (count Mc_trace.Steal_claim)

(* The ring's event vocabulary: one tag per pool event the notes record,
   each with its own Chrome event name. *)
let test_tag_set () =
  Alcotest.(check (list string))
    "tag names"
    [
      "add"; "remove"; "spill"; "steal-probe"; "steal-claim"; "sweep"; "park"; "wake";
      "mpsc-drain"; "far-probe";
    ]
    (List.map Mc_trace.tag_name Mc_trace.all_tags)

(* --- Stress reconciliation: events vs telemetry, per kind ------------- *)

(* A ring keeps the newest of its handle's events, so under churn and
   ring overflow each tag's surviving events never outnumber its
   counter. *)

let test_stress_reconciles kind () =
  let r =
    Mc_bench.run_cell
      { Mc_bench.default with churn = true; trace = true }
      {
        Mc_bench.kind;
        domains = 3;
        workload = { Cpool_intf.Workload.default with duration_s = 0.15; initial = 11 };
        fast_path = true;
        topo = None;
        aware = true;
      }
  in
  Alcotest.(check (list string)) "no violations" [] r.run.violations;
  Alcotest.(check bool) "traces collected" true (r.run.traces <> []);
  let events = Mc_trace.merge r.run.traces in
  List.iter
    (fun tag ->
      let n = tag_count events tag and c = counter_of_tag r.run.merged tag in
      if n > c then
        Alcotest.failf "%s: %d ring events > counter %d" (Mc_trace.tag_name tag) n c)
    Mc_trace.all_tags

let suites =
  let open Alcotest in
  [
    ( "mc_trace",
      [
        test_case "clock monotonic" `Quick test_clock_monotonic;
        test_case "create invalid" `Quick test_create_invalid;
        test_case "capacity pow2" `Quick test_capacity_rounds_to_pow2;
        test_case "record and read" `Quick test_record_and_read;
        test_case "overflow keeps newest" `Quick test_overflow_keeps_newest;
        test_case "stats exact through ring overflow" `Quick test_stats_exact_through_overflow;
        test_case "disabled records nothing" `Quick test_disabled_records_nothing;
        test_case "merge sorted" `Quick test_merge_sorted;
        test_case "chrome round trip" `Quick test_chrome_round_trip;
        test_case "chrome labeled groups" `Quick test_chrome_labeled_groups;
        test_case "validate rejects junk" `Quick test_validate_rejects_junk;
        test_case "size series" `Quick test_size_series;
        test_case "pool tracing off by default" `Quick test_pool_tracing_disabled_by_default;
        test_case "pool trace capacity invalid" `Quick test_pool_trace_capacity_invalid;
        test_case "tag set" `Quick test_tag_set;
      ]
      @ List.map
          (fun (name, kind) ->
            test_case (Printf.sprintf "pool records ops (%s)" name) `Quick
              (test_pool_records_ops kind))
          kinds );
    ( "mc_trace_stress",
      List.map
        (fun (name, kind) ->
          test_case (Printf.sprintf "events reconcile with stats (%s)" name) `Slow
            (test_stress_reconciles kind))
        kinds );
  ]
