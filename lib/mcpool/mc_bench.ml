module Workload = Cpool_intf.Workload

type config = {
  kinds : Mc_pool.kind list;
  domain_counts : int list;
  workloads : Workload.t list;
  baseline : bool;
  capacity : int option;
  churn : bool;
  seed : int;
  trace : bool;
  topo_of : (int -> (Cpool_topology.t, string) result) option;
      (* Resolves a domain count to the topology for that grid column (a
         preset scales with the count; a config file only matches its own).
         When set, the topology cells — aware vs distance-oblivious twins —
         run in addition to the plain grid, into the same artifact. *)
}

let default =
  {
    kinds = [ Mc_pool.Linear ];
    domain_counts = [ 2; 8 ];
    workloads = [ Workload.sufficient; Workload.sparse ];
    baseline = true;
    capacity = None;
    churn = false;
    seed = 42;
    trace = false;
    topo_of = None;
  }

type cell = {
  kind : Mc_pool.kind;
  domains : int;
  workload : Workload.t;
  fast_path : bool;
  topo : Cpool_topology.t option;
  aware : bool; (* meaningful only with [topo]: false = oblivious twin *)
}

type result = { cell : cell; p50_us : float; p99_us : float; run : Mc_run.outcome }

let ops_per_sec r = float_of_int r.run.Mc_run.ops /. Float.max 1e-9 r.run.Mc_run.phase_s

(* Latency sampling: every [sample_every]-th batch of [batch] ops is timed
   as a group and recorded as µs per op. Group timing is what makes sub-µs
   operations resolve, while a slow steal or lock inside the window still
   lifts that sample into the tail. All timing reads the monotonic
   [Cpool_util.Clock] — the wall clock jumps under NTP steps, which fed
   negative batch latencies into [Sample.add] and moved the run
   deadline. Each worker's sampling phase is drawn from its seeded [Rng]:
   a fixed phase (always the [sample_every]-th batch) aliases with
   periodic steal/backoff cycles and biases the latency distribution. *)
let batch = 16

let sample_every = 8

(* The phase mask below requires it. *)
let () = assert (sample_every > 0 && sample_every land (sample_every - 1) = 0)

let phase config cell lat pool (w : Mc_run.worker) ~deadline_ns =
  let rng = Cpool_util.Rng.create (Int64.of_int ((config.seed * 6007) + w.index)) in
  let add_threshold = int_of_float (cell.workload.Workload.mix *. 1_000_000.0) in
  let sample_phase = Cpool_util.Rng.int rng sample_every in
  (* Sparse cells use the blocking remove: the pool runs dry by design, so
     "what does a searcher do about an empty pool" — search, spin, then
     park — is exactly the behaviour under test. Blocking removes can
     stall until a peer adds, so the deadline is checked every batch.
     Sufficient cells keep the non-blocking remove and the sparser
     deadline check. *)
  let blocking = Workload.sparse_regime cell.workload in
  let deadline_mask = if blocking then 0 else 15 in
  (* Odd-numbered workers re-register every ~4096 ops. *)
  let churning = config.churn && w.index land 1 = 1 in
  let batches = ref 0 in
  let running = ref true in
  while !running do
    incr batches;
    let timed = (!batches + sample_phase) land (sample_every - 1) = 0 in
    let t0 = if timed then Cpool_util.Clock.now_ns () else 0 in
    for _ = 1 to batch do
      if Cpool_util.Rng.int rng 1_000_000 < add_threshold then
        ignore (Mc_run.add pool w w.ops : bool)
      else ignore (Mc_run.remove pool w ~blocking : int option)
    done;
    if timed then begin
      let dt_ns = Cpool_util.Clock.now_ns () - t0 in
      (* A negative delta is impossible on a monotonic source; the guard
         survives the wall-clock fallback on clockless platforms. *)
      if dt_ns >= 0 then
        Cpool_metrics.Sample.add lat.(w.index)
          (float_of_int dt_ns /. 1e3 /. float_of_int batch)
    end;
    if churning && w.ops land 4095 < batch then Mc_run.churn pool w;
    if !batches land deadline_mask = 0 && Cpool_util.Clock.now_ns () >= deadline_ns
    then running := false
  done

let run_cell config cell =
  if cell.domains <= 0 then invalid_arg "Mc_bench.run_cell: domains must be positive";
  if not (Workload.closed cell.workload) then
    invalid_arg "Mc_bench.run_cell: the throughput harness is closed-loop only";
  if cell.workload.Workload.duration_s <= 0.0 then
    invalid_arg "Mc_bench.run_cell: duration must be positive";
  let lat = Array.init cell.domains (fun _ -> Cpool_metrics.Sample.create ()) in
  let run =
    Mc_run.run
      {
        Mc_pool.Config.default with
        segments = cell.domains;
        kind = cell.kind;
        capacity = config.capacity;
        fast_path = cell.fast_path;
        trace = config.trace;
        topology = cell.topo;
        topology_aware = cell.aware;
      }
      ~initial:cell.workload.Workload.initial ~fill:Fun.id
      ~duration_s:cell.workload.Workload.duration_s
      ~phase:(phase config cell lat)
      ~consume:(fun _ _ -> ())
  in
  let lat =
    Array.fold_left Cpool_metrics.Sample.merge (Cpool_metrics.Sample.create ()) lat
  in
  {
    cell;
    p50_us = Cpool_metrics.Sample.median lat;
    p99_us = Cpool_metrics.Sample.percentile lat 99.0;
    run;
  }

(* Grid order: kind, then domains, then workload, then the twin — fast vs
   mutex on the plain grid, aware vs oblivious on the topology cells. The
   topology cells always run the lock-free path, so that comparison
   isolates the probe-ordering policy on the same emulated machine. The
   CLI pre-validates the topology spec, so a resolution failure here is a
   driver bug, not user error. *)
let cells config =
  let twins = if config.baseline then [ true; false ] else [ true ] in
  let grid mk =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun domains ->
            List.concat_map
              (fun workload -> List.map (mk kind domains workload) twins)
              config.workloads)
          config.domain_counts)
      config.kinds
  in
  let plain =
    grid (fun kind domains workload fast_path ->
        { kind; domains; workload; fast_path; topo = None; aware = true })
  in
  match config.topo_of with
  | None -> plain
  | Some topo_of ->
    plain
    @ grid (fun kind domains workload aware ->
          match topo_of domains with
          | Ok t -> { kind; domains; workload; fast_path = true; topo = Some t; aware }
          | Error msg -> failwith ("Mc_bench.run: " ^ msg))

let run config = List.map (run_cell config) (cells config)

let cell_label c =
  Printf.sprintf "%s/%dd/%s/%s%s" (Cpool_intf.to_string c.kind) c.domains
    (Workload.mix_label c.workload)
    (if c.fast_path then "fast" else "mutex")
    (match c.topo with
    | None -> ""
    | Some _ -> if c.aware then "/topo" else "/topo-blind")

let to_chrome results =
  Mc_trace.to_chrome (List.map (fun r -> (cell_label r.cell, r.run.Mc_run.traces)) results)

(* Buckets of the segment-size strip chart (the paper's Figures 3-6 drawn
   from a traced real run). *)
let strip_buckets = 72

(* The per-cell report of a traced run: throughput, the per-domain and
   per-segment telemetry, the steal distributions, the non-zero event
   counters and the segment-size strip chart. *)
let render_traced r =
  let o = r.run in
  let buf = Buffer.create 1024 in
  let add s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
  let line fmt = Printf.ksprintf add fmt in
  line "--- %s: %.2fs mixed phase, %.2fs with the drain ---" (cell_label r.cell)
    o.Mc_run.phase_s o.elapsed_s;
  line "%d ops (%.0f ops/s): %d+%d adds (%d rejected), %d removes, %d steals" o.ops
    (ops_per_sec r) o.initial_added o.adds o.rejects o.removes o.steals;
  line "trace: %d events recorded, %d overwritten by ring overflow"
    (Mc_trace.total_recorded o.traces)
    (Mc_trace.total_dropped o.traces);
  add (Mc_stats.render_table ~title:"per-domain telemetry" o.per_worker);
  line "parking: %d parks, %d wakes" (Mc_stats.parks o.merged) (Mc_stats.wakes o.merged);
  add (Mc_stats.render_path_table ~title:"ring fast/locked paths (per segment)" o.per_segment);
  let module S = Cpool_metrics.Sample in
  let dist name sample =
    name
    :: List.map Cpool_metrics.Render.float_cell
         [ S.mean sample; S.median sample; S.percentile sample 95.0; S.max_value sample ]
  in
  let elems = Mc_stats.elements_per_steal o.merged in
  add
    (Cpool_metrics.Render.table ~title:"steal distributions (pool-wide)"
       ~headers:[ "metric"; "mean"; "p50"; "p95"; "max" ]
       ~rows:
         [
           dist "segments examined/steal" (Mc_stats.segments_per_steal o.merged);
           dist "elements stolen/steal" elems;
         ]
       ());
  if not (S.is_empty elems) then begin
    let hi = Float.max 8.0 (S.max_value elems) in
    let h = Cpool_metrics.Histogram.create ~lo:0.0 ~hi:(hi +. 1.0) ~bins:8 in
    List.iter (Cpool_metrics.Histogram.add h) (S.values elems);
    add
      (Cpool_metrics.Render.table ~title:"elements stolen per steal"
         ~headers:[ "range"; "steals" ]
         ~rows:
           (List.map
              (fun (range, n) -> [ range; string_of_int n ])
              (Cpool_metrics.Histogram.to_rows h))
         ())
  end;
  add
    (Cpool_metrics.Render.table ~title:"event counts (pool-wide counters)"
       ~headers:[ "counter"; "count" ]
       ~rows:
         (List.filter_map
            (fun (name, n) -> if n = 0 then None else Some [ name; string_of_int n ])
            (Cpool_metrics.Counters.to_rows (Mc_stats.counters o.merged)))
       ());
  let segments = r.cell.domains in
  add
    (Cpool_metrics.Render.strip_chart
       ~title:(Printf.sprintf "segment size over time (%s)" (cell_label r.cell))
       ~labels:(Array.init segments (Printf.sprintf "seg%d"))
       (Cpool_metrics.Trace.grid
          (Mc_trace.size_series ~segments o.traces)
          ~buckets:strip_buckets));
  Buffer.contents buf

(* The pool-wide counters behind a cell's row: path counters live on the
   segments, everything else (batches, parks, locality) on the handles —
   [merged] covers every handle ever issued, exact once the workers quit. *)
let paths r = Mc_stats.merge_all (List.map snd r.run.Mc_run.per_segment)

let batched_steals r =
  Cpool_metrics.Counters.get (Mc_stats.counters r.run.Mc_run.merged) "batched steals"

let mean_batch r = Cpool_metrics.Sample.mean (Mc_stats.steal_batch_sizes r.run.Mc_run.merged)

let render results =
  let buf = Buffer.create 1024 in
  let row r =
    [
      cell_label r.cell;
      Printf.sprintf "%.0f" (ops_per_sec r);
      Cpool_metrics.Render.float_cell r.p50_us;
      Cpool_metrics.Render.float_cell r.p99_us;
      Cpool_metrics.Render.float_cell (100.0 *. Mc_stats.fast_path_fraction (paths r));
      string_of_int r.run.steals;
      string_of_int (batched_steals r);
      Cpool_metrics.Render.float_cell (mean_batch r);
    ]
  in
  Buffer.add_string buf
    (Cpool_metrics.Render.table ~title:"mc-throughput"
       ~headers:
         [
           "cell"; "ops/s"; "p50 µs"; "p99 µs"; "fast %"; "steals"; "batched";
           "elems/batch";
         ]
       ~rows:(List.map row results) ());
  (* Each cell against its twin, when [twin] names one and it ran. *)
  let versus ~twin ~label ~over =
    let pairs =
      List.filter_map
        (fun r ->
          Option.bind (twin r.cell) (fun c ->
              List.find_opt (fun b -> b.cell = c) results |> Option.map (fun b -> (r, b))))
        results
    in
    if pairs <> [] then begin
      Buffer.add_char buf '\n';
      List.iter
        (fun (a, b) ->
          Buffer.add_string buf
            (Printf.sprintf "%s: %.2fx %s (%.0f vs %.0f ops/s)\n" (label a.cell)
               (ops_per_sec a /. Float.max 1e-9 (ops_per_sec b))
               over (ops_per_sec a) (ops_per_sec b)))
        pairs
    end
  in
  versus
    ~twin:(fun c -> if c.fast_path && c.topo = None then Some { c with fast_path = false } else None)
    ~label:(fun c -> "speedup " ^ cell_label c)
    ~over:"over the all-mutex baseline";
  (* Locality telemetry and the topology headline: aware vs the
     distance-oblivious twin on the same emulated machine. *)
  let topo_results = List.filter (fun r -> r.cell.topo <> None) results in
  if topo_results <> [] then begin
    Buffer.add_char buf '\n';
    let trow r =
      let m = r.run.merged in
      [
        cell_label r.cell;
        string_of_int (Mc_stats.near_probes m);
        string_of_int (Mc_stats.far_probes m);
        string_of_int (Mc_stats.near_steals m);
        string_of_int (Mc_stats.far_steals m);
        Cpool_metrics.Render.float_cell
          (Cpool_metrics.Sample.mean (Mc_stats.near_steal_batch_sizes m));
        Cpool_metrics.Render.float_cell
          (Cpool_metrics.Sample.mean (Mc_stats.far_steal_batch_sizes m));
      ]
    in
    Buffer.add_string buf
      (Cpool_metrics.Render.table ~title:"mc-topology near/far"
         ~headers:
           [
             "cell"; "near probes"; "far probes"; "near steals"; "far steals";
             "elems/near"; "elems/far";
           ]
         ~rows:(List.map trow topo_results) ());
    versus
      ~twin:(fun c -> if c.topo <> None && c.aware then Some { c with aware = false } else None)
      ~label:(fun c -> "topology-aware " ^ cell_label c)
      ~over:"over the distance-oblivious twin"
  end;
  List.iter
    (fun r -> if r.run.traces <> [] then (Buffer.add_char buf '\n'; Buffer.add_string buf (render_traced r)))
    results;
  Buffer.add_char buf '\n';
  (match List.filter (fun r -> r.run.violations <> []) results with
  | [] ->
    Buffer.add_string buf
      (Printf.sprintf
         "invariants: conservation, segment consistency, capacity bound, slot \
          lifecycle, telemetry all OK on %d cell(s)\n"
         (List.length results))
  | bad ->
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "INVARIANT VIOLATIONS in %s:\n" (cell_label r.cell));
        List.iter (fun v -> Buffer.add_string buf ("  " ^ v ^ "\n")) r.run.violations)
      bad);
  Buffer.contents buf

let json_of_result r =
  let module J = Cpool_util.Json in
  let o = r.run and m = r.run.Mc_run.merged in
  let paths = paths r in
  let topo_fields =
    match r.cell.topo with
    | None -> []
    | Some topo ->
      [
        ("topology", J.Str (Cpool_topology.label topo));
        ("topology_aware", J.Bool r.cell.aware);
        ("near_steals", J.Int (Mc_stats.near_steals m));
        ("far_steals", J.Int (Mc_stats.far_steals m));
        ("near_probes", J.Int (Mc_stats.near_probes m));
        ("far_probes", J.Int (Mc_stats.far_probes m));
        ( "mean_near_batch",
          J.Float (Cpool_metrics.Sample.mean (Mc_stats.near_steal_batch_sizes m)) );
        ( "mean_far_batch",
          J.Float (Cpool_metrics.Sample.mean (Mc_stats.far_steal_batch_sizes m)) );
      ]
  in
  J.Assoc
    ([
      ("kind", J.Str (Cpool_intf.to_string r.cell.kind));
      ("domains", J.Int r.cell.domains);
      ("mix", J.Str (Workload.mix_label r.cell.workload));
      ("workload", J.Str (Workload.to_string r.cell.workload));
      ("fast_path", J.Bool r.cell.fast_path);
      ("duration_s", J.Float o.phase_s);
      ("ops", J.Int o.ops);
      ("ops_attempted", J.Int o.ops_attempted);
      ("ops_per_sec", J.Float (ops_per_sec r));
      ("adds_ok", J.Int o.adds);
      ("removes_ok", J.Int o.removes);
      ("p50_us", J.Float r.p50_us);
      ("p99_us", J.Float r.p99_us);
      ("fast_ops", J.Int (Mc_stats.fast_path_ops paths));
      ("locked_ops", J.Int (Mc_stats.locked_path_ops paths));
      ("fast_fraction", J.Float (Mc_stats.fast_path_fraction paths));
      ("steals", J.Int o.steals);
      ("batched_steals", J.Int (batched_steals r));
      ("mean_batch", J.Float (mean_batch r));
    ]
    @ topo_fields)

let to_json config results =
  Cpool_util.Json.Assoc
    [
      ("benchmark", Cpool_util.Json.Str "mc-throughput");
      ( "workloads",
        Cpool_util.Json.List
          (List.map
             (fun w -> Cpool_util.Json.Str (Workload.to_string w))
             config.workloads) );
      ( "capacity",
        match config.capacity with
        | None -> Cpool_util.Json.Null
        | Some c -> Cpool_util.Json.Int c );
      ("seed", Cpool_util.Json.Int config.seed);
      ("cells", Cpool_util.Json.List (List.map json_of_result results));
    ]

let validate_json doc =
  let module J = Cpool_util.Json in
  let ( let* ) = Result.bind in
  let* bench = J.field "benchmark" doc in
  let* () =
    if bench = J.Str "mc-throughput" then Ok ()
    else Error "field \"benchmark\" is not \"mc-throughput\""
  in
  let* cells = J.field "cells" doc in
  let* cs = Option.to_result ~none:"field \"cells\" is not a list" (J.to_list cells) in
  let check_cell i c =
    let where e = Printf.sprintf "cell %d: %s" i e in
    let num name = Result.map_error where (J.number name c) in
    let all_numbers names =
      List.fold_left (fun acc name -> Result.bind acc (fun () -> Result.map ignore (num name)))
        (Ok ()) names
    in
    let boolean name =
      match J.member name c with
      | Some (J.Bool _) -> Ok ()
      | Some _ | None -> Error (where (Printf.sprintf "missing boolean %S" name))
    in
    let* () =
      all_numbers [ "domains"; "ops_per_sec" ]
    in
    let* o = num "ops" in
    let* a = num "ops_attempted" in
    let* f = num "fast_ops" in
    let* l = num "locked_ops" in
    let* steals = num "steals" in
    (* Counter-accounting identities: the path counters count a subset of
       the attempted operations, so an artifact where they exceed the
       attempts is self-contradictory (the seed shipped one such cell:
       fast_ops > ops). *)
    let* () =
      if f +. l > a then
        Error (where (Printf.sprintf "fast_ops %.0f + locked_ops %.0f > ops_attempted %.0f" f l a))
      else if o > a then Error (where (Printf.sprintf "ops %.0f > ops_attempted %.0f" o a))
      else Ok ()
    in
    let* () = boolean "fast_path" in
    (* Topology cells must carry the locality split, and it must tile the
       steal count exactly: every steal is near or far, nothing else. *)
    if J.member "topology" c = None then Ok ()
    else
      let* () = boolean "topology_aware" in
      let* () = all_numbers [ "near_probes"; "far_probes" ] in
      let* near = num "near_steals" in
      let* far = num "far_steals" in
      if near +. far <> steals then
        Error
          (where
             (Printf.sprintf "near_steals %.0f + far_steals %.0f <> steals %.0f" near far
                steals))
      else Ok ()
  in
  let rec check i = function
    | [] -> Ok (List.length cs)
    | c :: rest ->
      let* () = check_cell i c in
      check (i + 1) rest
  in
  check 0 cs
