(** Fixed-duration closed-loop driver for {!Mc_pool}: the throughput
    grid behind the lock-free owner fast path, and — every cell being
    invariant-checked — the pool's soak test.

    Runs a grid of cells — search kind × domain count × operation mix ×
    segment protocol — each a wall-clock-bounded randomized add/remove
    workload with one worker domain per segment, on the shared
    {!Mc_run} scaffold (prefill, register-and-barrier, drain to
    quiescence, post-run checks). The two mixes follow the
    paper's regimes: {e sufficient} (> 50% adds, prefilled, removes almost
    always hit the owner's own segment — non-blocking removes) and
    {e sparse} (< 50% adds, the pool runs dry and steal traffic dominates —
    {e blocking} removes, so what a searcher does about an empty pool —
    search, spin, then park — is part of the measurement). Each (kind, domains, mix)
    cell runs twice when [baseline] is set: once with the segments'
    lock-free owner path and once in the all-mutex configuration
    ([fast_path:false]), so the speedup is measured within one binary on
    identical workloads.

    Reported per cell: throughput over the mixed phase (ops/sec; the
    drain is not counted), sampled per-op latency (p50
    and p99, in µs — every 8th batch of 16 operations is timed as a group,
    so sub-µs operations still resolve and a slow steal or lock inside the
    window surfaces in the tail), the segments' fast-path vs locked-path
    hit counters, the batched-steal profile and the {!Mc_run} invariant
    verdicts. Results serialize to JSON
    ({!to_json}) for the committed [BENCH_mcpool.json] artifact. *)

type config = {
  kinds : Mc_pool.kind list;
  domain_counts : int list;
  workloads : Cpool_intf.Workload.t list;
      (** Closed-loop scenarios, one grid row per entry. [mix] is the add
          probability, [initial] the prefill per segment, [duration_s] the
          wall-clock length of the cell's mixed-op phase.
          {!Cpool_intf.Workload.sufficient} and
          {!Cpool_intf.Workload.sparse} are the paper's two regimes. *)
  baseline : bool;  (** Also run every cell with [fast_path:false]. *)
  capacity : int option;  (** Per-segment bound; [None] = unbounded. *)
  churn : bool;
      (** Odd-numbered workers retire their handle and register a fresh
          one every ~4096 ops — the slot-lifecycle soak. *)
  seed : int;
  trace : bool;
      (** Give every worker an {!Mc_trace} event ring (adds a per-event
          timestamp cost; off for the committed throughput numbers). *)
  topo_of : (int -> (Cpool_topology.t, string) result) option;
      (** Resolve a domain count to the locality model for that column of
          the grid (the [two-group] preset scales with the count; a config
          file only matches its own). When set, the topology cells run
          {e in addition to} the plain grid: every (kind, domains, mix) on
          the lock-free path, once topology-aware and (when [baseline])
          once as the distance-oblivious twin, all into one artifact. *)
}

val default : config
(** Linear kind, 2 and 8 domains, both canonical workloads (sufficient
    and sparse, 1 s cells), baseline on, unbounded, churn off, seed 42,
    tracing off, no topology. *)

type cell = {
  kind : Mc_pool.kind;
  domains : int;
  workload : Cpool_intf.Workload.t;
  fast_path : bool;
  topo : Cpool_topology.t option;
      (** Home segment [i] on topology node [i] and emulate remote
          latency; [None] for the plain grid cells. *)
  aware : bool;
      (** Meaningful only with [topo]: [false] is the distance-oblivious
          twin (same emulated machine, distance-blind probe order). *)
}

type result = {
  cell : cell;
  p50_us : float;  (** Median sampled per-op latency, µs; [nan] if none. *)
  p99_us : float;  (** 99th-percentile sampled per-op latency, µs. *)
  run : Mc_run.outcome;
      (** Tallies, telemetry, traces and invariant verdicts of the run.
          [run.ops_attempted] counts the prefill and the drain too — every
          operation that can note a fast or locked path, so
          [fast_ops + locked_ops <= ops_attempted] always holds. *)
}

val ops_per_sec : result -> float
(** Mixed-phase operation attempts per second of the mixed phase. *)

val run_cell : config -> cell -> result
(** Run one cell with [config]'s capacity, churn, seed and tracing; the
    cell's workload gives the mixed-phase length. Raises
    [Invalid_argument] on non-positive [domains] or duration, or a
    workload that is not closed-loop. *)

val run : config -> result list
(** Run the whole grid, fast-path cells and (when [config.baseline])
    their all-mutex twins, in a deterministic order. *)

val render : result list -> string
(** Human-readable table of every cell plus, for each (kind, domains, mix)
    pair present in both protocols, the fast-path speedup over the
    baseline. Topology cells additionally get a near/far
    telemetry table and, twin permitting, the aware-over-oblivious
    speedup. Traced cells get the full report: per-domain and per-segment
    telemetry, steal distributions, event totals and the segment-size
    strip chart. Ends with the invariant verdicts of every cell. *)

val to_json : config -> result list -> Cpool_util.Json.t
(** The JSON document written to [BENCH_mcpool.json]: benchmark metadata
    (workloads, capacity, seed) and one object per cell. *)

val to_chrome : result list -> Cpool_util.Json.t
(** Chrome trace-event JSON of a traced run: one Chrome process per cell
    (named by its cell label), one track per worker domain — the
    [mc-throughput --trace] output. Meaningful only when the cells ran
    with [trace]. *)

val validate_json : Cpool_util.Json.t -> (int, string) Stdlib.result
(** Structural check of a parsed benchmark document (the [json-check]
    subcommand): returns the number of cells, or a description of the
    first malformed field. Beyond field presence it enforces the
    counter-accounting identities
    [fast_ops + locked_ops <= ops_attempted] and [ops <= ops_attempted]
    per cell, so a self-contradictory artifact fails the check. Cells
    carrying a ["topology"] field must also carry a boolean
    ["topology_aware"], numeric near/far probe and steal counters, and
    satisfy [near_steals + far_steals = steals] exactly. *)
