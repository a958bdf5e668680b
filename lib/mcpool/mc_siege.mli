(** Open-loop load harness and breaking-point finder for {!Mc_pool}.

    Where mc-throughput is a closed loop — workers issue the
    next operation as soon as the previous one returns, so the pool can
    never fall behind by construction — the siege drives the pool with an
    {e arrival process}: producer domains draw inter-arrival gaps from a
    Poisson or bursty (on/off Markov) process on the monotonic
    {!Cpool_util.Clock} and hold an absolute schedule, so a slow enqueue
    shows up as lateness and queueing rather than silently thinning the
    offered load. Elements are enqueue timestamps; the consuming side
    prices each element's full sojourn (add to remove, in µs) into a
    per-domain log-scaled {!Cpool_metrics.Histogram}, merged after the
    join — p50/p90/p99/p99.9 without ever storing samples. Each point
    runs on the shared {!Mc_run} scaffold, so its window opens when every
    worker has registered, every worker drains the pool at the deadline,
    and the point carries {!Mc_run}'s invariant verdicts.

    On top of single points sits the saturation search: ramp the offered
    load geometrically from the workload's rate until a point {e breaks}
    (p99 beyond the bound, backlog not draining, adds rejected, generator
    lagging, or nothing completing), then bisect the last-good/first-bad
    bracket in log space. The emitted latency-under-load curve is the
    [BENCH_mcsiege.json] artifact; {!validate_json} checks it structurally
    and {!diff} gates CI against the committed baseline. *)

(** Inter-arrival gap generators, exposed for statistical tests. *)
module Arrival : sig
  type t

  val create :
    Cpool_intf.Workload.arrival -> rate:float -> rng:Cpool_util.Rng.t -> t
  (** [create arrival ~rate ~rng] draws gaps for an average of [rate]
      arrivals/s: exponential gaps for [Poisson]; for [Bursty] an on/off
      Markov process with exponential sojourns of the given mean
      durations, running hotter than [rate] while on (scaled by the
      inverse duty cycle) so the long-run average still meets [rate].
      Raises [Invalid_argument] on [Closed] or a non-positive rate. *)

  val next_gap_ns : t -> int
  (** The next inter-arrival gap in nanoseconds ([>= 1]); bursty gaps
      include any off-window the process slept through. *)
end

type config = {
  pool : Mc_pool.Config.t;
      (** Pool under siege; [segments] is the domain count (one domain per
          segment, producers and consumers assigned by the workload's
          arrangement). *)
  workload : Cpool_intf.Workload.t;
      (** Must be open-loop ([arrival <> Closed]). Its rate is the
          saturation search's starting load; [arrangement] maps domains to
          roles — [Balanced k] spreads [k] producers around the ring,
          [Unbalanced k] packs them into the low slots, [Uniform] makes
          every domain produce and consume. *)
  seed : int;
  p99_bound_us : float;  (** Latency bound of the breaking-point test. *)
  max_rate : float;  (** Upper end of the ramp, arrivals/s. *)
  bisect_steps : int;  (** Bisection refinements after the ramp. *)
}

val default : config
(** 4 domains, linear, {!Cpool_intf.Workload.siege} (Poisson 2000/s, two
    balanced producers, 0.3 s), p99 bound 10 ms, ramp to 1e6/s, 3
    bisections. *)

type point = {
  offered : float;  (** Offered load, arrivals/s across all producers. *)
  duration : float;  (** Measured wall-clock including the drain. *)
  generated : int;  (** Arrivals the producers delivered. *)
  completed : int;  (** Sojourns recorded (drain and prefill included). *)
  rejected : int;  (** Adds bounced by a capacity bound. *)
  backlog : int;  (** Pool size at the deadline instant, pre-drain. *)
  lagged : int;  (** Arrivals delivered more than 5 ms behind schedule. *)
  throughput : float;  (** [completed / duration]. *)
  p50_us : float;  (** Sojourn percentiles, µs; [nan] when nothing completed. *)
  p90_us : float;
  p99_us : float;
  p999_us : float;
  broken : bool;  (** The breaking-point predicate's verdict. *)
  violations : string list;
      (** {!Mc_run}'s invariant checks; empty iff all held. Conservation
          here reads [initial + generated - rejected = completed]. Not
          serialised. *)
}

type outcome = {
  config : config;
  points : point list;  (** The curve, ascending offered load. *)
  saturation_rate : float option;
      (** Lowest offered load that broke; [None] if the pool held to
          [max_rate]. *)
  max_good_rate : float option;
      (** Highest offered load that held; [None] if even the starting
          rate broke. *)
}

val run_point : config -> float -> point
(** [run_point cfg offered] runs one open-loop cell at the given offered
    load (overriding the workload's rate). *)

val run : config -> outcome
(** The saturation search: geometric ramp from the workload's rate (×2
    per step, capped at [max_rate]) until a point breaks, then
    [bisect_steps] geometric bisections of the last-good/first-bad
    bracket. Raises [Invalid_argument] on a closed-loop workload, an
    arrangement without at least one producer and one consumer, a
    starting rate above [max_rate], or a non-positive [p99_bound_us]. *)

val is_broken : config -> point -> bool
(** The breaking-point predicate: no completions despite arrivals,
    rejected adds > 5% of arrivals, deadline backlog > max(64, 20% of
    arrivals), generator lag > 10% of arrivals, or p99 above
    [p99_bound_us]. *)

val cell_label : outcome -> string
(** E.g. ["random/4d/mix0.5/init0+poisson:2000/balanced:2"]. *)

val render : outcome list -> string
(** Human-readable latency-under-load tables plus one saturation verdict
    line per cell, and every invariant violation a point reported. *)

val violations : outcome -> string list
(** Every point's invariant violations, each prefixed with its offered
    load. *)

val default_max_throughput_drop_pct : float
(** siege-diff threshold written into fresh artifacts (75%). *)

val default_max_p99_inflation_pct : float
(** siege-diff threshold written into fresh artifacts (900%). *)

val to_json : outcome list -> Cpool_util.Json.t
(** The [BENCH_mcsiege.json] document: benchmark tag, the siege-diff
    thresholds, and one cell per outcome (config — with the full
    [topology_config] text when present, so {!config_of_cell_json} can
    reconstruct and rerun the cell — curve points, saturation rates). *)

val validate_json : Cpool_util.Json.t -> (int, string) result
(** Structural check behind [json-check]: benchmark tag, numeric
    thresholds, and per cell — parseable kind/workload/topology, a
    non-empty strictly-increasing curve within [max_rate], numeric point
    counters with [p50 <= p99] whenever the point completed work, a
    boolean [broken] verdict per point, and a [saturation_rate] inside
    the swept range. Returns the cell count. *)

val config_of_cell_json : Cpool_util.Json.t -> (config, string) result
(** Rebuild a runnable {!config} from one artifact cell — the siege-diff
    rerun path. [Error] on a [hinted] cell: the real pool does not run
    that kind. *)

val diff :
  baseline:Cpool_util.Json.t ->
  fresh:Cpool_util.Json.t ->
  (string list, string) result
(** [diff ~baseline ~fresh] validates both documents and compares cells
    pairwise (keyed on kind, workload, domains and topology):
    [Ok regressions] lists every baseline cell missing from the fresh
    run, every cell whose best surviving throughput dropped more than the
    baseline's [max_throughput_drop_pct], and every cell whose p99 at the
    lightest load inflated past [max_p99_inflation_pct] — empty means the
    gate passes. [Error] means a document was malformed. *)
