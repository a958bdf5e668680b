(** Multicore concurrent pool for OCaml 5 domains.

    The practical counterpart of the simulated {!Cpool.Pool}: an unordered
    collection partitioned into per-worker segments. A worker's adds and
    removes stay in its own segment; when that runs dry the worker steals
    roughly half of the first non-empty segment its search algorithm finds
    (Manber's concurrent pools, evaluated by Kotz & Ellis 1989 — their
    result that the simple linear/random searches suffice motivates
    [Linear] as the default here).

    Typical use: create with one segment per worker domain, {!register}
    once in each domain, then {!add}/{!remove} freely. All operations are
    thread-safe; [remove] returning [None] means the pool was confirmed
    empty while every registered worker was simultaneously searching — the
    natural quiescence signal for task-graph workloads. *)

type kind = Cpool_intf.kind = Linear | Random | Tree | Hinted
(** The shared algorithm type ({!Cpool_intf.kind}), re-exported so the old
    [Mc_pool.Linear]-style constructors keep compiling. The real pool runs
    the paper's three kinds; [Hinted] (the paper's §5 hint board) is
    simulator-only and {!of_config} rejects it: once every kind parks its
    idle searchers, handing elements to parked searchers no longer beats
    the plain searches. *)

type 'a t

type handle
(** A worker's identity: its segment slot plus search state. Handles are
    not thread-safe; use each handle from one domain at a time. *)

(** Pool construction options, consolidated in one record so call sites
    read [{ Config.default with segments = 8; kind = Random }] instead of
    threading eight optional keywords, and harness configs can embed a
    pool spec as a plain value. *)
module Config : sig
  type t = {
    segments : int;  (** Segment slots; one per worker domain. *)
    kind : kind;
        (** Search algorithm; [Linear] by default. [Hinted] is
            rejected. *)
    seed : int64;
        (** Drives the [Random] search's probe sequence deterministically
            per handle. *)
    capacity : int option;
        (** Per-segment bound; [None] (default) is unbounded. Full adds
            spill to the first segment with room, and a thief reserves
            spare room in its own segment before stealing so the banked
            remainder always fits (no segment ever exceeds its capacity,
            even transiently). *)
    fast_path : bool;
        (** Enable the segments' lock-free owner path (default [true]);
            [false] is the all-mutex baseline used for benchmarking. *)
    trace : bool;
        (** Give every handle's {!Mc_stats} a per-domain {!Mc_trace}
            event ring (default [false]); when off, handles share the
            no-op {!Mc_trace.disabled} ring and each event costs one
            counter bump and one predictable branch. *)
    trace_capacity : int;
        (** Event-ring slots per handle (default [8192], rounded up to a
            power of two). *)
    topology : Cpool_topology.t option;
        (** Attach the shared locality model: segment [i] is homed on
            topology node [i], remote probes, steals and spills pay an
            emulated busy-wait latency of
            [(distance - 1) * unit_ns] per access, and the near/far
            {!Mc_stats} counters come alive. *)
    topology_aware : bool;
        (** With a topology, let the search policies exploit the model
            (default [true]) — Linear scans in near-first order,
            Random shuffles only within equal-distance buckets, Tree maps
            locality groups onto contiguous leaf subtrees, spills fill
            near segments first. Aware searchers also escalate
            reluctantly: three of every four failed search passes scan
            only the near prefix of the probe order, and every fourth
            goes the full distance. [false] is the distance-oblivious
            twin: same emulated machine, distance-blind policies — the
            benchmark baseline. *)
  }

  val default : t
  (** One [Linear] segment, seed [42L], unbounded, fast path on, no
      trace, no topology. Build pools as record updates of this. *)
end

val of_config : Config.t -> 'a t
(** [of_config c] builds a pool from the consolidated options. Raises
    [Invalid_argument] if [c.kind = Hinted], [c.segments <= 0],
    [c.capacity <= Some 0], [c.trace_capacity <= 0], or the topology's node
    count differs from [c.segments]. *)

val segments : 'a t -> int

val kind : 'a t -> kind

val topology : 'a t -> Cpool_topology.t option
(** The locality model the pool was created with, if any. *)

val topology_aware : 'a t -> bool
(** Whether the search policies exploit the topology; [false] for pools
    without one and for the distance-oblivious twin. *)

val probe_order : 'a t -> slot:int -> int array
(** [probe_order t ~slot] is the sequence of segments one full search pass
    from [slot] examines — always a permutation of [0 .. segments t - 1].
    Near-first for topology-aware pools (for [Random], a representative
    bucket-shuffled draw seeded like the slot's handle; for [Tree], the
    group-major leaf placement), the plain ring otherwise. Raises
    [Invalid_argument] if [slot] is out of range. *)

val register : 'a t -> handle
(** [register t] claims the next free segment slot. Raises [Failure] when
    all slots are claimed. *)

val register_at : 'a t -> int -> handle
(** [register_at t i] claims slot [i] explicitly (for tests and pinned
    layouts). Raises [Invalid_argument] if out of range; slots may be
    claimed at most once. *)

val slot : handle -> int
(** [slot h] is the segment index the handle owns. *)

val deregister : 'a t -> handle -> unit
(** [deregister t h] removes the worker from quiescence accounting: a
    worker that stops calling the pool MUST deregister, or blocked
    {!remove} calls in other workers can never conclude the pool is empty.
    The slot is released for a future {!register} (the seed version leaked
    it, so register/deregister churn eventually exhausted every slot); the
    handle must not be used afterwards. Elements left in the segment remain
    stealable. Raises [Invalid_argument] if [h] was already
    deregistered. *)

val claimed_count : 'a t -> int
(** [claimed_count t] is how many slots are currently claimed (taken under
    the registration lock; exact whenever no registration is mid-flight).
    After every worker deregisters it must be [0] — the stress harness's
    slot-leak invariant. *)

val registered : 'a t -> int
(** [registered t] is the current number of registered workers (a racy
    snapshot). *)

val add : 'a t -> handle -> 'a -> unit
(** [add t h x] inserts [x] into [h]'s segment (spilling on a bounded
    pool). Raises [Failure] when every segment is full — only possible
    with [capacity]; use {!try_add} to handle that case. *)

val try_add : 'a t -> handle -> 'a -> bool
(** [try_add t h x] inserts locally, spilling around the ring on a bounded
    pool; [false] when the whole pool is full. *)

val try_remove_local : 'a t -> handle -> 'a option
(** [try_remove_local t h] removes from [h]'s own segment only. *)

val remove : 'a t -> handle -> 'a option
(** [remove t h] removes an arbitrary element, searching and stealing if
    [h]'s segment is empty; blocks while the pool is empty but some
    registered worker is still active, and returns [None] only once every
    registered worker is searching and a full sweep confirmed emptiness.
    The block is event-driven on every kind: after a short spin of failed
    search passes the searcher parks on the pool's eventcount
    ({!Mc_park}) and is woken by the next add, spill, banked steal
    remainder, deregistration or quiescence confirmation —
    it never polls on a timer. The spin starts at about a microsecond and
    doubles while parks keep ending quickly (dense arrivals), resetting
    after a long one. A parked searcher still counts as "searching
    empty", so quiescence detection is unchanged. *)

val try_remove : 'a t -> handle -> 'a option
(** [try_remove t h] is like {!remove} but never blocks: one search pass
    over the segments; [None] if nothing was found. *)

val size : 'a t -> int
(** [size t] sums segment sizes (a racy snapshot). *)

val segment_sizes : 'a t -> int array
(** [segment_sizes t] snapshots every segment's occupied capacity
    lock-free. On a bounded pool no entry can exceed the capacity, at any
    moment — the invariant the stress harness watches concurrently. *)

val steals : 'a t -> int
(** [steals t] counts successful steals so far (monotonic, approximate
    under heavy contention only in its read timing). *)

(** {2 Telemetry and checking} *)

val stats_of_handle : handle -> Mc_stats.t
(** [stats_of_handle h] is the worker's live telemetry. Only [h]'s domain
    writes it; other domains may read it racily or merge it after the
    worker quiesces. *)

val tracing : 'a t -> bool
(** [tracing t] is whether the pool was created with [~trace:true]. *)

val trace_of_handle : handle -> Mc_trace.t
(** [trace_of_handle h] is the event ring inside the worker's stats
    ({!Mc_trace.disabled} on an untraced pool). Single-writer: read it
    after [h]'s domain quiesces. *)

val traces : 'a t -> Mc_trace.t list
(** [traces t] is the ring of every handle the pool ever issued
    (deregistered handles included, mirroring {!stats}); empty on an
    untraced pool. Merge with
    {!Mc_trace.merge} / export with {!Mc_trace.to_chrome} after the
    workers quiesce. *)

val segment_stats : 'a t -> Mc_stats.t array
(** [segment_stats t] is each segment's live path telemetry (fast vs
    locked ring operations, inbox adds, batched-steal sizes), indexed by
    slot. Racy while workers run; exact at quiescence. *)

val stats : 'a t -> Mc_stats.t
(** [stats t] merges the telemetry of every handle the pool ever issued
    (including deregistered ones) and every segment's path counters into a
    fresh snapshot, so totals are conserved across register/deregister
    churn. Exact at quiescence, racy while workers are running. *)

val check_segments : 'a t -> bool
(** [check_segments t] verifies every segment's count/content/capacity
    invariant (see {!Mc_segment.invariant_ok}); call at quiescence. *)
