(** Per-worker telemetry for the multicore pool.

    Each {!Mc_pool.handle} owns one [Mc_stats.t] and bumps plain mutable
    counters on the hot path — no atomics, no cross-domain sharing, so the
    instrumentation costs a handful of unshared stores per operation. The
    read side ({!merge}, {!counters}, the samples) converts snapshots into
    {!Cpool_metrics} values on demand, giving the real pool the same steal
    statistics the paper reports for the simulator: steal frequency,
    segments examined per steal, elements stolen per steal.

    The counters are the one always-on record of each pool event. A
    traced handle's stats also own an {!Mc_trace} ring: every
    handle-level [note_*] below takes the event's ring payload
    ([~a1], and [~a2] or a size reader) and appends the event to the
    ring in the same call, only when the ring is on. An untraced note is
    one counter bump and one ring-enabled branch.

    Reading another domain's live stats is safe (all fields are word-sized)
    but yields a racy snapshot; merge after the workers have quiesced for
    exact totals. Per-steal distributions are bucketed exactly up to
    {!bucket_limit} and clamp above it — the means come from exact running
    totals and are never clamped. *)

type t

val bucket_limit : int
(** Largest per-steal observation recorded exactly in the distributions
    (larger values clamp into the top bucket). *)

val create : ?ring:Mc_trace.t -> unit -> t
(** [create ()] is zeroed stats whose ring is {!Mc_trace.disabled};
    [~ring] gives a handle's notes an enabled ring to append to. *)

val ring : t -> Mc_trace.t
(** The ring the handle-level notes append to ({!Mc_trace.disabled}
    unless one was passed to {!create}; merges never carry one). *)

(** {2 Hot-path recording (called by [Mc_pool])}

    The [~a1]/[~a2] labels are the {!Mc_trace.tag} payloads of the event
    each note appends when the ring is on. Size-carrying notes take
    [~size seg] instead of [~a2]: the segment and its size reader, called
    only when the ring is on. *)

val note_add : t -> a1:int -> size:('s -> int) -> 's -> unit
(** A successful add into the worker's own segment [a1] ([Add]). *)

val note_spill : t -> a1:int -> size:('s -> int) -> 's -> unit
(** A successful add that spilled to segment [a1]'s inbox (bounded pools;
    [Spill]). *)

val note_add_fail : t -> unit
(** An add rejected because every segment was full. *)

val note_local_remove : t -> a1:int -> size:('s -> int) -> 's -> unit
(** A successful remove from the worker's own segment [a1] ([Remove]). *)

val note_probe : t -> a1:int -> a2:int -> unit
(** Segment [a1] examined during a steal search, seen holding [a2]
    elements ([Steal_probe]). *)

val note_steal : t -> a1:int -> probes:int -> elements:int -> unit
(** A successful steal from segment [a1] that examined [probes] segments
    since the hunt began and obtained [elements] elements (the returned
    one plus the banked remainder; [Steal_claim] with [a2 = elements]). *)

val note_sweep : t -> a1:int -> unit
(** One full confirmation sweep over every segment by slot [a1]
    ([Sweep]). *)

val note_empty_confirm : t -> unit
(** A blocking remove that concluded the pool empty. *)

val note_spin : t -> unit
(** One failed search pass spun through ([Domain.cpu_relax]) before an
    idle searcher parks. *)

val note_park : t -> a1:int -> unit
(** An idle searcher (slot [a1]; [Park]) blocked on the pool's eventcount ({!Mc_park}): its
    re-check after registering as a sleeper found no work and no
    quiescence. *)

val note_wake : t -> a1:int -> unit
(** A parked searcher (slot [a1]; [Wake]) returned from its block. [parks = wakes] whenever no
    searcher is asleep; while workers run, the difference is how many
    are. *)

(** {2 Segment-side path counters (called by [Mc_segment])}

    These record which protocol path each ring operation took, making the
    lock-free fast path observable rather than asserted. Fast/locked
    push/pop and the drain counters are bumped only by the segment's owner
    domain (plain stores); inbox adds and the CAS-retry counters are bumped
    by whichever domain performed the operation and are backed by real
    atomics, so the lock-free spill and steal paths can report without a
    serialization point to hide behind. *)

val note_fast_push : t -> unit
(** An owner push that published with atomics only (no mutex). *)

val note_locked_push : t -> unit
(** An owner push (or batch) under the all-mutex baseline mode
    ([fast_path:false]). *)

val note_fast_pop : t -> unit
(** A successful owner pop completed without the mutex. *)

val note_locked_pop : t -> unit
(** A successful owner pop under the all-mutex baseline mode. *)

val note_inbox_add : t -> unit
(** A foreign (spill) add CAS-pushed onto the segment's MPSC inbox.
    Atomic: any domain may spill. *)

val note_top_cas_retry : t -> unit
(** A failed CAS claim of the ring's [top] cursor (contended pop or steal);
    the operation retried. Atomic: owner and stealers race on it. *)

val note_mpsc_retry : t -> unit
(** A failed CAS on the MPSC inbox stack (push or steal-pop); the operation
    retried. Atomic: any domain. *)

val note_inbox_drain : t -> elements:int -> unit
(** The owner swapped the whole inbox stack into the ring in one exchange,
    moving [elements] elements. Owner-only. *)

val note_steal_batch : t -> int -> unit
(** [note_steal_batch s n] records one steal transfer that moved [n >= 1]
    elements in a single batched claim; [n >= 2] also counts as a batched
    steal. Bumped on the {e thief's own handle} (single writer), not the
    victim segment. *)

val note_probe_locality : t -> far:bool -> a1:int -> a2:int -> unit
(** One steal probe of segment [a1] classified by the pool topology:
    [far] iff the probed segment is outside the prober's locality group,
    [a2] the emulated latency charged for it in ns ([Far_probe], far
    probes only). Thief's own handle. *)

val note_steal_locality : t -> far:bool -> elements:int -> unit
(** One successful steal transfer of [elements] elements classified by the
    pool topology, also bucketed into the near/far batch-size
    distributions. Thief's own handle. *)

(** {2 Reading and merging} *)

val removes : t -> int
(** [removes s] is all successful removes: local + stolen. *)

val merge : t -> t -> t
(** [merge a b] is a fresh sum of both; neither argument is modified. *)

val merge_all : t list -> t

val counters : t -> Cpool_metrics.Counters.t
(** Every scalar counter as a merge-friendly labelled set. *)

val segments_per_steal : t -> Cpool_metrics.Sample.t
(** Distribution of segments examined per successful steal (the paper's
    Section 4.2 metric), reconstructed from the buckets. *)

val elements_per_steal : t -> Cpool_metrics.Sample.t
(** Distribution of elements obtained per steal (Figure 7's metric). *)

val steal_batch_sizes : t -> Cpool_metrics.Sample.t
(** Distribution of elements moved per single batched steal transfer,
    recorded on the victim segment's side. *)

val near_probes : t -> int

val far_probes : t -> int

val near_steals : t -> int

val far_steals : t -> int
(** Locality-classified probe/steal counts; all zero unless the pool was
    created with a topology. [near_steals + far_steals = steals] and
    [near_probes + far_probes] equals the total probe count whenever a
    topology is present. *)

val near_steal_batch_sizes : t -> Cpool_metrics.Sample.t

val far_steal_batch_sizes : t -> Cpool_metrics.Sample.t
(** Distance-bucketed batch telemetry: distribution of elements moved per
    steal, split by whether the victim was in the thief's locality group. *)

val parks : t -> int

val wakes : t -> int

val fast_path_ops : t -> int
(** Owner operations completed without the mutex. *)

val locked_path_ops : t -> int
(** Operations that took the segment mutex — only the [fast_path:false]
    baseline produces these now. Inbox adds are single-CAS lock-free and no
    longer count as locked. *)

val fast_path_fraction : t -> float
(** [fast_path_ops / (fast_path_ops + locked_path_ops)]; [nan] when no path
    was recorded. *)

val inbox_adds : t -> int
(** Successful MPSC inbox pushes (foreign spill adds). *)

val inbox_drains : t -> int
(** Owner exchange-drains of the inbox into the ring. *)

val inbox_drained : t -> int
(** Elements moved by those drains. *)

val top_cas_retries : t -> int
(** Failed CAS claims of the ring's [top] cursor. *)

val mpsc_retries : t -> int
(** Failed CASes on the MPSC inbox stack. *)

val mean_batch_size : t -> float
(** Mean elements moved per steal transfer ([nan] with none recorded). *)

val mean_segments_per_steal : t -> float
(** Exact mean from running totals ([nan] with no steals). *)

val mean_elements_per_steal : t -> float

val steal_fraction : t -> float
(** Fraction of successful removes that required a steal ([nan] with no
    removes). *)

val render : ?title:string -> t -> string
(** One-row summary table via {!Cpool_metrics.Render}. *)

val render_table : ?title:string -> (string * t) list -> string
(** Per-worker telemetry table, one row per named stats plus a TOTAL row
    when there are several. *)

val render_path_table : ?title:string -> (string * t) list -> string
(** Fast-path/locked-path table (pushes, pops, inbox adds/drains, CAS
    retries, fast-path percentage), one row per named stats — used with
    per-segment stats, where these counters live. *)
