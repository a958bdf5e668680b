(** Per-handle, lock-free event ring for the multicore pool.

    {!Mc_stats} says {e how many} steals, parks and spills a run made;
    this module says {e when}. It is an optional sink behind {!Mc_stats}:
    a traced pool's handles each own one ring inside their stats, and
    every handle-level [Mc_stats.note_*] bumps its counter and appends the
    event here in the same call, so each event is written once. The ring
    is a fixed-capacity array of [(monotonic_ns, tag, a1, a2)] records
    written with plain unshared stores by the handle's domain only — the
    same single-writer discipline as {!Mc_stats}, so recording allocates
    nothing and takes no lock (Blelloch-Wei-style constant-time per-thread
    slots). Timestamps come from {!Cpool_util.Clock}.

    When the ring is full the oldest record is overwritten and a drop
    counter advances, so truncation is never silent ({!dropped}). Exact
    totals are {!Mc_stats}'s job: the counters keep counting however
    small the ring was.

    A disabled ring ({!disabled}) records nothing: {!record} checks one
    flag and returns, so untraced runs pay a single predictable branch per
    recorded event.

    After quiescence, {!merge} sorts the per-domain rings into one
    timeline, {!to_chrome} emits Chrome trace-event JSON (one [tid] track
    per domain; loadable in Perfetto), and {!size_series} rebuilds the
    simulator-compatible segment-size-over-time {!Cpool_metrics.Trace.t}
    so the paper's Figures 3-6 can be drawn from real runs. *)

(** What happened. The two integer payloads [a1]/[a2] per tag:
    - [Add], [Remove], [Spill]: segment touched, its size after the op (a
      spill is a lock-free push onto that segment's MPSC inbox);
    - [Steal_probe]: segment examined, its observed size;
    - [Steal_claim]: victim segment, elements taken (kept + banked into
      the thief's own segment, the event's track);
    - [Sweep]: the sweeper's slot, 0;
    - [Park], [Wake]: the searcher's slot, 0 — they bracket each block on
      the pool's eventcount ({!Mc_park}), on every kind;
    - [Mpsc_drain]: the owner's segment, elements folded from the inbox
      into the ring by that exchange-drain (the one ring-only event: its
      counter lives in the segment's own stats);
    - [Far_probe]: segment probed outside the prober's locality group, the
      emulated remote latency charged for it in ns (only emitted when the
      pool has a topology; one per far [Steal_probe]). *)
type tag =
  | Add
  | Remove
  | Spill
  | Steal_probe
  | Steal_claim
  | Sweep
  | Park
  | Wake
  | Mpsc_drain
  | Far_probe

val all_tags : tag list

val tag_name : tag -> string
(** Stable kebab-case name (the Chrome event [name] field). *)

type t

val create : ?capacity:int -> domain:int -> unit -> t
(** [create ~domain ()] is an enabled tracer whose events carry [domain]
    as their timeline track (the handle's slot). [capacity] (default
    [8192]) is rounded up to a power of two. Raises [Invalid_argument] if
    [capacity <= 0]. *)

val disabled : t
(** The shared no-op tracer: {!record} on it stores nothing, and every
    reader sees an empty tracer. *)

val enabled : t -> bool

val domain : t -> int

val capacity : t -> int
(** Ring slots ([0] for {!disabled}). *)

val record : t -> tag -> a1:int -> a2:int -> unit
(** Stamp {!Cpool_util.Clock.now_ns} and append one record, overwriting
    the oldest when full. Single writer: only the owning domain may call
    it. No allocation, no lock, one enabled-flag branch when disabled. The
    pool records through {!Mc_stats}'s [note_*] calls; [Mpsc_drain] is
    its only direct call. *)

val recorded : t -> int
(** Total records ever written (monotonic; survives overflow). *)

val dropped : t -> int
(** Records overwritten by ring overflow ([recorded - capacity] when
    positive). *)

type event = {
  ts_ns : int;  (** {!Cpool_util.Clock} monotonic stamp. *)
  ev_domain : int;  (** The recording tracer's {!domain}. *)
  tag : tag;
  a1 : int;
  a2 : int;
}

val events : t -> event list
(** Surviving ring contents, oldest first (at most {!capacity}; the newest
    {!capacity} of {!recorded}). Read after the owner quiesces. *)

val merge : t list -> event list
(** All surviving events of every tracer, sorted by timestamp (ties by
    domain) into one timeline. *)

val total_recorded : t list -> int

val total_dropped : t list -> int

(** {2 Exporters} *)

val to_chrome : (string * t list) list -> Cpool_util.Json.t
(** Chrome trace-event JSON (the [{"traceEvents": [...]}] envelope) of
    several labelled groups of tracers — one group per pool, e.g. one
    benchmark cell each. Group [i] becomes Chrome process [pid = i + 1]
    with a [process_name] metadata event carrying its label; its merged
    events become instant events ([ph = "i"]) on track [tid = domain],
    with [ts] in microseconds rebased to the earliest event of the whole
    file. Size-carrying tags ([Add]/[Remove]/[Spill]/[Steal_probe])
    additionally emit a counter event ([ph = "C"], name ["seg<i> size"])
    so Perfetto draws the segment-size-over-time curves directly. Load
    via [ui.perfetto.dev]. *)

val validate_chrome : Cpool_util.Json.t -> (int, string) Stdlib.result
(** Structural check of a parsed Chrome trace document (the [json-check]
    subcommand): every entry of ["traceEvents"] must carry [name]/[ph]
    strings and numeric [ts]/[pid]/[tid]. Returns the event count. *)

val size_series : segments:int -> t list -> Cpool_metrics.Trace.t
(** Replay the merged size observations ([Add]/[Remove]/[Spill]/
    [Steal_probe]) into a simulator-compatible {!Cpool_metrics.Trace.t}
    (time in seconds from the first event), ready for
    {!Cpool_metrics.Trace.grid} and the Figures 3-6 strip charts. Raises
    [Invalid_argument] if an event names a segment [>= segments]. *)
