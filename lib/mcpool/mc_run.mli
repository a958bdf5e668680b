(** The run scaffold every {!Mc_pool} harness shares: the closed-loop
    throughput grid ({!Mc_bench}) and the open-loop siege ({!Mc_siege})
    differ only in what a worker does during its timed phase.

    One {!run}:
    + builds the pool from its {!Mc_pool.Config.t} and prefills [initial]
      elements per segment (clamped to the capacity), registering each
      slot in turn;
    + on a bounded pool, starts a watcher domain that polls segment sizes
      for the whole run, so the capacity bound is checked at every
      instant, not just after the fact;
    + spawns one worker domain per segment; each registers at its own
      slot, and only when every worker has registered does the main domain
      stamp [t0] and publish the deadline — the window never loses the
      time the spawns took;
    + runs each worker's [phase] until the deadline, snapshots the pool
      size at the deadline instant, then has every worker drain the pool
      to quiescence through blocking removes and deregister;
    + checks the quiescent pool against the workers' ground-truth tallies.

    The checks, each a named entry of {!outcome.violations} when it fails:
    - {b conservation} — [initial + adds = removes] and the pool is empty
      (for the open loop: [initial + generated - rejected = completed]);
    - {b segment consistency} — each segment's atomic count equals its
      stored element count and respects the capacity;
    - {b capacity bound} — the watcher never saw a segment above capacity;
    - {b slot lifecycle} — no claimed slot leaks across register/deregister
      churn, a fresh registration still succeeds, and the registered
      count returns to zero;
    - {b telemetry agreement} — the merged {!Mc_stats} removes and adds
      (spills included) match the tallies, its steal counter matches the
      pool's, the fast + locked path counters stay within the attempted
      operations, spills equal inbox adds (and drains never exceed them),
      and parks equal wakes.

    A traced pool needs no further check: each event is written once,
    through its {!Mc_stats} note, which bumps the counter and appends to
    the ring, so there is no second copy of a total to agree with.

    Stress/invariant harnesses of this shape (rather than unit tests
    alone) are how concurrent structures with capacity invariants are
    validated in practice; cf. Blelloch & Wei 2020 on bounded concurrent
    allocation and Kułakowski 2015 on concurrent-array validation. *)

(** One worker domain's identity and ground-truth tallies. Written only
    by its own domain. *)
type worker = {
  index : int;  (** Home slot; the worker registered there first. *)
  mutable handle : Mc_pool.handle;
  mutable ops : int;  (** Operation attempts through {!add}/{!remove}. *)
  mutable adds : int;  (** Successful adds. *)
  mutable rejects : int;  (** Adds bounced by a capacity bound. *)
  mutable removes : int;  (** Successful removes, drain included. *)
  mutable drains : int;  (** Blocking removes of the drain. *)
  mutable retired : Mc_stats.t list;  (** Stats of every handle held. *)
}

val add : 'a Mc_pool.t -> worker -> 'a -> bool
(** [add pool w x] is {!Mc_pool.try_add}, tallied. *)

val remove : 'a Mc_pool.t -> worker -> blocking:bool -> 'a option
(** {!Mc_pool.remove} ([blocking]) or {!Mc_pool.try_remove}, tallied. *)

val churn : 'a Mc_pool.t -> worker -> unit
(** Retire the worker's handle and register a fresh one (any free slot). *)

type outcome = {
  initial_added : int;  (** Elements the prefill placed. *)
  ops : int;  (** Phase operation attempts, summed. *)
  adds : int;
  rejects : int;
  removes : int;  (** Successful removes, drain included. *)
  ops_attempted : int;
      (** Prefill add attempts + phase ops + drain removes: every
          operation that can note a fast or locked ring path. *)
  backlog : int;  (** Pool size at the deadline instant, pre-drain. *)
  phase_s : float;  (** [t0] to the last worker's phase end. *)
  elapsed_s : float;  (** [t0] to the last join, drain included. *)
  per_worker : (string * Mc_stats.t) list;  (** ["d<i>"], one per worker. *)
  per_segment : (string * Mc_stats.t) list;
      (** ["s<i>"]: each segment's ring path counters. *)
  merged : Mc_stats.t;  (** Every handle ever issued, prefill included. *)
  steals : int;
  traces : Mc_trace.t list;  (** Every handle's event ring; empty untraced. *)
  violations : string list;  (** Empty iff every check held. *)
}

val run :
  Mc_pool.Config.t ->
  initial:int ->
  fill:(int -> 'a) ->
  duration_s:float ->
  phase:('a Mc_pool.t -> worker -> deadline_ns:int -> unit) ->
  consume:(worker -> 'a -> unit) ->
  outcome
(** [run config ~initial ~fill ~duration_s ~phase ~consume] runs one
    cell: [fill i] is the [i]-th prefill element, [phase pool w
    ~deadline_ns] is worker [w]'s timed work (it should return at
    {!Cpool_util.Clock} time [deadline_ns]; the window opened
    [duration_s] earlier), and [consume w x] sees every element the
    drain removes. *)
