(** Interleaving scenarios for the multicore segment.

    Each scenario builds a fresh segment (or victim/thief group), runs 2–4
    fibers of real [Mc_segment_core] operations — owner push/pop, foreign
    spill_add, steal-window claim, reserve, refill — under {!Sched.explore}
    (DPOR mode), respecting the ownership discipline [Mc_pool] enforces
    (one owner fiber per segment), and asserts:
    - {b capacity}: the atomic count never exceeds the bound, at {e every}
      primitive step of {e every} schedule (reservations included);
    - {b conservation}: once quiescent, no element was lost or duplicated
      and no reservation leaked ([count = stored]);
    - {b linearizability}: the recorded invocation/response history of the
      schedule has a witness order against the sequential multiset-pool
      spec ({!Linz}) — which catches consistency bugs (a stale failure, a
      double-handed element) that counting alone cannot;
    - {b data-race freedom}: every access to the ring's tracked plain cells
      is ordered by the happens-before relation of the schedule ({!Race},
      raised from inside the scheduler, not listed per scenario).

    Two more scenarios run {!Cpool_mc.Mc_park}, the eventcount idle
    searchers park on, against an adder's notify and against the
    quiescence and deregistration notifies: a lost wakeup leaves a fiber
    blocked forever, which the scheduler reports as a deadlock.

    This covers both the bug class PR 1 fixed (unreserved deposits
    overfilling a bounded segment) and the lock-free ring protocol's
    characteristic races (owner pop vs steal claim; owner push vs bounded
    reservation), checked exhaustively-up-to-commutation rather than
    stochastically. The last scenarios (three stealers on one ring; dual
    spillers against the inbox drain) are enumerable {e only} with the
    reduction — their exhaustive schedule
    spaces exceed the explorer's bound. *)

type scenario = { name : string; instance : unit -> Sched.instance }

val scenarios : scenario list

val count : int
(** [List.length scenarios] — the number CI derives its expectations
    from. *)

val run_all : Format.formatter -> (string * int) list
(** Explores every scenario under DPOR, printing one line each; returns
    [(name, schedules)] per scenario. Raises [Failure] naming the scenario
    on the first invariant violation, race, non-linearizable history or
    deadlock. *)

type stat = {
  s_name : string;
  dpor : int;  (** schedules completed by the reduced exploration *)
  dpor_pruned : int;  (** sleep-set-blocked partial executions *)
  exhaustive : int option;
      (** full-DFS schedule count, or [None] if it exceeded the cap *)
}

val dpor_stats : ?exhaustive_cap:int -> unit -> stat list
(** Runs every scenario under both modes (the exhaustive run bounded by
    [exhaustive_cap], default one million) and reports the counts
    side by side. *)

val lost_wakeup : unit -> Sched.instance
(** A parker that re-checks its condition {e before} registering with the
    eventcount, against an adder that adds and notifies: the seeded lost
    wakeup. Exploring it must raise {!Sched.Deadlock}. *)

val cross_validate : Format.formatter -> unit
(** The reduction's ground-truth check: on three small scenarios, both
    modes must pass with DPOR exploring strictly fewer schedules; on a
    seeded lost-update bug and on {!lost_wakeup}, both modes must fail.
    Raises [Failure] on any disagreement. *)
