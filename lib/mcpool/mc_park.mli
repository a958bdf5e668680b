(** Event-driven parking: an eventcount.

    An idle thread that has run out of work to look for {e parks}: it
    blocks until something it might be waiting for changes, instead of
    polling on a timer. A producer that makes such a change calls
    {!notify} afterwards. The eventcount makes the pair race-free with one
    padded word holding an epoch and a count of registered sleepers, and a
    mutex/condition pair that only sleepers and the notifiers that found
    sleepers ever touch:

    - {!park} reads the epoch and registers as a sleeper in one atomic
      step, and only then re-checks the caller's [ready] predicate. If it
      still fails, the thread blocks until the epoch moves past the value
      it read.
    - {!notify} does nothing unless a sleeper is registered (one atomic
      load on the producer's fast path); otherwise it advances the epoch,
      consuming every registration in the same step, and broadcasts.

    A notifier that saw no sleeper made its change before the sleeper
    registered, so the sleeper's re-check sees the change; a notifier that
    saw one moves the epoch, so the sleeper's wait returns. Either way no
    wakeup is lost — provided [ready] reads, through atomics, the state the
    producer wrote before notifying. Checking [ready] {e before}
    registering loses exactly that guarantee; the interleaving checker
    finds the lost wakeup in that order, and none in the shipped one.

    {!Mc_pool} parks idle searchers on one eventcount per pool, and the
    task scheduler ([Mc_task]) parks awaiters on its own. Like
    {!Mc_segment_core} the code is a functor over {!Mc_prim.S};
    [include Make (Mc_prim.Real)] is what they run. *)

module type PARK = sig
  type t

  val create : unit -> t

  val park : ?on_block:(unit -> unit) -> t -> ready:(unit -> bool) -> bool
  (** [park t ~ready] is one parking attempt: register as a sleeper, then
      evaluate [ready ()]. If it holds, return [false] at once. Otherwise
      call [on_block] (default: nothing) and block until a {!notify} that
      began after the registration; return [true]. A [true] return does
      not mean [ready] holds now — re-check it. *)

  val notify : t -> unit
  (** [notify t] wakes every thread blocked in {!park}, if any is
      registered. Call it {e after} the change that may make a parked
      thread's [ready] hold. *)

  val sleepers : t -> int
  (** [sleepers t] is how many threads registered in {!park} since the
      last {!notify} that found any (a racy snapshot; [0] when nobody is
      parked). *)
end

module Make (P : Mc_prim.S) : PARK

include PARK
