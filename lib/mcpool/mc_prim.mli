(** Synchronisation primitives the multicore segment is written against.

    {!Mc_segment_core} takes these as a functor parameter so the exact same
    segment code can run either on the hardware primitives ({!Real}) or on
    the interleaving checker's instrumented shims
    ([Cpool_analysis.Sched.Prim]), which turn every primitive operation into
    a scheduling point and let a bounded DFS enumerate all interleavings. *)

module type ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t

  val make_padded : 'a -> 'a t
  (** Like [make], but placed so that neighbouring allocations do not share
      its cache line (best-effort: see [Cpool_util.Pad]). Use for per-domain
      hot atomics written from different domains. *)

  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit

  val exchange : 'a t -> 'a -> 'a
  (** [exchange r v] installs [v] and returns the previous value, atomically.
      The single-step drain of the MPSC spill inbox: the owner swaps the
      whole stack for [[]] without a window where pushes could be lost. *)

  val fetch_and_add : int t -> int -> int

  val compare_and_set : 'a t -> 'a -> 'a -> bool
  (** [compare_and_set r seen v] installs [v] iff the current value is
      physically equal to [seen]; returns whether it did. The building block
      for bound-exact capacity claims. *)
end

module type MUTEX = sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit
end

(** A condition variable over the sibling {!MUTEX}: the blocking half of
    {!Mc_park}'s eventcount. *)
module type CONDITION = sig
  type t
  type mutex

  val create : unit -> t

  val wait : t -> mutex -> unit
  (** [wait c m] atomically releases [m] (which the caller holds) and
      blocks until a {!broadcast} on [c], then reacquires [m] before
      returning. Callers re-check their predicate in a loop. *)

  val broadcast : t -> unit
  (** [broadcast c] wakes every thread blocked in [wait c]. *)
end

(** A tracked plain (non-atomic) mutable cell. Shared mutable state that is
    deliberately unsynchronized — the ring's element slots, the owner-only
    scrub cursor — lives in [Plain.t] rather than bare [mutable] fields so
    the interleaving checker's shim can feed every access to its
    happens-before race detector: an access the protocol does not actually
    order gets reported instead of silently relying on luck. *)
module type PLAIN = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit

  val racy_get : 'a t -> 'a
  (** A sanctioned racy read: the caller certifies the value is treated as
      garbage unless a subsequent CAS (or equivalent) validates that no
      conflicting write intervened — the copy-then-claim window copy. The
      checker exempts it from race reporting; [get]/[set] stay checked. *)
end

module type S = sig
  module Atomic : ATOMIC
  module Mutex : MUTEX
  module Condition : CONDITION with type mutex := Mutex.t
  module Plain : PLAIN
end

(** The hardware primitives: [Stdlib.Atomic], [Stdlib.Mutex],
    [Stdlib.Condition], and a bare mutable record field for [Plain];
    [make_padded] additionally re-homes the atomic in a padded heap
    block. *)
module Real : sig
  module Atomic : ATOMIC with type 'a t = 'a Stdlib.Atomic.t
  module Mutex : MUTEX with type t = Stdlib.Mutex.t

  module Condition :
    CONDITION with type t = Stdlib.Condition.t and type mutex := Stdlib.Mutex.t

  module Plain : PLAIN
end
