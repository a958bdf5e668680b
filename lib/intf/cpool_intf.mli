(** The shared pool interface: one [kind] type for every pool.

    Both the simulated pool ({!Cpool.Pool}) and the real multicore pool
    ({!Cpool_mc.Mc_pool}) implement the paper's three search algorithms,
    so they re-export this single [kind] — callers, CLIs and configs name
    an algorithm once and use it against either implementation. The
    fourth kind, [Hinted], runs in the simulator only. *)

type kind =
  | Linear  (** Ring scan from the last successful segment (paper §3.1). *)
  | Random  (** Uniform random probes (paper §3.2). *)
  | Tree  (** Manber's tournament-tree walk (paper §3.3). *)
  | Hinted
      (** Linear search plus a hint board: an empty-handed searcher
          announces itself and adders deliver elements directly into its
          segment (paper §5). Simulator-only: the real pool rejects it,
          because once idle searchers park the board no longer pays. *)

val all : kind list
(** The paper's three kinds, in presentation order: [Linear; Random;
    Tree] — every kind both pools run. [Hinted] is not in it. *)

val to_string : kind -> string
(** Lowercase names: ["linear"], ["random"], ["tree"], ["hinted"]. *)

val of_string : string -> (kind, string) result
(** Case-insensitive inverse of {!to_string}; [Error] carries a message
    listing the valid kinds. *)

(** A workload scenario spec shared by every driver (mc-throughput,
    mc-siege): op mix, initial sparsity, arrival process,
    duration and producer arrangement, with one [of_string]/[to_string]
    pair so any cell is reproducible from a single printed string. *)
module Workload : sig
  (** How load arrives. [Closed] is the classic closed loop (workers spin
      as fast as the pool allows); the open-loop processes draw
      inter-arrival gaps independently of pool latency, which is what
      exposes queueing collapse. *)
  type arrival =
    | Closed
    | Poisson of float  (** arrivals/s across all producers. *)
    | Bursty of { rate : float; on_ms : float; off_ms : float }
        (** On/off Markov process: exponential on/off sojourns with the
            given mean durations; [rate] is the long-run average
            arrivals/s, so bursts run at [rate * (on + off) / on]. *)

  (** Who produces. [Uniform]: every worker both adds and removes
      (closed-loop style). [Balanced k]: [k] producers spread evenly
      around the segment ring, the rest consume. [Unbalanced k]: [k]
      producers packed into contiguous low slots (the paper's skewed
      arrangement — with a topology, all in one locality group). *)
  type arrangement = Uniform | Balanced of int | Unbalanced of int

  type t = {
    mix : float;  (** Add fraction in [0, 1] for closed-loop ops. *)
    initial : int;  (** Elements prefilled per segment. *)
    arrival : arrival;
    duration_s : float;  (** Seconds of load. *)
    arrangement : arrangement;
  }

  val default : t
  (** Closed loop, mix 0.5, 32 initial per segment, 1 s, uniform. *)

  val sufficient : t
  (** The paper's well-stocked regime: mix 0.65, 256 initial. *)

  val sparse : t
  (** The paper's starved regime: mix 0.35, 8 initial. *)

  val siege : t
  (** Open-loop starting cell: Poisson 2000/s, 2 balanced producers,
      0.3 s, empty start. *)

  val closed : t -> bool
  (** Whether the arrival process is [Closed]. *)

  val sparse_regime : t -> bool
  (** [mix < 0.5] — drivers use this to pick remove-heavy behaviour
      (e.g. blocking removes in the throughput harness). *)

  val offered_rate : t -> float option
  (** The open-loop offered load in arrivals/s; [None] when closed. *)

  val with_rate : t -> float -> t
  (** Replace the offered rate (the saturation search's sweep variable).
      Raises [Invalid_argument] on a closed workload. *)

  val mix_label : t -> string
  (** ["sufficient"] / ["sparse"] for the canonical mix+initial pairs,
      else ["mix0.4/init16"]-style — the label benchmark JSON carries. *)

  val label : t -> string
  (** Human-oriented cell label: {!mix_label} plus any non-default
      arrival and arrangement. *)

  val to_string : t -> string
  (** Canonical spec string; round-trips through {!of_string}. *)

  val of_string : string -> (t, string) result
  (** Parse a spec: an optional preset name ([default], [sufficient],
      [sparse], [siege]) followed by comma-separated [key=value] settings
      ([mix=F], [initial=N], [duration=S],
      [arrival=closed|poisson:RATE|bursty:RATE:ON_MS:OFF_MS],
      [arrangement=uniform|balanced:K|unbalanced:K]). Case-insensitive;
      later settings override earlier ones. [Error] carries a message
      followed by {!valid_forms}. *)

  val valid_forms : string
  (** Multi-line help text listing every accepted form; CLIs print it on
      stderr when a spec fails to parse. *)

  val equal : t -> t -> bool
end
