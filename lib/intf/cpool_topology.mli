(** Shared locality model for the pools: socket/core groups or an explicit
    symmetric distance matrix, consumed by both the simulator cost model
    ({!Cpool_sim.Topology}) and the real multicore pool
    (the [topology] field of [Mc_pool.Config.t]).

    A distance is a multiplier on the cost of one local access: the
    diagonal is exactly [1.0] and off-diagonal entries are [>= 1.0] (the
    paper's Butterfly pays ~4x for remote). Groups are locality domains
    (sockets): for matrix topologies they are derived as the connected
    components of the distance-[1.0] graph; for group topologies they are
    as declared. [unit_ns] converts one distance unit above local into
    nanoseconds when the real pool emulates remote latency. *)

type t

val default_unit_ns : int
(** Emulated cost of one distance unit above local, in ns ([1_000]). *)

(** {1 Constructors} *)

val of_groups :
  ?near:float -> ?far:float -> ?unit_ns:int -> int list -> (t, string) result
(** [of_groups sizes] is a topology of [List.length sizes] locality groups
    with the given node counts; nodes in the same group are [near] apart
    (default [1.0]), nodes in different groups [far] apart (default [4.0],
    the Butterfly ratio). Rejects empty or non-positive sizes,
    [near < 1.0], [far < near], and non-positive [unit_ns]. *)

val of_matrix : ?unit_ns:int -> float array array -> (t, string) result
(** [of_matrix m] is a topology described by an explicit distance matrix.
    Rejects empty or non-square or asymmetric matrices, diagonals other
    than [1.0], off-diagonal entries [< 1.0], and non-finite entries. *)

val two_group : ?penalty:float -> ?unit_ns:int -> nodes:int -> unit -> t
(** [two_group ~nodes ()] is the synthetic CI preset: two groups of
    [nodes / 2] and [nodes - nodes / 2] nodes, distance [1.0] within a
    group and [penalty] (default [4.0]) across. Raises [Invalid_argument]
    if [nodes < 2] or the penalty is invalid. *)

val scale_remote : t -> float -> t
(** [scale_remote t k] maps every off-diagonal distance [d] to
    [1.0 +. (d -. 1.0) *. k], preserving the group structure: [k = 0]
    makes the machine uniform, [k = 1] is [t] itself, [k = 2] doubles the
    remote surcharge. Raises [Invalid_argument] on negative or non-finite
    [k]. *)

(** {1 Accessors} *)

val nodes : t -> int
val groups : t -> int
(** Number of locality groups. *)

val group : t -> int -> int
(** [group t i] is the locality-group id of node [i], in [[0, groups t)]. *)

val distance : t -> from:int -> to_:int -> float
val near : t -> int -> int -> bool
(** [near t i j] is [true] iff [i] and [j] share a locality group. *)

val max_distance : t -> float
val unit_ns : t -> int

(** {1 Probe orders} *)

val near_first_order : t -> from:int -> int array
(** [near_first_order t ~from] is a deterministic permutation of
    [0 .. nodes t - 1]: [from] first, then ascending distance from [from],
    ties broken by ring offset. This is the aware probe order for
    Linear search and for steal sweeps. *)

val distance_spans : t -> from:int -> int array -> (int * int) list
(** [distance_spans t ~from order] lists the [(offset, length)] spans of
    equal distance within [order] (as produced by {!near_first_order}),
    excluding position 0 and spans of length 1 — the regions a randomized
    prober may shuffle without breaking near-before-far. *)

val group_major_order : t -> int array
(** Permutation of nodes sorted by (group, index): clusters each locality
    group contiguously, used to place segments on tree leaves so subtrees
    coincide with groups. *)

(** {1 Config files} *)

val parse : string -> (t, string) result
(** [parse text] reads the line-based config format ([#] starts a
    comment): either a groups form —
    {v
groups 2 2
near 1.0
far 4.0
unit_ns 1000
    v}
    or an explicit matrix form —
    {v
matrix
1 4
4 1
unit_ns 1000
    v}
    [near]/[far]/[unit_ns] are optional with the constructor defaults;
    validation matches {!of_groups} / {!of_matrix}. *)

val to_string : t -> string
(** Renders [t] in the {!parse} format; [parse (to_string t)] round-trips
    to an {!equal} topology. *)

val label : t -> string
(** Short human label for bench cells, e.g. ["groups:2+2:far4"]. *)

val equal : t -> t -> bool
