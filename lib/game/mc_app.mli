(** The Figure 8 experiment on real domains: minimax and n-queens through
    {!Mc_search}, every pool kind against the global-lock stack baseline.

    Each grid cell builds a fresh scheduler ({!Cpool_tasks.Mc_task} on a
    pool of the cell's kind, or {!Cpool_tasks.Mc_task.lock_stack}), runs
    one application to completion, and checks the answer against the
    sequential reference computed once up front — a cell is [ok] only if
    its value is exactly the reference {e and} the scheduler conserved
    tasks ([processed = forked]). Timing uses the monotonic
    {!Cpool_util.Clock} and covers only the solve (scheduler spawn and
    shutdown excluded), so cells compare distribution mechanisms, not
    domain start-up cost. Results serialize to JSON ({!to_json}) for the
    committed [BENCH_mcapp.json] artifact; {!validate_json} is the
    [json-check] side. *)

type app = Minimax | Nqueens

val app_to_string : app -> string
(** ["minimax"] or ["nqueens"]. *)

type scheduler = Stack | Pool of Cpool_intf.kind
(** The stack baseline, or a pool-backed scheduler of the given kind. *)

val scheduler_to_string : scheduler -> string
(** ["stack"], or the pool kind's name. *)

type config = {
  kinds : Cpool_intf.kind list;  (** Pool kinds to sweep (stack always runs). *)
  domain_counts : int list;  (** Worker-domain counts to sweep. *)
  plies : int;  (** Minimax search depth from the empty board. *)
  fork_plies : int;  (** Minimax fork frontier ({!Mc_search.minimax_value}). *)
  queens : int;  (** N-queens board size. *)
  fork_depth : int;  (** Backtracking fork frontier. *)
  repeats : int;  (** Runs per cell; the cell keeps the fastest
                      (best-of-N damps OS-scheduler noise on a
                      timesliced machine). A repeat that fails its
                      correctness check is kept over any timing. *)
  seed : int64;  (** Pool construction seed. *)
}

val default : config
(** The paper's three kinds ({!Cpool_intf.all}); 1, 2 and 4 domains;
    3-ply minimax forking 1 ply (64 coarse subtree tasks); 12-queens
    forking 3 rows (879 fine tasks); best of 3; seed 42. *)

type cell = {
  app : app;
  scheduler : scheduler;
  domains : int;
  elapsed_s : float;  (** Monotonic wall-clock of the fastest solve. *)
  value : int;  (** Minimax value, or the solution count. *)
  expected : int;  (** The sequential reference for the same parameters. *)
  ok : bool;  (** [value = expected] and [processed = forked]. *)
  tasks : int;  (** Tasks the scheduler processed. *)
  forked : int;  (** Tasks forked (must equal [tasks]). *)
  steals : int;  (** Pool steals ([0] for the stack). *)
}

type summary = {
  config : config;
  seq_minimax_s : float;  (** Sequential [Minimax.value] wall-clock. *)
  minimax_expected : int;
  seq_queens_s : float;  (** Sequential n-queens DFS wall-clock. *)
  queens_expected : int;  (** Solutions; checked against the published
                              count when {!Nqueens.known_solutions} has
                              one. *)
  queens_nodes : int;
  cells : cell list;
}

val run : config -> summary
(** Run the sequential references, then the full
    stack-plus-kinds × app × domains grid, in a deterministic order;
    each cell is the best of [config.repeats] runs on a fresh scheduler.
    Raises [Invalid_argument] on an empty [domain_counts], a non-positive
    domain count or repeat count, or parameters {!Mc_search} rejects. *)

val render : summary -> string
(** Human-readable report: the per-cell table (elapsed, speedup over the
    sequential reference, task and steal counts), then the
    pool-vs-stack separation table — for each (app, domains) pair, each
    kind's [stack elapsed / kind elapsed] (> 1 means the pool beat the
    global lock). *)

val to_json : summary -> Cpool_util.Json.t
(** The [BENCH_mcapp.json] document: ["benchmark": "mc-app"], the config,
    the sequential references, one object per cell. *)

val validate_json : Cpool_util.Json.t -> (int, string) result
(** Structural check for [json-check]: returns the cell count, or a
    description of the first malformed field. Beyond presence and types
    it enforces per cell that [ok] is [true], [value = expected] and
    [tasks = forked] — an artifact recording a wrong answer or lost work
    fails the check. *)
