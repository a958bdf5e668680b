(** Work-stealing task scheduler with futures, on the multicore pool.

    The paper's capstone is an application result: dynamically created
    tasks scheduled through a concurrent pool beat a global-lock stack
    work list (Figure 8, ~15x vs ~10.7x on 16 processors). This module is
    that scheduler as a library on real OCaml 5 domains, in the spirit of
    classic work-stealing runtimes (Blumofe & Leiserson's Cilk): tasks are
    closures flowing through an {!Cpool_mc.Mc_pool} — adds stay in the
    forking worker's segment, idle workers steal half a segment at a time,
    and a worker with nothing to steal {e parks} on the pool's eventcount
    until the next fork makes work visible.

    {2 Lifecycle}

    A scheduler built by {!of_config} owns the pool and its worker
    domains. The pool's {e last} segment slot is reserved as the
    submission slot: {!fork} from outside any worker enqueues through it
    (serialized by a lock), and because that slot stays registered while
    the scheduler is open, the pool can never look quiescent to the
    workers mid-run — blocked workers keep waiting for work instead of
    exiting. {!shutdown} deregisters the submission slot, so once the
    last task drains, the pool's own quiescence detection (every
    registered worker searching an empty pool) tells every worker to
    exit; shutdown then joins their domains. A pool with [segments = n]
    therefore drives at most [n - 1] workers.

    {2 Blocking discipline}

    {!await} inside a task {e helps}: while its future is unresolved the
    worker runs other ready tasks from the pool, so a bounded worker
    fleet can never deadlock on nested fork/join; with nothing to help
    with it parks until the future completes or new work is queued.
    {!await} outside any worker spins briefly, then parks until the
    future completes, and runs nothing — the measured parallelism of a run
    is exactly the worker count. A completion pays for a wakeup only when
    someone is parked on that future.

    {2 Elasticity}

    {!grow} registers fresh slots and spawns new worker domains mid-run;
    {!shrink} retires workers cooperatively (each retiree deregisters,
    releasing its slot for a later {!grow}) — the churn-safe
    register/deregister lifecycle is what makes this sound. Every task is
    counted: at {!shutdown}, [processed t = forked t] even across
    grow/shrink churn, or the scheduler lost work. *)

type t
(** A scheduler: a task pool (or the global-lock stack baseline) plus its
    worker domains. *)

type 'a future
(** The eventual result of a forked computation. *)

val of_config : ?workers:int -> Cpool_mc.Mc_pool.Config.t -> t
(** [of_config cfg] builds a pool-backed scheduler from the consolidated
    pool options — kind, seed, capacity, topology, tracing all inherited
    verbatim ([cfg.segments] must count the reserved submission slot, so
    topology files keep matching node-for-segment). Spawns [workers]
    worker domains (default, and maximum, [cfg.segments - 1]). Raises
    [Invalid_argument] if [cfg.segments < 2], [workers < 1] or
    [workers > cfg.segments - 1], plus anything
    {!Cpool_mc.Mc_pool.of_config} rejects. *)

val lock_stack : workers:int -> t
(** [lock_stack ~workers] is the paper's baseline: one LIFO work list
    guarded by one global lock, behind the identical scheduler machinery
    (same futures, same helping await, same quiescence-by-deregistration
    shutdown), so a benchmark compares only the distribution mechanism.
    Raises [Invalid_argument] if [workers < 1]. *)

val fork : t -> (unit -> 'a) -> 'a future
(** [fork t f] schedules [f] and returns its future. Inside a worker the
    task lands in that worker's own segment (cheap, stealable); outside,
    it goes through the submission slot. An exception raised by [f] is
    captured with its backtrace and re-raised by {!await}. Raises
    [Invalid_argument] after {!shutdown}. *)

val await : 'a future -> 'a
(** [await fut] returns the future's value, running other ready tasks
    while it is unresolved when called from a worker (see the blocking
    discipline above). If the forked computation raised, the exception is
    re-raised here with the original backtrace ([Printexc.raise_with_backtrace]). *)

val join : 'a future list -> 'a list
(** [join futs] awaits each future in order. *)

val grow : t -> int -> int
(** [grow t n] spawns up to [n] additional worker domains, stopping early
    at the slot limit; returns how many actually started. Raises
    [Invalid_argument] if [n < 0] or after {!shutdown}. *)

val shrink : t -> int -> int
(** [shrink t n] asks up to [n] workers to retire, always leaving at
    least one; returns how many were asked. Retirement is cooperative — a
    worker exits at its next scheduling point (a no-op nudge task is
    enqueued per retirement so idle workers wake to notice) — so
    [live_workers] lags the request briefly. *)

val live_workers : t -> int
(** Workers currently running (a racy snapshot; retirements in flight may
    not have landed). *)

val max_workers : t -> int
(** The ceiling {!grow} can reach: [segments - 1] for a pool scheduler,
    unbounded for the stack baseline. *)

val label : t -> string
(** ["linear"], ["random"], ["tree"] or ["stack"] — for reports. *)

val forked : t -> int
(** Tasks enqueued so far (including {!shrink} nudges). *)

val processed : t -> int
(** Tasks executed so far. A task is counted before its value is
    published, so right after {!await} returns, every task it (transitively)
    awaited is counted. After {!shutdown}, must equal {!forked} — the
    task-conservation identity the tests pin. *)

val steals : t -> int
(** Successful pool steals ([0] for the stack baseline). *)

val shutdown : t -> unit
(** [shutdown t] closes submission, waits for every queued task to drain,
    and joins all worker domains (including retired ones). Idempotent.
    Must not be called from inside a task. The counters remain readable
    afterwards. *)
