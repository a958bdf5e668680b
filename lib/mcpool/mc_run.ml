type worker = {
  index : int;
  mutable handle : Mc_pool.handle;
  mutable ops : int;
  mutable adds : int;
  mutable rejects : int;
  mutable removes : int;
  mutable drains : int;
  mutable retired : Mc_stats.t list;
}

let add pool w x =
  w.ops <- w.ops + 1;
  let ok = Mc_pool.try_add pool w.handle x in
  if ok then w.adds <- w.adds + 1 else w.rejects <- w.rejects + 1;
  ok

let remove pool w ~blocking =
  w.ops <- w.ops + 1;
  let r =
    if blocking then Mc_pool.remove pool w.handle else Mc_pool.try_remove pool w.handle
  in
  if r <> None then w.removes <- w.removes + 1;
  r

let retire pool w =
  w.retired <- Mc_pool.stats_of_handle w.handle :: w.retired;
  Mc_pool.deregister pool w.handle

(* Retire this identity and claim a fresh slot: the lifecycle churn the
   slot-leak and slot-reuse checks exercise. *)
let churn pool w =
  retire pool w;
  w.handle <- Mc_pool.register pool

type outcome = {
  initial_added : int;
  ops : int;
  adds : int;
  rejects : int;
  removes : int;
  ops_attempted : int;
  backlog : int;
  phase_s : float;
  elapsed_s : float;
  per_worker : (string * Mc_stats.t) list;
  per_segment : (string * Mc_stats.t) list;
  merged : Mc_stats.t;
  steals : int;
  traces : Mc_trace.t list;
  violations : string list;
}

(* Prefill by registering each slot in turn, so elements spread evenly and
   the fill itself exercises register/deregister. [initial] is per segment
   and clamped to the capacity. Returns (added, attempts): prefill pushes
   note paths on the segment stats like any other op. *)
let prefill pool ~capacity ~initial fill =
  let quota = match capacity with None -> initial | Some c -> min initial c in
  let added = ref 0 in
  for s = 0 to Mc_pool.segments pool - 1 do
    let h = Mc_pool.register_at pool s in
    for _ = 1 to quota do
      if Mc_pool.try_add pool h (fill !added) then incr added
    done;
    Mc_pool.deregister pool h
  done;
  (!added, quota * Mc_pool.segments pool)

let rec sleep_until deadline_ns =
  let now = Cpool_util.Clock.now_ns () in
  if now < deadline_ns then begin
    if deadline_ns - now > 2_000_000 then Unix.sleepf 0.001 else Domain.cpu_relax ();
    sleep_until deadline_ns
  end

(* The post-run invariants, over the quiescent pool and the workers'
   ground-truth tallies. *)
let verify pool ~initial_added ~adds ~removes ~ops_attempted
    ~capacity_sightings =
  let violations = ref [] in
  let check name ok detail = if not ok then violations := (name ^ ": " ^ detail) :: !violations in
  let merged = Mc_pool.stats pool in
  let stat name = Cpool_metrics.Counters.get (Mc_stats.counters merged) name in
  let left = Mc_pool.size pool in
  check "conservation"
    (initial_added + adds = removes && left = 0)
    (Printf.sprintf "initial %d + adds %d <> removes %d (+ %d left in pool)" initial_added
       adds removes left);
  check "segment consistency" (Mc_pool.check_segments pool)
    "atomic count <> stored elements (or above capacity)";
  check "capacity bound" (capacity_sightings = 0)
    (Printf.sprintf "%d over-capacity sightings by the watcher" capacity_sightings);
  check "slot leak" (Mc_pool.claimed_count pool = 0)
    (Printf.sprintf "%d slots still claimed after every deregister" (Mc_pool.claimed_count pool));
  check "slot reuse"
    (let h = Mc_pool.register pool in
     let ok = Mc_pool.slot h >= 0 in
     Mc_pool.deregister pool h;
     ok)
    "register after churn failed";
  check "registered accounting" (Mc_pool.registered pool = 0)
    (Printf.sprintf "%d workers still registered" (Mc_pool.registered pool));
  (* The telemetry must agree with the ground truth the tallies recorded. *)
  check "telemetry: removes"
    (Mc_stats.removes merged = removes)
    (Printf.sprintf "stats %d <> tally %d" (Mc_stats.removes merged) removes);
  check "telemetry: adds"
    (stat "adds" + stat "spill adds" = initial_added + adds)
    "stats adds+spills <> tally adds";
  check "telemetry: steals"
    (stat "steals" = Mc_pool.steals pool)
    (Printf.sprintf "stats %d <> pool counter %d" (stat "steals") (Mc_pool.steals pool));
  (* Path-accounting identity: every operation attempt (prefill add, phase
     op, drain remove) performs at most one ring operation that notes a
     fast or locked path, so the path counters can never exceed the ground
     truth of attempted operations (the bug the seed artifact shipped:
     fast_ops > ops because the two sides counted different populations). *)
  let paths =
    Mc_stats.merge_all (Array.to_list (Mc_pool.segment_stats pool))
  in
  let fast = Mc_stats.fast_path_ops paths and locked = Mc_stats.locked_path_ops paths in
  check "telemetry: path accounting"
    (fast + locked <= ops_attempted)
    (Printf.sprintf "fast %d + locked %d > attempted %d" fast locked ops_attempted);
  (* Every pool-level spill lands in an MPSC inbox and nowhere else, and a
     drain can only move what a spill put there. *)
  check "telemetry: spills = inbox adds"
    (stat "spill adds" = stat "inbox adds")
    (Printf.sprintf "spill adds %d <> inbox adds %d" (stat "spill adds") (stat "inbox adds"));
  check "telemetry: inbox drained"
    (stat "inbox drained" <= stat "inbox adds")
    (Printf.sprintf "drained %d > added %d" (stat "inbox drained") (stat "inbox adds"));
  (* Every park ends in a wake before its searcher's remove returns, and
     every worker has returned. *)
  check "telemetry: parks = wakes"
    (Mc_stats.parks merged = Mc_stats.wakes merged)
    (Printf.sprintf "parks %d <> wakes %d" (Mc_stats.parks merged) (Mc_stats.wakes merged));
  (merged, List.rev !violations)

let run (c : Mc_pool.Config.t) ~initial ~fill ~duration_s ~phase ~consume =
  let pool = Mc_pool.of_config c in
  let initial_added, prefill_attempts =
    prefill pool ~capacity:c.capacity ~initial fill
  in
  let stop_watch = Atomic.make false in
  let capacity_sightings = Atomic.make 0 in
  (* A dedicated watcher polls segment sizes concurrently: on a bounded pool
     the capacity invariant must hold at every instant, not just at the end. *)
  let watcher =
    Option.map
      (fun cap ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop_watch) do
              Array.iter
                (fun size -> if size > cap then Atomic.incr capacity_sightings)
                (Mc_pool.segment_sizes pool);
              Domain.cpu_relax ()
            done))
      c.capacity
  in
  let unregistered = Atomic.make c.segments in
  let go = Atomic.make None in
  let worker index () =
    let w =
      {
        index;
        handle = Mc_pool.register_at pool index;
        ops = 0;
        adds = 0;
        rejects = 0;
        removes = 0;
        drains = 0;
        retired = [];
      }
    in
    (* Everyone registers before anyone operates, so quiescence accounting
       never sees a partially started fleet. *)
    Atomic.decr unregistered;
    let rec await_go () =
      match Atomic.get go with
      | Some deadline_ns -> deadline_ns
      | None ->
        Domain.cpu_relax ();
        await_go ()
    in
    phase pool w ~deadline_ns:(await_go ());
    let phase_end_ns = Cpool_util.Clock.now_ns () in
    (* Drain to quiescence: blocking removes until the pool confirms empty. *)
    let rec drain () =
      w.drains <- w.drains + 1;
      match Mc_pool.remove pool w.handle with
      | Some x ->
        w.removes <- w.removes + 1;
        consume w x;
        drain ()
      | None -> ()
    in
    drain ();
    retire pool w;
    (w, phase_end_ns)
  in
  let domains = List.init c.segments (fun i -> Domain.spawn (worker i)) in
  (* The clock starts at barrier release, not before the spawns: spawning
     takes milliseconds, and a deadline fixed earlier would silently eat
     that much of the window. *)
  while Atomic.get unregistered > 0 do
    Domain.cpu_relax ()
  done;
  let t0_ns = Cpool_util.Clock.now_ns () in
  let deadline_ns = t0_ns + Cpool_util.Clock.ns_of_s duration_s in
  Atomic.set go (Some deadline_ns);
  (* Snapshot the backlog at the deadline instant — the workers drain
     whatever is left afterwards, so only this racy-but-timely read can
     tell a queue that kept up from one that only emptied post-hoc. *)
  sleep_until deadline_ns;
  let backlog = Mc_pool.size pool in
  let finished = List.map Domain.join domains in
  let elapsed_s = Cpool_util.Clock.elapsed_s ~since_ns:t0_ns in
  Atomic.set stop_watch true;
  Option.iter Domain.join watcher;
  let workers = List.map fst finished in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 workers in
  let adds = sum (fun w -> w.adds) and removes = sum (fun w -> w.removes) in
  let ops = sum (fun w -> w.ops) in
  let ops_attempted = prefill_attempts + ops + sum (fun w -> w.drains) in
  let merged, violations =
    verify pool ~initial_added ~adds ~removes ~ops_attempted
      ~capacity_sightings:(Atomic.get capacity_sightings)
  in
  let phase_end_ns = List.fold_left (fun acc (_, t) -> max acc t) t0_ns finished in
  {
    initial_added;
    ops;
    adds;
    rejects = sum (fun w -> w.rejects);
    removes;
    ops_attempted;
    backlog;
    phase_s = float_of_int (phase_end_ns - t0_ns) /. 1e9;
    elapsed_s;
    per_worker =
      List.map
        (fun w -> (Printf.sprintf "d%d" w.index, Mc_stats.merge_all w.retired))
        workers;
    per_segment =
      Array.to_list
        (Array.mapi (fun i s -> (Printf.sprintf "s%d" i, s)) (Mc_pool.segment_stats pool));
    merged;
    steals = Mc_pool.steals pool;
    traces = Mc_pool.traces pool;
    violations;
  }
