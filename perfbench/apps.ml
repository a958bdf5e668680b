(* The application and task layers: the paper's two applications solved
   through [Mc_search] on an [Mc_task] scheduler, and a replay of each
   application's fork tree with empty task bodies through [Mc_task.fork] and
   [Mc_task.await], which prices the task layer alone. *)

module Mc_pool = Cpool_mc.Mc_pool
module Mc_task = Cpool_tasks.Mc_task
module Mc_search = Cpool_game.Mc_search
module Nqueens = Cpool_game.Nqueens
module Backtrack = Cpool_game.Backtrack
module Minimax = Cpool_game.Minimax
module Board = Cpool_game.Board
open Stat

(* A task of the fork tree: its pre-order id and the tasks it forks. *)
type node = { id : int; kids : node array }

type app = {
  solve : Mc_task.t -> int;  (* the answer each solve is checked on *)
  sequential : unit -> int;  (* the same answer on the caller, no tasks *)
  published : int option;  (* the answer from the literature, if known *)
  top : node array;  (* the tasks the submitting domain forks *)
  nodes : int;
}

let numbering () =
  let next = ref 0 in
  fun kids ->
    let id = !next in
    incr next;
    { id; kids = kids () }

(* Mc_search.backtrack_count forks one task per root, and inside each task
   one per child for [fork_depth] levels; the frontier tasks run DFS. *)
let queens ~n ~fork_depth =
  let p = Nqueens.problem ~n in
  let node = numbering () in
  let rec shape fork s =
    node (fun () ->
        if fork = 0 then [||]
        else Array.of_list (List.map (shape (fork - 1)) (p.Backtrack.children s)))
  in
  let top = Array.of_list (List.map (shape fork_depth) p.Backtrack.roots) in
  let count = ref 0 in
  let rec size n = incr count; Array.iter size n.kids in
  Array.iter size top;
  {
    solve = (fun t -> fst (Mc_search.nqueens_solutions ~fork_depth ~n t));
    sequential = (fun () -> fst (Backtrack.sequential p));
    published = (if n = 13 then Some 73_712 else Nqueens.known_solutions n);
    top;
    nodes = !count;
  }

(* Mc_search.minimax_value forks one task per legal move from the caller,
   and again inside each task while [fork_plies] lasts. *)
let minimax ~plies ~fork_plies =
  let node = numbering () in
  let rec moves fork plies board =
    if fork = 0 || plies = 0 then [||]
    else
      Array.of_list
        (List.map
           (fun m ->
             let b = Board.play board m in
             node (fun () -> moves (fork - 1) (plies - 1) b))
           (Board.legal_moves board))
  in
  let top = moves fork_plies plies Board.empty in
  let count = ref 0 in
  let rec size n = incr count; Array.iter size n.kids in
  Array.iter size top;
  {
    solve = (fun t -> Mc_search.minimax_value t ~fork_plies ~plies Board.empty);
    sequential = (fun () -> Minimax.value ~plies Board.empty);
    published = None;
    top;
    nodes = !count;
  }

let workers = 2

(* The scheduler's pool: one segment per worker plus the submission slot. *)
let scheduler ~pool_seed =
  Mc_task.of_config ~workers
    { Mc_pool.Config.default with segments = workers + 1; seed = pool_seed }

type setup = {
  sched : Mc_task.t;
  setup_ns : int;  (* build, spawn and one warm-up solve *)
  spawn_ns : int;  (* build and spawn only *)
  warm_ok : bool;
}

let setup app ~pool_seed ~reference =
  let t0 = now_ns () in
  let sched = scheduler ~pool_seed in
  let t1 = now_ns () in
  let answer = app.solve sched in
  let t2 = now_ns () in
  { sched; setup_ns = t2 - t0; spawn_ns = t1 - t0; warm_ok = answer = reference }

(* Shuts the scheduler down; [true] iff every forked task was processed. *)
let shutdown sched =
  let (), ns = time (fun () -> Mc_task.shutdown sched) in
  (Mc_task.forked sched = Mc_task.processed sched, ns)

let ping_gap_ns = 500_000

(* Submit-to-start latency of an empty task on an idle scheduler: wait
   [ping_gap_ns] so the workers park, then a seeded random extra spin so
   the submission lands at a random phase of the workers' park sleeps (a
   plain sleep would line up with their timer wake-ups), fork a task that
   returns its own start time and await it. *)
let idle_pings sched ~rng ~count samples =
  for _ = 1 to count do
    Unix.sleepf (float_of_int ping_gap_ns /. 1e9);
    let until = now_ns () + Cpool_util.Rng.int rng (ping_gap_ns / 4) in
    while now_ns () < until do
      Domain.cpu_relax ()
    done;
    let t0 = now_ns () in
    let started = Mc_task.await (Mc_task.fork sched now_ns) in
    Samples.add samples (started - t0)
  done

type loop = {
  solve_ns : Samples.t;  (* parallel solves, in order *)
  seq_ns : Samples.t;  (* the sequential solve run after each of them *)
  failed : int;
  minor : int;  (* minor collections over the loop *)
  tasks : Samples.t;  (* traced: Mc_task.forked delta of each solve *)
  steals : Samples.t;  (* traced: Mc_task.steals delta of each solve *)
  pings : Samples.t;  (* idle submit-to-start latencies *)
}

(* Closed loop of pairs until [seconds] pass (at least one): a parallel
   solve submitted from this domain, then the sequential solve on this
   domain, both checked against [reference]. The host's speed drifts by
   tens of percent over seconds to minutes; both halves of a pair see the
   same drift, so their ratio does not. Between the two, while the workers
   are idle, [pings] idle pings; spreading them over the whole loop
   samples the workers' park phases after many different solves. Traced,
   each parallel solve is also bracketed by the scheduler's task and steal
   counters. *)
let solve_loop ?(traced = false) app sched ~rng ~pings ~reference ~seconds =
  let l =
    {
      solve_ns = Samples.create 256;
      seq_ns = Samples.create 256;
      failed = 0;
      minor = 0;
      tasks = Samples.create 256;
      steals = Samples.create 256;
      pings = Samples.create 1024;
    }
  in
  let failed = ref 0 in
  let g0 = minor_collections () in
  let deadline = now_ns () + Cpool_util.Clock.ns_of_s seconds in
  while Samples.length l.solve_ns = 0 || now_ns () < deadline do
    let f0 = if traced then Mc_task.forked sched else 0 in
    let s0 = if traced then Mc_task.steals sched else 0 in
    let answer, ns = time (fun () -> app.solve sched) in
    Samples.add l.solve_ns ns;
    if traced then begin
      Samples.add l.tasks (Mc_task.forked sched - f0);
      Samples.add l.steals (Mc_task.steals sched - s0)
    end;
    idle_pings sched ~rng ~count:pings l.pings;
    let seq_answer, seq_ns = time app.sequential in
    Samples.add l.seq_ns seq_ns;
    if answer <> reference then incr failed;
    if seq_answer <> reference then incr failed
  done;
  { l with failed = !failed; minor = minor_collections () - g0 }

(* The median over pairs of sequential time over parallel time. *)
let speedup l =
  median
    (List.init (Samples.length l.solve_ns) (fun i ->
         float_of_int l.seq_ns.Samples.data.(i) /. float_of_int l.solve_ns.Samples.data.(i)))

type replay = {
  fork_ns : Samples.t;  (* one Mc_task.fork call *)
  await_ns : Samples.t;  (* one Mc_task.await call, helping included *)
  delay_ns : Samples.t;  (* fork call to the task body's first instruction *)
  tree_ns : Samples.t;  (* one whole empty tree *)
}

(* Replays the fork tree with empty bodies until [seconds] pass (at least
   once). Each task stamps its own start; per-node slots are written by
   the domain that runs or forks the node and read after the root awaits
   have returned. *)
let replay app sched ~seconds =
  let n = app.nodes in
  let forked_at = Array.make n 0
  and started = Array.make n 0
  and fork_dur = Array.make n 0
  and await_dur = Array.make n 0 in
  let rec body node () =
    started.(node.id) <- now_ns ();
    let futs = Array.map fork_one node.kids in
    Array.iter await_one futs
  and fork_one k =
    let t0 = now_ns () in
    forked_at.(k.id) <- t0;
    let f = Mc_task.fork sched (body k) in
    fork_dur.(k.id) <- now_ns () - t0;
    (k.id, f)
  and await_one (id, f) =
    let t0 = now_ns () in
    Mc_task.await f;
    await_dur.(id) <- now_ns () - t0
  in
  let r =
    {
      fork_ns = Samples.create n;
      await_ns = Samples.create n;
      delay_ns = Samples.create n;
      tree_ns = Samples.create 64;
    }
  in
  let deadline = now_ns () + Cpool_util.Clock.ns_of_s seconds in
  while Samples.length r.tree_ns = 0 || now_ns () < deadline do
    let (), ns = time (fun () -> Array.iter await_one (Array.map fork_one app.top)) in
    Samples.add r.tree_ns ns;
    for i = 0 to n - 1 do
      Samples.add r.fork_ns fork_dur.(i);
      Samples.add r.await_ns await_dur.(i);
      Samples.add r.delay_ns (started.(i) - forked_at.(i))
    done
  done;
  r
