(* Tests for the Mc_task work-stealing scheduler and the real-domain
   applications built on it (Mc_search / Mc_app). *)

open Cpool_game
module Mc_task = Cpool_tasks.Mc_task

let kinds =
  [
    ("linear", Cpool_mc.Mc_pool.Linear);
    ("random", Cpool_mc.Mc_pool.Random);
    ("tree", Cpool_mc.Mc_pool.Tree);
  ]

let pool_scheduler ?workers kind ~domains =
  Mc_task.of_config ?workers
    { Cpool_mc.Mc_pool.Config.default with kind; segments = domains + 1 }

(* Run [f] against a fresh scheduler, always shutting it down. *)
let with_scheduler mk f =
  let t = mk () in
  match f t with
  | v ->
    Mc_task.shutdown t;
    v
  | exception e ->
    Mc_task.shutdown t;
    raise e

(* --- futures ----------------------------------------------------------- *)

let test_fork_await () =
  with_scheduler (fun () -> pool_scheduler Cpool_mc.Mc_pool.Linear ~domains:2)
    (fun t ->
      let fut = Mc_task.fork t (fun () -> 6 * 7) in
      Alcotest.(check int) "value" 42 (Mc_task.await fut);
      (* A settled future can be awaited again, cheaply. *)
      Alcotest.(check int) "idempotent" 42 (Mc_task.await fut))

let test_join_order () =
  with_scheduler (fun () -> pool_scheduler Cpool_mc.Mc_pool.Random ~domains:2)
    (fun t ->
      let futs = List.init 32 (fun i -> Mc_task.fork t (fun () -> i * i)) in
      Alcotest.(check (list int))
        "join preserves order"
        (List.init 32 (fun i -> i * i))
        (Mc_task.join futs))

exception Boom of int

let test_exception_reraised () =
  with_scheduler (fun () -> pool_scheduler Cpool_mc.Mc_pool.Tree ~domains:2)
    (fun t ->
      let fut = Mc_task.fork t (fun () -> raise (Boom 7)) in
      match Mc_task.await fut with
      | _ -> Alcotest.fail "expected the worker's exception at await"
      | exception Boom 7 -> ()
      | exception e ->
        Alcotest.failf "expected Boom 7, got %s" (Printexc.to_string e))

let test_exception_keeps_scheduler_alive () =
  with_scheduler (fun () -> pool_scheduler Cpool_mc.Mc_pool.Linear ~domains:2)
    (fun t ->
      let bad = Mc_task.fork t (fun () -> failwith "task failed") in
      (match Mc_task.await bad with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure _ -> ());
      (* The worker that ran the failing task must still serve others. *)
      let ok = Mc_task.join (List.init 16 (fun i -> Mc_task.fork t (fun () -> i))) in
      Alcotest.(check (list int)) "still scheduling" (List.init 16 Fun.id) ok)

(* Nested fork/join from inside workers: help-first await must keep a
   bounded fleet moving through a task graph deeper than the fleet. *)
let rec fib t n =
  if n < 2 then n
  else
    let a = Mc_task.fork t (fun () -> fib t (n - 1)) in
    let b = fib t (n - 2) in
    Mc_task.await a + b

let test_nested_fork_join kind () =
  with_scheduler (fun () -> pool_scheduler kind ~domains:2)
    (fun t ->
      Alcotest.(check int) "fib 15" 610 (Mc_task.await (Mc_task.fork t (fun () -> fib t 15)));
      Alcotest.(check int)
        "conservation" (Mc_task.forked t) (Mc_task.processed t))

let test_stack_backend_equivalent () =
  with_scheduler (fun () -> Mc_task.lock_stack ~workers:2)
    (fun t ->
      Alcotest.(check int) "fib 15" 610 (Mc_task.await (Mc_task.fork t (fun () -> fib t 15)));
      Alcotest.(check int) "conservation" (Mc_task.forked t) (Mc_task.processed t);
      Alcotest.(check int) "no steals on a stack" 0 (Mc_task.steals t);
      Alcotest.(check string) "label" "stack" (Mc_task.label t))

(* --- lifecycle --------------------------------------------------------- *)

let test_of_config_validation () =
  Alcotest.check_raises "one segment"
    (Invalid_argument
       "Mc_task.of_config: need at least 2 segments (workers + the submission slot)")
    (fun () ->
      ignore (Mc_task.of_config { Cpool_mc.Mc_pool.Config.default with segments = 1 }));
  Alcotest.check_raises "too many workers"
    (Invalid_argument "Mc_task.of_config: workers must be in 1 .. segments - 1")
    (fun () ->
      ignore
        (Mc_task.of_config ~workers:3
           { Cpool_mc.Mc_pool.Config.default with segments = 3 }))

let test_shutdown_idempotent () =
  let t = pool_scheduler Cpool_mc.Mc_pool.Linear ~domains:2 in
  let fut = Mc_task.fork t (fun () -> 1) in
  Alcotest.(check int) "value" 1 (Mc_task.await fut);
  Mc_task.shutdown t;
  Mc_task.shutdown t;
  Alcotest.(check int) "workers drained" 0 (Mc_task.live_workers t)

let test_fork_after_shutdown () =
  let t = pool_scheduler Cpool_mc.Mc_pool.Linear ~domains:1 in
  Mc_task.shutdown t;
  Alcotest.check_raises "fork rejected"
    (Invalid_argument "Mc_task.fork: scheduler is shut down") (fun () ->
      ignore (Mc_task.fork t (fun () -> ())))

(* --- elasticity -------------------------------------------------------- *)

let test_grow_shrink_conservation kind () =
  (* Start small on a wide pool, grow mid-run, shrink mid-run: every forked
     task must still be processed exactly once. *)
  with_scheduler (fun () -> pool_scheduler kind ~domains:4 ~workers:1)
    (fun t ->
      Alcotest.(check int) "starts with one worker" 1 (Mc_task.live_workers t);
      Alcotest.(check int) "capacity" 4 (Mc_task.max_workers t);
      let phase1 = List.init 64 (fun i -> Mc_task.fork t (fun () -> i)) in
      Alcotest.(check int) "grow adds" 3 (Mc_task.grow t 3);
      Alcotest.(check int) "grow is capped" 0 (Mc_task.grow t 1);
      let phase2 = List.init 64 (fun i -> Mc_task.fork t (fun () -> -i)) in
      Alcotest.(check int)
        "phase1 sum" (63 * 64 / 2)
        (List.fold_left ( + ) 0 (Mc_task.join phase1));
      let retired = Mc_task.shrink t 2 in
      Alcotest.(check bool) "shrink honored" true (retired >= 0 && retired <= 2);
      let phase3 = List.init 64 (fun i -> Mc_task.fork t (fun () -> i * 2)) in
      Alcotest.(check int)
        "phase2 sum"
        (-(63 * 64 / 2))
        (List.fold_left ( + ) 0 (Mc_task.join phase2));
      Alcotest.(check int)
        "phase3 sum" (63 * 64)
        (List.fold_left ( + ) 0 (Mc_task.join phase3));
      Mc_task.shutdown t;
      Alcotest.(check int)
        "processed = forked" (Mc_task.forked t) (Mc_task.processed t);
      Alcotest.(check int) "all workers retired" 0 (Mc_task.live_workers t))

(* --- applications ------------------------------------------------------ *)

(* Parallel minimax must return exactly the sequential value: the fork
   frontier falls back to Minimax.value, so any disagreement is a
   scheduler bug (lost task, double execution, torn future). *)
let test_minimax_exact kind () =
  let plies = 2 in
  let expected = Minimax.value ~plies Board.empty in
  List.iter
    (fun domains ->
      with_scheduler (fun () -> pool_scheduler kind ~domains)
        (fun t ->
          Alcotest.(check int)
            (Printf.sprintf "plies=%d domains=%d" plies domains)
            expected
            (Mc_search.minimax_value t ~fork_plies:1 ~plies Board.empty);
          Alcotest.(check int)
            "conservation" (Mc_task.forked t) (Mc_task.processed t)))
    [ 1; 2; 4 ]

let test_minimax_stack_exact () =
  let plies = 2 in
  let expected = Minimax.value ~plies Board.empty in
  with_scheduler (fun () -> Mc_task.lock_stack ~workers:2)
    (fun t ->
      Alcotest.(check int) "stack minimax" expected
        (Mc_search.minimax_value t ~fork_plies:1 ~plies Board.empty))

let test_nqueens_known kind () =
  List.iter
    (fun (n, domains) ->
      with_scheduler (fun () -> pool_scheduler kind ~domains)
        (fun t ->
          let solutions, nodes =
            Mc_search.nqueens_solutions ~fork_depth:2 ~n t
          in
          (match Nqueens.known_solutions n with
          | Some k ->
            Alcotest.(check int) (Printf.sprintf "%d-queens solutions" n) k solutions
          | None -> Alcotest.failf "no published count for n=%d" n);
          let seq_solutions, seq_nodes = Backtrack.sequential (Nqueens.problem ~n) in
          Alcotest.(check int) "solutions vs sequential" seq_solutions solutions;
          Alcotest.(check int) "nodes vs sequential" seq_nodes nodes))
    [ (6, 2); (8, 4) ]

let test_search_validation () =
  with_scheduler (fun () -> pool_scheduler Cpool_mc.Mc_pool.Linear ~domains:1)
    (fun t ->
      Alcotest.check_raises "negative plies"
        (Invalid_argument "Mc_search.minimax_value: negative plies")
        (fun () -> ignore (Mc_search.minimax_value t ~plies:(-1) Board.empty));
      Alcotest.check_raises "negative fork frontier"
        (Invalid_argument "Mc_search.minimax_value: negative fork_plies")
        (fun () ->
          ignore (Mc_search.minimax_value t ~fork_plies:(-1) ~plies:1 Board.empty));
      Alcotest.check_raises "negative fork depth"
        (Invalid_argument "Mc_search.backtrack_count: negative fork_depth")
        (fun () ->
          ignore (Mc_search.nqueens_solutions ~fork_depth:(-1) ~n:4 t)))

(* --- the mc-app grid and its artifact ---------------------------------- *)

let test_mc_app_smoke () =
  let config =
    {
      Mc_app.kinds = [ Cpool_mc.Mc_pool.Linear; Cpool_mc.Mc_pool.Random ];
      domain_counts = [ 1; 2 ];
      plies = 1;
      fork_plies = 1;
      queens = 6;
      fork_depth = 2;
      repeats = 1;
      seed = 7L;
    }
  in
  let summary = Mc_app.run config in
  Alcotest.(check int) "grid size" (2 * 2 * 3) (List.length summary.Mc_app.cells);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s/%d ok" (Mc_app.app_to_string c.Mc_app.app)
           (Mc_app.scheduler_to_string c.Mc_app.scheduler)
           c.Mc_app.domains)
        true c.Mc_app.ok)
    summary.Mc_app.cells;
  (* The artifact must round-trip through text and validate. *)
  let json = Mc_app.to_json summary in
  (match Cpool_util.Json.parse (Cpool_util.Json.to_string json) with
  | Error msg -> Alcotest.failf "artifact does not re-parse: %s" msg
  | Ok reparsed -> (
    match Mc_app.validate_json reparsed with
    | Ok cells -> Alcotest.(check int) "validated cells" 12 cells
    | Error msg -> Alcotest.failf "artifact invalid: %s" msg));
  (* Corrupting a cell's result must be caught. *)
  let corrupt =
    match json with
    | Cpool_util.Json.Assoc fields ->
      Cpool_util.Json.Assoc
        (List.map
           (function
             | "cells", Cpool_util.Json.List (Cpool_util.Json.Assoc cell :: rest) ->
               ( "cells",
                 Cpool_util.Json.List
                   (Cpool_util.Json.Assoc
                      (List.map
                         (function
                           | "result", Cpool_util.Json.Int v ->
                             ("result", Cpool_util.Json.Int (v + 1))
                           | kv -> kv)
                         cell)
                   :: rest) )
             | kv -> kv)
           fields)
    | _ -> Alcotest.fail "artifact is not an object"
  in
  match Mc_app.validate_json corrupt with
  | Ok _ -> Alcotest.fail "validator accepted a corrupted result"
  | Error _ -> ()

let per_kind name f =
  List.map
    (fun (kname, kind) ->
      Alcotest.test_case (Printf.sprintf "%s (%s)" name kname) `Quick (f kind))
    kinds

(* --- event-driven parking ------------------------------------------- *)

(* Workers that have spun out and parked must still hear the shutdown. *)
let test_shutdown_with_parked_workers kind () =
  let t = pool_scheduler kind ~domains:2 in
  Alcotest.(check int) "task ran" 7 (Mc_task.await (Mc_task.fork t (fun () -> 7)));
  Unix.sleepf 0.05;
  Mc_task.shutdown t;
  Alcotest.(check int) "workers gone" 0 (Mc_task.live_workers t);
  Alcotest.(check int) "forked = processed" (Mc_task.forked t) (Mc_task.processed t)

(* An external awaiter parks; the completion must wake it, also when the
   task raises. *)
let test_await_woken_by_completion kind () =
  with_scheduler (fun () -> pool_scheduler kind ~domains:2) (fun t ->
      let slow =
        Mc_task.fork t (fun () ->
            Unix.sleepf 0.05;
            11)
      in
      Alcotest.(check int) "value" 11 (Mc_task.await slow);
      let failing =
        Mc_task.fork t (fun () ->
            Unix.sleepf 0.05;
            raise (Boom 3))
      in
      match Mc_task.await failing with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 3 -> ())

(* A task is counted processed before its value is published, so the
   conservation identity holds the moment an await returns. *)
let test_processed_before_published kind () =
  with_scheduler (fun () -> pool_scheduler kind ~domains:2) (fun t ->
      for i = 1 to 1_000 do
        Alcotest.(check int) "value" i (Mc_task.await (Mc_task.fork t (fun () -> i)));
        if Mc_task.forked t <> Mc_task.processed t then
          Alcotest.failf "iteration %d: forked %d <> processed %d" i (Mc_task.forked t)
            (Mc_task.processed t)
      done)

let suites =
  [
    ( "tasks.futures",
      [
        Alcotest.test_case "fork and await" `Quick test_fork_await;
        Alcotest.test_case "join keeps order" `Quick test_join_order;
        Alcotest.test_case "exception re-raised at await" `Quick test_exception_reraised;
        Alcotest.test_case "scheduler survives a failing task" `Quick
          test_exception_keeps_scheduler_alive;
        Alcotest.test_case "stack backend equivalent" `Quick test_stack_backend_equivalent;
      ]
      @ per_kind "nested fork/join" test_nested_fork_join );
    ( "tasks.lifecycle",
      [
        Alcotest.test_case "of_config validation" `Quick test_of_config_validation;
        Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
        Alcotest.test_case "fork after shutdown rejected" `Quick test_fork_after_shutdown;
      ]
      @ per_kind "grow/shrink conserves tasks" test_grow_shrink_conservation );
    ( "tasks.applications",
      [
        Alcotest.test_case "stack minimax exact" `Quick test_minimax_stack_exact;
        Alcotest.test_case "search parameter validation" `Quick test_search_validation;
        Alcotest.test_case "mc-app grid + artifact" `Quick test_mc_app_smoke;
      ]
      @ per_kind "minimax equals sequential" test_minimax_exact
      @ per_kind "n-queens equals published counts" test_nqueens_known );
    ( "tasks.parking",
      per_kind "shutdown with parked workers" test_shutdown_with_parked_workers
      @ per_kind "await woken by completion" test_await_woken_by_completion
      @ per_kind "forked = processed after each await" test_processed_before_published );
  ]
