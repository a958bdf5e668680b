module Mc_task = Cpool_tasks.Mc_task
module Clock = Cpool_util.Clock
module Json = Cpool_util.Json

type app = Minimax | Nqueens

let app_to_string = function Minimax -> "minimax" | Nqueens -> "nqueens"

type scheduler = Stack | Pool of Cpool_intf.kind

let scheduler_to_string = function
  | Stack -> "stack"
  | Pool kind -> Cpool_intf.to_string kind

type config = {
  kinds : Cpool_intf.kind list;
  domain_counts : int list;
  plies : int;
  fork_plies : int;
  queens : int;
  fork_depth : int;
  repeats : int;
  seed : int64;
}

let default =
  {
    kinds = Cpool_intf.all;
    domain_counts = [ 1; 2; 4 ];
    plies = 3;
    fork_plies = 1;
    queens = 12;
    fork_depth = 3;
    repeats = 3;
    seed = 42L;
  }

type cell = {
  app : app;
  scheduler : scheduler;
  domains : int;
  elapsed_s : float;
  value : int;
  expected : int;
  ok : bool;
  tasks : int;
  forked : int;
  steals : int;
}

type summary = {
  config : config;
  seq_minimax_s : float;
  minimax_expected : int;
  seq_queens_s : float;
  queens_expected : int;
  queens_nodes : int;
  cells : cell list;
}

let make_scheduler config scheduler ~domains =
  match scheduler with
  | Stack -> Mc_task.lock_stack ~workers:domains
  | Pool kind ->
    (* One segment per worker plus the reserved submission slot. *)
    Mc_task.of_config
      {
        Cpool_mc.Mc_pool.Config.default with
        segments = domains + 1;
        kind;
        seed = config.seed;
      }

let run_cell config ~expected app scheduler ~domains =
  let once () =
    let t = make_scheduler config scheduler ~domains in
    let since_ns = Clock.now_ns () in
    let value =
      match app with
      | Minimax ->
        Mc_search.minimax_value t ~fork_plies:config.fork_plies ~plies:config.plies
          Board.empty
      | Nqueens ->
        fst
          (Mc_search.nqueens_solutions ~fork_depth:config.fork_depth ~n:config.queens t)
    in
    let elapsed_s = Clock.elapsed_s ~since_ns in
    Mc_task.shutdown t;
    let tasks = Mc_task.processed t and forked = Mc_task.forked t in
    {
      app;
      scheduler;
      domains;
      elapsed_s;
      value;
      expected;
      ok = value = expected && tasks = forked;
      tasks;
      forked;
      steals = Mc_task.steals t;
    }
  in
  (* Best-of-N on a fresh scheduler each time: on a timesliced machine a
     single run is at the mercy of where the OS scheduler's rotation lands,
     and the minimum is the standard estimator for the undisturbed cost. A
     failing repeat (wrong answer or lost work) is kept in preference to
     any timing — correctness failures must survive into the artifact. *)
  let best = ref (once ()) in
  for _ = 2 to config.repeats do
    if !best.ok then begin
      let c = once () in
      if (not c.ok) || c.elapsed_s < !best.elapsed_s then best := c
    end
  done;
  !best

let run config =
  if config.domain_counts = [] then invalid_arg "Mc_app.run: no domain counts";
  List.iter
    (fun d -> if d < 1 then invalid_arg "Mc_app.run: domain counts must be positive")
    config.domain_counts;
  if config.repeats < 1 then invalid_arg "Mc_app.run: repeats must be positive";
  let since_ns = Clock.now_ns () in
  let minimax_expected = Minimax.value ~plies:config.plies Board.empty in
  let seq_minimax_s = Clock.elapsed_s ~since_ns in
  let since_ns = Clock.now_ns () in
  let queens_expected, queens_nodes =
    Backtrack.sequential (Nqueens.problem ~n:config.queens)
  in
  let seq_queens_s = Clock.elapsed_s ~since_ns in
  (match Nqueens.known_solutions config.queens with
  | Some k when k <> queens_expected ->
    invalid_arg "Mc_app.run: sequential n-queens disagrees with the published count"
  | _ -> ());
  let schedulers = Stack :: List.map (fun k -> Pool k) config.kinds in
  let cells =
    List.concat_map
      (fun (app, expected) ->
        List.concat_map
          (fun domains ->
            List.map
              (fun scheduler -> run_cell config ~expected app scheduler ~domains)
              schedulers)
          config.domain_counts)
      [ (Minimax, minimax_expected); (Nqueens, queens_expected) ]
  in
  {
    config;
    seq_minimax_s;
    minimax_expected;
    seq_queens_s;
    queens_expected;
    queens_nodes;
    cells;
  }

(* --- rendering --------------------------------------------------------- *)

let seq_time summary = function
  | Minimax -> summary.seq_minimax_s
  | Nqueens -> summary.seq_queens_s

let render summary =
  let buf = Buffer.create 4096 in
  let c = summary.config in
  Buffer.add_string buf
    (Printf.sprintf
       "mc-app: %d-ply minimax (fork %d plies) and %d-queens (fork %d rows), \
        best of %d\n"
       c.plies c.fork_plies c.queens c.fork_depth c.repeats);
  Buffer.add_string buf
    (Printf.sprintf "sequential: minimax %.3fs (value %d), queens %.3fs (%d solutions, %d nodes)\n\n"
       summary.seq_minimax_s summary.minimax_expected summary.seq_queens_s
       summary.queens_expected summary.queens_nodes);
  Buffer.add_string buf
    (Printf.sprintf "%-8s %-9s %7s %10s %8s %-5s %8s %8s\n" "app" "scheduler"
       "domains" "elapsed_s" "speedup" "ok" "tasks" "steals");
  List.iter
    (fun cell ->
      let seq = seq_time summary cell.app in
      let speedup = if cell.elapsed_s > 0. then seq /. cell.elapsed_s else Float.nan in
      Buffer.add_string buf
        (Printf.sprintf "%-8s %-9s %7d %10.4f %8.2f %-5b %8d %8d\n"
           (app_to_string cell.app)
           (scheduler_to_string cell.scheduler)
           cell.domains cell.elapsed_s speedup cell.ok cell.tasks cell.steals))
    summary.cells;
  (* Separation: stack elapsed over each kind's elapsed, per (app, domains). *)
  let find app scheduler domains =
    List.find_opt
      (fun cell ->
        cell.app = app && cell.scheduler = scheduler && cell.domains = domains)
      summary.cells
  in
  Buffer.add_string buf "\nseparation (stack elapsed / pool elapsed; > 1 means the pool wins):\n";
  Buffer.add_string buf (Printf.sprintf "%-8s %7s" "app" "domains");
  List.iter
    (fun kind -> Buffer.add_string buf (Printf.sprintf " %8s" (Cpool_intf.to_string kind)))
    c.kinds;
  Buffer.add_char buf '\n';
  List.iter
    (fun app ->
      List.iter
        (fun domains ->
          match find app Stack domains with
          | None -> ()
          | Some stack ->
            Buffer.add_string buf
              (Printf.sprintf "%-8s %7d" (app_to_string app) domains);
            List.iter
              (fun kind ->
                match find app (Pool kind) domains with
                | Some pool when pool.elapsed_s > 0. ->
                  Buffer.add_string buf
                    (Printf.sprintf " %8.2f" (stack.elapsed_s /. pool.elapsed_s))
                | _ -> Buffer.add_string buf (Printf.sprintf " %8s" "-"))
              c.kinds;
            Buffer.add_char buf '\n')
        c.domain_counts)
    [ Minimax; Nqueens ];
  Buffer.contents buf

(* --- JSON -------------------------------------------------------------- *)

let cell_to_json cell =
  Json.Assoc
    [
      ("app", Json.Str (app_to_string cell.app));
      ("scheduler", Json.Str (scheduler_to_string cell.scheduler));
      ("domains", Json.Int cell.domains);
      ("elapsed_s", Json.Float cell.elapsed_s);
      ("result", Json.Int cell.value);
      ("expected", Json.Int cell.expected);
      ("ok", Json.Bool cell.ok);
      ("tasks", Json.Int cell.tasks);
      ("forked", Json.Int cell.forked);
      ("steals", Json.Int cell.steals);
    ]

let to_json summary =
  let c = summary.config in
  Json.Assoc
    [
      ("benchmark", Json.Str "mc-app");
      ( "config",
        Json.Assoc
          [
            ( "kinds",
              Json.List
                (List.map (fun k -> Json.Str (Cpool_intf.to_string k)) c.kinds) );
            ( "domain_counts",
              Json.List (List.map (fun d -> Json.Int d) c.domain_counts) );
            ("plies", Json.Int c.plies);
            ("fork_plies", Json.Int c.fork_plies);
            ("queens", Json.Int c.queens);
            ("fork_depth", Json.Int c.fork_depth);
            ("repeats", Json.Int c.repeats);
            ("seed", Json.Int (Int64.to_int c.seed));
          ] );
      ( "sequential",
        Json.Assoc
          [
            ("minimax_s", Json.Float summary.seq_minimax_s);
            ("minimax_value", Json.Int summary.minimax_expected);
            ("queens_s", Json.Float summary.seq_queens_s);
            ("queens_solutions", Json.Int summary.queens_expected);
            ("queens_nodes", Json.Int summary.queens_nodes);
          ] );
      ("cells", Json.List (List.map cell_to_json summary.cells));
    ]

(* --- validation (the json-check side) ---------------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let integer name json =
  let* v = Json.field name json in
  match v with
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "field %S is not an integer" name)

let string_field name json =
  let* v = Json.field name json in
  match v with
  | Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "field %S is not a string" name)

let validate_cell i cell =
  let where msg = Printf.sprintf "cell %d: %s" i msg in
  let res =
    let* app = string_field "app" cell in
    let* () =
      if app = "minimax" || app = "nqueens" then Ok ()
      else Error (Printf.sprintf "unknown app %S" app)
    in
    let* scheduler = string_field "scheduler" cell in
    let* () =
      if scheduler = "stack" then Ok ()
      else
        match Cpool_intf.of_string scheduler with
        | Ok _ -> Ok ()
        | Error _ -> Error (Printf.sprintf "unknown scheduler %S" scheduler)
    in
    let* domains = integer "domains" cell in
    let* () = if domains >= 1 then Ok () else Error "non-positive domains" in
    let* elapsed = Json.number "elapsed_s" cell in
    let* () =
      if elapsed >= 0. && Float.is_finite elapsed then Ok ()
      else Error "elapsed_s is not a finite non-negative number"
    in
    let* value = integer "result" cell in
    let* expected = integer "expected" cell in
    let* tasks = integer "tasks" cell in
    let* forked = integer "forked" cell in
    let* steals = integer "steals" cell in
    let* ok = Json.field "ok" cell in
    let* () =
      match ok with
      | Json.Bool true -> Ok ()
      | Json.Bool false -> Error "cell is marked not ok"
      | _ -> Error "field \"ok\" is not a boolean"
    in
    let* () =
      if value = expected then Ok ()
      else Error (Printf.sprintf "result %d does not match expected %d" value expected)
    in
    let* () =
      if tasks = forked then Ok ()
      else
        Error (Printf.sprintf "tasks %d does not match forked %d (lost work)" tasks forked)
    in
    let* () = if steals >= 0 then Ok () else Error "negative steals" in
    Ok ()
  in
  match res with Ok () -> Ok () | Error msg -> Error (where msg)

let validate_json json =
  let* benchmark = string_field "benchmark" json in
  let* () =
    if benchmark = "mc-app" then Ok ()
    else Error (Printf.sprintf "benchmark is %S, not \"mc-app\"" benchmark)
  in
  let* seq = Json.field "sequential" json in
  let* _ = Json.number "minimax_s" seq in
  let* _ = integer "minimax_value" seq in
  let* _ = Json.number "queens_s" seq in
  let* solutions = integer "queens_solutions" seq in
  let* _ = integer "queens_nodes" seq in
  let* conf = Json.field "config" json in
  let* repeats = integer "repeats" conf in
  let* () = if repeats >= 1 then Ok () else Error "non-positive repeats" in
  let* queens = integer "queens" conf in
  let* () =
    match Nqueens.known_solutions queens with
    | Some k when k <> solutions ->
      Error
        (Printf.sprintf "queens_solutions %d contradicts the published count %d for n=%d"
           solutions k queens)
    | _ -> Ok ()
  in
  let* cells = Json.field "cells" json in
  match Json.to_list cells with
  | None -> Error "field \"cells\" is not a list"
  | Some [] -> Error "field \"cells\" is empty"
  | Some cells ->
    let rec check i = function
      | [] -> Ok i
      | cell :: rest ->
        let* () = validate_cell i cell in
        check (i + 1) rest
    in
    check 0 cells
