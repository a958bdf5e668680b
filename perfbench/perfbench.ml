(* The repository's benchmark. One workload per run, chosen by name:

     queens-fine     13-queens forking 4 levels deep (~7.6k small tasks)
     minimax-coarse  4x4x4 tic-tac-toe, 3 plies, forking 1 ply (64 tasks)
     siege-poisson   open-loop Poisson arrivals through a two-segment pool,
                     a light phase (2,000/s) then a heavy one (200,000/s)

   Untraced ([--trace 0]) it prints the end-to-end metrics; traced
   ([--trace 1]) it prints the per-layer ones. The last line of standard
   output is the result object; the line before it is the environment
   block. Every output is checked, and a run with any failed operation
   exits 1. *)

open Stat
module M = Metrics

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (* smoke-test sizes *)
  wrong_answer : bool;  (* expect a wrong answer: every solve must fail *)
  nproc : int;
  revision : string;
}

let busy_domains = 2

let environment o =
  Printf.sprintf
    "{\"nproc\": %d, \"recommended_domain_count\": %d, \"ocaml_version\": %S, \
     \"revision\": %S, \"busy_domains\": %d, \"oversubscribed\": %b, \
     \"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b}"
    o.nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version o.revision busy_domains (busy_domains > o.nproc) o.workload
    o.seed o.seconds o.trace

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* --- per-layer blocks shared by every traced run ------------------------ *)

let segment_layer m o =
  let seconds = if o.tiny then 0.02 else 0.5 in
  M.add m "segment.push_pop_ns" "ns" (Segment_probe.push_pop_ns ~seconds);
  let st = Segment_probe.steal_half ~seconds in
  M.add m "segment.steal_half_ns" "ns" st.steal_ns;
  M.add m "segment.cas_retries_per_steal" "count" st.cas_retries_per_steal

let all_sorted xs =
  let a = Array.concat (List.map (fun s -> Array.sub s.Samples.data 0 s.Samples.len) xs) in
  Array.sort Int.compare a;
  a

(* The pool layer from the traced siege phases' spans and counters. *)
let pool_layer m (phases : Siege.phase list) =
  let pct xs p = Samples.pct_of_sorted (all_sorted xs) p in
  let pick f = List.map f phases in
  M.add m "pool.add_ns_p50" "ns" (pct (pick (fun ph -> ph.Siege.p.add_ns)) 50.);
  let local = pick (fun ph -> ph.Siege.c.rm_local)
  and steal = pick (fun ph -> ph.Siege.c.rm_steal)
  and park = pick (fun ph -> ph.Siege.c.rm_park) in
  M.add m "pool.remove_us_p50.local" "us" (pct local 50. /. 1e3);
  M.add m "pool.remove_us_p50.steal" "us" (pct steal 50. /. 1e3);
  M.add m "pool.remove_us_p50.park" "us" (pct park 50. /. 1e3);
  let count xs = List.fold_left (fun n s -> n + Samples.length s) 0 xs in
  let removes = count local + count steal + count park in
  M.add m "pool.remove_share.park" "ratio"
    (float_of_int (count park) /. float_of_int (max 1 removes));
  let stats =
    Cpool_mc.Mc_stats.merge_all (List.filter_map (fun ph -> ph.Siege.c.stats) phases)
  in
  M.add m "pool.spins_per_remove" "count"
    (float_of_int (Siege.spins stats)
    /. float_of_int (max 1 (Cpool_mc.Mc_stats.removes stats)));
  M.add m "pool.probes_per_steal" "count" (Cpool_mc.Mc_stats.mean_segments_per_steal stats);
  M.add m "pool.elements_per_steal" "count"
    (Cpool_mc.Mc_stats.mean_elements_per_steal stats)

let siege_layer m ~(light : Siege.phase) ~(heavy : Siege.phase) =
  M.add m "siege.sojourn_us_p50.heavy" "us" (Siege.sojourn_us heavy 50.);
  M.add m "siege.sojourn_us_p90.light" "us" (Siege.sojourn_us light 90.);
  M.add m "siege.sojourn_us_p90.heavy" "us" (Siege.sojourn_us heavy 90.);
  M.add m "siege.sojourn_us_p99.light" "us" (Siege.sojourn_us light 99.);
  M.add m "siege.sojourn_us_p99.heavy" "us" (Siege.sojourn_us heavy 99.);
  M.add m "siege.in_limit_ratio.heavy" "ratio" (Siege.in_limit_ratio heavy);
  M.add m "gen.late_us_p50" "us" (Siege.late_us heavy 50.);
  M.add m "gen.late_us_p99" "us" (Siege.late_us heavy 99.);
  M.add m "gen.rate_ratio.light" "ratio" (Siege.rate_ratio light);
  M.add m "gen.rate_ratio.heavy" "ratio" (Siege.rate_ratio heavy)

(* --- run state ------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int; mutable broken : string list }

let fail t why = t.broken <- why :: t.broken

let light_rate = 2_000.
let heavy_rate = 200_000.

let siege_phase o ~rate ~seconds ~traced ~salt =
  Siege.phase ~pool_seed:(Int64.of_int o.seed)
    ~seed:((o.seed * 7919) + salt)
    ~rate ~seconds ~traced

let check_phase t name (ph : Siege.phase) =
  t.attempted <- t.attempted + ph.p.offered;
  let f = Siege.failures ph in
  t.failed <- t.failed + f;
  if f > 0 then
    fail t
      (Printf.sprintf "%s: %d lost, %d duplicated, %d unknown arrivals" name ph.lost
         ph.c.duplicated ph.c.out_of_range)

(* --- the application workloads ------------------------------------------- *)

type app_setups = {
  kept : Apps.setup;  (* the scheduler the timed phase runs on *)
  setup_s : float;  (* medians over the set-ups *)
  spawn_ms : float;
  shutdown_ms : float list;
}

(* Builds the scheduler [n] times (spawn plus one checked warm-up solve) and
   keeps the last; the others are shut down and checked for conservation. *)
let app_setups t app ~pool_seed ~reference ~n =
  let setups = ref [] and shutdowns = ref [] in
  let rec go k =
    let s = Apps.setup app ~pool_seed ~reference in
    t.attempted <- t.attempted + 1;
    if not s.warm_ok then begin
      t.failed <- t.failed + 1;
      fail t "warm-up solve: wrong answer"
    end;
    setups := s :: !setups;
    if k = 1 then s
    else begin
      let conserved, ns = Apps.shutdown s.sched in
      if not conserved then fail t "shutdown: forked <> processed";
      shutdowns := ms_of_ns ns :: !shutdowns;
      go (k - 1)
    end
  in
  let kept = go n in
  {
    kept;
    setup_s = median (List.map (fun s -> float_of_int s.Apps.setup_ns /. 1e9) !setups);
    spawn_ms = median (List.map (fun s -> ms_of_ns s.Apps.spawn_ns) !setups);
    shutdown_ms = !shutdowns;
  }

let check_loop t (l : Apps.loop) =
  t.attempted <- t.attempted + Samples.length l.solve_ns + Samples.length l.seq_ns;
  t.failed <- t.failed + l.failed;
  if l.failed > 0 then fail t (Printf.sprintf "%d solves gave a wrong answer" l.failed)

let finish_scheduler t sched =
  let conserved, ns = Apps.shutdown sched in
  if not conserved then fail t "shutdown: forked <> processed";
  ms_of_ns ns

(* The reference answer, computed sequentially on this domain and checked
   against the published count where there is one. *)
let reference t o (app : Apps.app) =
  let answer = app.sequential () in
  (match app.published with
  | Some k when k <> answer ->
    fail t (Printf.sprintf "sequential answer %d, published %d" answer k)
  | _ -> ());
  if o.wrong_answer then answer + 1 else answer

let solve_ms (l : Apps.loop) p = Samples.pct l.solve_ns p /. 1e6

(* The task and application layers of one app: the replay runs on the
   set-up's scheduler after its timed loops, then shuts it down. *)
let task_and_app_layers m t o (app : Apps.app) ~setups ~(plain : Apps.loop)
    ~(loop : Apps.loop) =
  (* [plain] is untraced; [loop] carries the per-solve counters. *)
  let replay = Apps.replay app setups.kept.sched ~seconds:(if o.tiny then 0.02 else 1.0) in
  let shutdown_ms = finish_scheduler t setups.kept.sched in
  let solves = Samples.length plain.solve_ns in
  let busy_s = Array.fold_left ( + ) 0 (Array.sub plain.solve_ns.data 0 solves) in
  M.add m "task.tasks_per_solve" "count" (Samples.pct loop.tasks 50.);
  M.add m "task.steals_per_solve" "count" (Samples.pct loop.steals 50.);
  M.add m "task.fork_ns_p50" "ns" (Samples.pct replay.fork_ns 50.);
  M.add m "task.await_us_p50" "us" (Samples.pct replay.await_ns 50. /. 1e3);
  M.add m "task.start_delay_us_p50" "us" (Samples.pct replay.delay_ns 50. /. 1e3);
  M.add m "task.start_delay_us_p90" "us" (Samples.pct replay.delay_ns 90. /. 1e3);
  M.add m "task.empty_tree_ms" "ms" (Samples.pct replay.tree_ns 50. /. 1e6);
  M.add m "task.spawn_ms" "ms" setups.spawn_ms;
  M.add m "task.shutdown_ms" "ms" (median (shutdown_ms :: setups.shutdown_ms));
  M.add m "app.solve_ms_p50" "ms" (solve_ms plain 50.);
  M.add m "app.solve_ms_p90" "ms" (solve_ms plain 90.);
  M.add m "app.solves_per_s" "1/s" (float_of_int solves /. (float_of_int busy_s /. 1e9));
  M.add m "app.seq_solve_ms" "ms" (Samples.pct plain.seq_ns 50. /. 1e6);
  M.add m "app.speedup_vs_seq" "ratio" (Apps.speedup plain);
  M.add m "app.solves" "count" (float_of_int solves)

let app_sizes o name =
  match (name, o.tiny) with
  | "queens-fine", false -> Apps.queens ~n:13 ~fork_depth:4
  | "queens-fine", true -> Apps.queens ~n:8 ~fork_depth:2
  | "minimax-coarse", false -> Apps.minimax ~plies:3 ~fork_plies:1
  | _ -> Apps.minimax ~plies:2 ~fork_plies:1

let run_app m t o =
  let app = app_sizes o o.workload in
  let pool_seed = Int64.of_int o.seed in
  let reference = reference t o app in
  let setups = app_setups t app ~pool_seed ~reference ~n:(if o.tiny then 2 else 5) in
  let sched = setups.kept.sched in
  let rng = Cpool_util.Rng.create (Int64.of_int o.seed) in
  if not o.trace then begin
    let loop = Apps.solve_loop app sched ~rng ~pings:25 ~reference ~seconds:o.seconds in
    check_loop t loop;
    ignore (finish_scheduler t sched);
    M.add m "relative_throughput" "ratio" (Apps.speedup loop);
    M.add m "idle_latency_p50_us" "us" (Samples.pct loop.pings 50. /. 1e3);
    M.add m "setup_s" "s" setups.setup_s
  end
  else begin
    let half = o.seconds /. 2. in
    let plain = Apps.solve_loop app sched ~rng ~pings:0 ~reference ~seconds:half in
    let loop = Apps.solve_loop ~traced:true app sched ~rng ~pings:0 ~reference ~seconds:half in
    check_loop t plain;
    check_loop t loop;
    task_and_app_layers m t o app ~setups ~plain ~loop;
    M.add m "gc.minor_collections_per_op" "count"
      (float_of_int loop.minor /. float_of_int (2 * Samples.length loop.solve_ns));
    M.add m "trace.overhead_pct" "%" (100. *. ((Apps.speedup plain /. Apps.speedup loop) -. 1.));
    segment_layer m o;
    let probe = if o.tiny then 0.02 else 0.25 in
    let light = siege_phase o ~rate:light_rate ~seconds:probe ~traced:true ~salt:1 in
    let heavy = siege_phase o ~rate:heavy_rate ~seconds:probe ~traced:true ~salt:2 in
    check_phase t "light" light;
    check_phase t "heavy" heavy;
    pool_layer m [ light; heavy ];
    siege_layer m ~light ~heavy
  end

(* --- the siege workload --------------------------------------------------- *)

let run_siege m t o =
  let phases ~seconds ~traced =
    let g0 = minor_collections () in
    let light = siege_phase o ~rate:light_rate ~seconds ~traced ~salt:1 in
    let heavy = siege_phase o ~rate:heavy_rate ~seconds ~traced ~salt:2 in
    check_phase t "light" light;
    check_phase t "heavy" heavy;
    (light, heavy, minor_collections () - g0)
  in
  if not o.trace then begin
    let dry =
      List.init (if o.tiny then 2 else 5) (fun _ ->
          (siege_phase o ~rate:light_rate ~seconds:0. ~traced:false ~salt:0).setup_ns)
    in
    let light, heavy, _ = phases ~seconds:(o.seconds /. 2.) ~traced:false in
    let setups = light.setup_ns :: heavy.setup_ns :: dry in
    M.add m "relative_throughput" "ratio" (Siege.in_limit_per_s heavy /. heavy_rate);
    M.add m "idle_latency_p50_us" "us" (Siege.sojourn_us light 50.);
    M.add m "setup_s" "s" (median (List.map (fun ns -> float_of_int ns /. 1e9) setups))
  end
  else begin
    let quarter = o.seconds /. 4. in
    let light, heavy, minor = phases ~seconds:quarter ~traced:false in
    let light_t, heavy_t, _ = phases ~seconds:quarter ~traced:true in
    (* The siege drives neither the task nor the application layer; those
       are measured on the queens-fine shape so every traced run reports
       every layer. *)
    let app = app_sizes o "queens-fine" in
    let pool_seed = Int64.of_int o.seed in
    let reference = reference t o app in
    let setups = app_setups t app ~pool_seed ~reference ~n:2 in
    let probe = if o.tiny then 0.02 else 1.0 in
    let rng = Cpool_util.Rng.create (Int64.of_int o.seed) in
    let plain = Apps.solve_loop app setups.kept.sched ~rng ~pings:0 ~reference ~seconds:probe in
    let loop =
      Apps.solve_loop ~traced:true app setups.kept.sched ~rng ~pings:0 ~reference
        ~seconds:probe
    in
    check_loop t plain;
    check_loop t loop;
    task_and_app_layers m t o app ~setups ~plain ~loop;
    segment_layer m o;
    pool_layer m [ light_t; heavy_t ];
    siege_layer m ~light ~heavy;
    M.add m "gc.minor_collections_per_op" "count"
      (float_of_int minor /. float_of_int (max 1 (light.p.offered + heavy.p.offered)));
    M.add m "trace.overhead_pct" "%"
      (100. *. ((Siege.sojourn_us heavy_t 50. /. Siege.sojourn_us heavy 50.) -. 1.))
  end

(* --- command line ----------------------------------------------------------- *)

let workloads = [ "queens-fine"; "minimax-coarse"; "siege-poisson" ]

let parse () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let tiny = ref false and wrong_answer = ref false in
  let nproc = ref (Domain.recommended_domain_count ()) and revision = ref "unknown" in
  let usage =
    "perfbench --workload (" ^ String.concat "|" workloads
    ^ ") --seed N --seconds S --trace (0|1)"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--tiny", Arg.Set tiny, " smoke-test sizes");
      ("--wrong-answer", Arg.Set wrong_answer, " check solves against a wrong answer");
      ("--nproc", Arg.Set_int nproc, "N online cores, for the environment block");
      ("--revision", Arg.Set_string revision, "REV source revision, for the environment block");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end;
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    tiny = !tiny;
    wrong_answer = !wrong_answer;
    nproc = !nproc;
    revision = !revision;
  }

let () =
  let o = parse () in
  let m = M.create () and t = { attempted = 0; failed = 0; broken = [] } in
  if o.workload = "siege-poisson" then run_siege m t o else run_app m t o;
  let correct = t.broken = [] in
  List.iter (fun why -> log "FAILED %s" why) (List.rev t.broken);
  print_endline ("environment " ^ environment o);
  print_endline
    (M.json_object ~correct ~attempted:t.attempted ~failed:t.failed m);
  if not correct then exit 1
