(* Tests for the multicore (OCaml 5 domains) concurrent pool. *)

open Cpool_mc

let kinds =
  [
    ("linear", Mc_pool.Linear);
    ("random", Mc_pool.Random);
    ("tree", Mc_pool.Tree);
  ]

(* --- Single-domain semantics --- *)

let test_create_invalid () =
  Alcotest.check_raises "segments"
    (Invalid_argument "Mc_pool.of_config: segments must be positive")
    (fun () -> ignore (Mc_pool.of_config { Mc_pool.Config.default with segments = 0 } : unit Mc_pool.t))

(* The hint board is simulator-only: the real pool refuses the kind
   outright rather than running it as a fourth search. *)
let test_of_config_rejects_hinted () =
  match (Mc_pool.of_config { Mc_pool.Config.default with kind = Mc_pool.Hinted } : unit Mc_pool.t) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_config accepted Hinted"

let test_register_slots () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  let h0 = Mc_pool.register pool in
  let h1 = Mc_pool.register pool in
  Alcotest.(check int) "first slot" 0 (Mc_pool.slot h0);
  Alcotest.(check int) "second slot" 1 (Mc_pool.slot h1);
  (match Mc_pool.register pool with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected registration failure");
  Alcotest.(check int) "segments" 2 (Mc_pool.segments pool)

let test_register_at () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 3 } in
  let h2 = Mc_pool.register_at pool 2 in
  Alcotest.(check int) "explicit slot" 2 (Mc_pool.slot h2);
  Alcotest.check_raises "reclaim" (Invalid_argument "Mc_pool.register_at: slot already claimed")
    (fun () -> ignore (Mc_pool.register_at pool 2));
  (* register skips the claimed slot *)
  Alcotest.(check int) "register skips" 0 (Mc_pool.slot (Mc_pool.register pool))

let test_local_roundtrip () =
  let pool = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  let h = Mc_pool.register pool in
  Mc_pool.add pool h "a";
  Mc_pool.add pool h "b";
  Alcotest.(check int) "size" 2 (Mc_pool.size pool);
  Alcotest.(check (option string)) "fifo" (Some "a") (Mc_pool.try_remove_local pool h);
  Alcotest.(check (option string)) "next" (Some "b") (Mc_pool.try_remove_local pool h);
  Alcotest.(check (option string)) "empty" None (Mc_pool.try_remove_local pool h)

let test_steal_across_slots kind () =
  let pool = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 4 } in
  let h0 = Mc_pool.register_at pool 0 in
  let h2 = Mc_pool.register_at pool 2 in
  for i = 1 to 8 do
    Mc_pool.add pool h2 i
  done;
  (match Mc_pool.try_remove pool h0 with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a stolen element");
  Alcotest.(check int) "one steal" 1 (Mc_pool.steals pool);
  Alcotest.(check int) "conserved" 7 (Mc_pool.size pool)

let test_remove_confirms_empty kind () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 3 } in
  let h = Mc_pool.register pool in
  Alcotest.(check bool) "empty pool" true (Mc_pool.remove pool h = None);
  Mc_pool.add pool h 7;
  Alcotest.(check (option int)) "element back" (Some 7) (Mc_pool.remove pool h)

let test_try_remove_nonblocking kind () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 4 } in
  let h = Mc_pool.register pool in
  Alcotest.(check (option int)) "nothing" None (Mc_pool.try_remove pool h)

(* --- Multi-domain stress --- *)

let test_conservation_under_domains ?(fast_path = true) kind () =
  (* 4 domains, each adds [per] elements and removes [per] elements; at the
     end the pool must be exactly empty and every element consumed once. *)
  let domains = 4 and per = 2_000 in
  let pool =
    Mc_pool.of_config { Mc_pool.Config.default with kind; fast_path; segments = domains }
  in
  let consumed = Array.make domains 0 in
  let spawn i =
    Domain.spawn (fun () ->
        let h = Mc_pool.register_at pool i in
        for k = 1 to per do
          Mc_pool.add pool h ((i * per) + k);
          if k land 1 = 0 then begin
            (* Interleave removes to force stealing traffic. *)
            match Mc_pool.remove pool h with
            | Some _ -> consumed.(i) <- consumed.(i) + 1
            | None -> ()
          end
        done;
        let rec drain () =
          match Mc_pool.remove pool h with
          | Some _ ->
            consumed.(i) <- consumed.(i) + 1;
            drain ()
          | None -> ()
        in
        drain ();
        Mc_pool.deregister pool h)
  in
  let ds = List.init domains spawn in
  List.iter Domain.join ds;
  Alcotest.(check int) "pool drained" 0 (Mc_pool.size pool);
  Alcotest.(check int) "every element consumed exactly once" (domains * per)
    (Array.fold_left ( + ) 0 consumed)

let test_producer_consumer_domains kind () =
  (* 2 producers push, 2 consumers pull; totals must match. *)
  let per = 5_000 in
  let pool = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 4 } in
  let eaten = Atomic.make 0 in
  (* Register every worker before any domain starts, so a fast consumer
     cannot observe "all registered workers searching" while a producer is
     still booting. *)
  let handles = Array.init 4 (Mc_pool.register_at pool) in
  let producers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let h = handles.(i) in
            for k = 1 to per do
              Mc_pool.add pool h k
            done;
            Mc_pool.deregister pool h))
  in
  let consumers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let h = handles.(2 + i) in
            let rec eat () =
              match Mc_pool.remove pool h with
              | Some _ ->
                Atomic.incr eaten;
                eat ()
              | None -> ()
            in
            eat ();
            Mc_pool.deregister pool h))
  in
  List.iter Domain.join producers;
  List.iter Domain.join consumers;
  (* Consumers exit only when all *registered* workers are searching; the
     producers never search, so consumers drain everything the producers
     made before both become the only active parties. Whatever remains
     unconsumed must still be in the pool. *)
  Alcotest.(check int) "conservation" (2 * per) (Atomic.get eaten + Mc_pool.size pool);
  Alcotest.(check bool) "stealing happened" true (Mc_pool.steals pool > 0)

let test_work_generating_workload kind () =
  (* Task-graph shape: each element may spawn children; all domains run
     until global quiescence, which [remove] detects as None. *)
  let pool = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 4 } in
  let produced = Atomic.make 0 in
  let processed = Atomic.make 0 in
  let seed_handle = Mc_pool.register_at pool 0 in
  Mc_pool.add pool seed_handle 12;
  Atomic.incr produced;
  let worker i =
    Domain.spawn (fun () ->
        let h = if i = 0 then seed_handle else Mc_pool.register_at pool i in
        let rec go () =
          match Mc_pool.remove pool h with
          | Some depth ->
            Atomic.incr processed;
            if depth > 0 then begin
              (* Two children per task: a small binary task tree. *)
              Mc_pool.add pool h (depth - 1);
              Mc_pool.add pool h (depth - 1);
              Atomic.incr produced;
              Atomic.incr produced
            end;
            go ()
          | None -> ()
        in
        go ();
        Mc_pool.deregister pool h)
  in
  let ds = List.init 4 worker in
  List.iter Domain.join ds;
  Alcotest.(check int) "all tasks processed" (Atomic.get produced) (Atomic.get processed);
  Alcotest.(check int) "binary tree of depth 12" ((2 lsl 12) - 1) (Atomic.get processed);
  Alcotest.(check int) "pool empty" 0 (Mc_pool.size pool)

(* --- Lifecycle: slot release, churn, deregister-during-drain --- *)

let test_deregister_releases_slot () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  let h0 = Mc_pool.register pool in
  let _h1 = Mc_pool.register pool in
  Alcotest.(check int) "both claimed" 2 (Mc_pool.claimed_count pool);
  Mc_pool.deregister pool h0;
  Alcotest.(check int) "slot released" 1 (Mc_pool.claimed_count pool);
  let h0' = Mc_pool.register pool in
  Alcotest.(check int) "freed slot reused" 0 (Mc_pool.slot h0')

let test_double_deregister_rejected () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 1 } in
  let h = Mc_pool.register pool in
  Mc_pool.deregister pool h;
  Alcotest.check_raises "double deregister"
    (Invalid_argument "Mc_pool.deregister: handle already deregistered") (fun () ->
      Mc_pool.deregister pool h)

let test_register_deregister_churn () =
  (* Regression for the slot leak: the seed version never cleared
     [claimed] on deregister, so the second cycle here already failed with
     "all slots claimed". *)
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  let keeper = Mc_pool.register pool in
  for i = 1 to 1_000 do
    let h = Mc_pool.register pool in
    Mc_pool.add pool h i;
    (match Mc_pool.try_remove pool h with
    | Some _ -> ()
    | None -> Alcotest.fail "churn cycle lost its element");
    Mc_pool.deregister pool h
  done;
  Alcotest.(check int) "only the keeper remains" 1 (Mc_pool.claimed_count pool);
  Alcotest.(check int) "registered count back to one" 1 (Mc_pool.registered pool);
  Alcotest.(check int) "pool empty" 0 (Mc_pool.size pool);
  Mc_pool.deregister pool keeper;
  Alcotest.(check int) "all slots free" 0 (Mc_pool.claimed_count pool)

let test_concurrent_churn () =
  (* Four domains cycle registration concurrently on a shared pool; the
     registration mutex must keep claims exact and leak-free. *)
  let cycles = 250 in
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 8 } in
  let ds =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to cycles do
              let h = Mc_pool.register pool in
              Mc_pool.add pool h ((d * cycles) + i);
              (match Mc_pool.try_remove pool h with
              | Some _ -> ()
              | None -> failwith "lost element under churn");
              Mc_pool.deregister pool h
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no claimed slots leak" 0 (Mc_pool.claimed_count pool);
  Alcotest.(check int) "no registered workers leak" 0 (Mc_pool.registered pool);
  Alcotest.(check bool) "segments consistent" true (Mc_pool.check_segments pool)

let test_deregister_while_draining kind () =
  (* The termination protocol under deregistration: two drainers block in
     [remove] while a third registered worker sits idle — searching (2) <
     registered (3), so neither drainer may conclude the pool empty. Once
     the idle worker deregisters, searching >= registered and both must
     return None. A regression here either hangs (None never concluded) or
     loses elements (None concluded too early). *)
  let elements = 500 in
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 4 } in
  let producer = Mc_pool.register_at pool 0 in
  for i = 1 to elements do
    Mc_pool.add pool producer i
  done;
  let eaten = Atomic.make 0 in
  let drainers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let h = Mc_pool.register_at pool (1 + i) in
            let rec eat () =
              match Mc_pool.remove pool h with
              | Some _ ->
                Atomic.incr eaten;
                eat ()
              | None -> ()
            in
            eat ();
            Mc_pool.deregister pool h))
  in
  (* Let the drainers reach the spin loop with a drained pool, then retire
     the idle producer mid-drain. *)
  while Mc_pool.size pool > 0 do
    Domain.cpu_relax ()
  done;
  Mc_pool.deregister pool producer;
  List.iter Domain.join drainers;
  Alcotest.(check int) "every element consumed exactly once" elements (Atomic.get eaten);
  Alcotest.(check int) "no one left registered" 0 (Mc_pool.registered pool);
  Alcotest.(check int) "no claimed slots leak" 0 (Mc_pool.claimed_count pool)

(* --- Telemetry --- *)

let test_stats_counters () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  let h0 = Mc_pool.register_at pool 0 in
  let h1 = Mc_pool.register_at pool 1 in
  for i = 1 to 4 do
    Mc_pool.add pool h0 i
  done;
  (match Mc_pool.try_remove_local pool h0 with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a local remove");
  (* h1 is empty: this remove must steal 2 of h0's remaining 3 elements. *)
  (match Mc_pool.try_remove pool h1 with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a steal");
  let c0 = Mc_stats.counters (Mc_pool.stats_of_handle h0) in
  let c1 = Mc_stats.counters (Mc_pool.stats_of_handle h1) in
  Alcotest.(check int) "h0 adds" 4 (Cpool_metrics.Counters.get c0 "adds");
  Alcotest.(check int) "h0 local removes" 1 (Cpool_metrics.Counters.get c0 "local removes");
  Alcotest.(check int) "h1 made no adds" 0 (Cpool_metrics.Counters.get c1 "adds");
  Alcotest.(check int) "h1 steals" 1 (Cpool_metrics.Counters.get c1 "steals");
  Alcotest.(check int) "h1 stole two elements" 2
    (Cpool_metrics.Counters.get c1 "elements stolen");
  let segs = Mc_stats.segments_per_steal (Mc_pool.stats_of_handle h1) in
  Alcotest.(check int) "one steal in the distribution" 1 (Cpool_metrics.Sample.n segs);
  (* The linear pass examined h1's own (empty) segment, then stole from
     segment 0: two segments examined for this steal. *)
  Alcotest.(check (float 1e-9)) "segments examined for it" 2.0 (Cpool_metrics.Sample.mean segs);
  Alcotest.(check (float 1e-9)) "mean elements per steal" 2.0
    (Mc_stats.mean_elements_per_steal (Mc_pool.stats_of_handle h1))

let test_stats_survive_churn () =
  (* Pool-level stats merge every handle ever issued, so totals are
     conserved across register/deregister churn. *)
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  for i = 1 to 10 do
    let h = Mc_pool.register pool in
    Mc_pool.add pool h i;
    ignore (Mc_pool.try_remove pool h : int option);
    Mc_pool.deregister pool h
  done;
  let merged = Mc_pool.stats pool in
  let c = Mc_stats.counters merged in
  Alcotest.(check int) "adds accumulated" 10 (Cpool_metrics.Counters.get c "adds");
  Alcotest.(check int) "removes accumulated" 10 (Mc_stats.removes merged)

let test_stats_render () =
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 1 } in
  let h = Mc_pool.register pool in
  Mc_pool.add pool h 1;
  ignore (Mc_pool.try_remove_local pool h : int option);
  let table =
    Mc_stats.render_table [ ("d0", Mc_pool.stats_of_handle h); ("d1", Mc_stats.create ()) ]
  in
  Alcotest.(check bool) "has per-worker row" true
    (String.length table > 0 && String.sub table 0 6 = "worker");
  Alcotest.(check bool) "has total row" true
    (List.exists
       (fun l -> String.length l >= 5 && String.sub l 0 5 = "TOTAL")
       (String.split_on_char '\n' table))

(* --- The closed-loop driver as a soak (smoke) --- *)

(* One churned, invariant-checked closed-loop cell on the lock-free path. *)
let soak_cell ?(capacity = None) ?(trace = false) ~domains kind workload =
  Cpool_mc.Mc_bench.run_cell
    { Cpool_mc.Mc_bench.default with capacity; churn = true; trace }
    { Cpool_mc.Mc_bench.kind; domains; workload; fast_path = true; topo = None; aware = true }

let test_stress_harness kind () =
  let r =
    soak_cell ~capacity:(Some 16) ~domains:4 kind
      { Cpool_intf.Workload.default with duration_s = 0.05; initial = 8 }
  in
  Alcotest.(check (list string)) "no invariant violations" [] r.run.violations;
  Alcotest.(check bool) "did some work" true (r.run.ops > 0);
  Alcotest.(check bool) "renders" true
    (String.length (Cpool_mc.Mc_bench.render [ r ]) > 0)

let test_sparse_stress_cell kind () =
  (* A sparse mix (35% adds) keeps searchers hungry, so the hunt, parking
     and quiescence aborts run under churn; the harness checks
     conservation and the stats identities after the run. *)
  let r =
    soak_cell ~domains:4 kind
      { Cpool_intf.Workload.default with mix = 0.35; duration_s = 0.1; initial = 8 }
  in
  Alcotest.(check (list string)) "no invariant violations" [] r.run.violations;
  Alcotest.(check bool) "did some work" true (r.run.ops > 0)

(* --- Kinds --- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_kind_round_trip () =
  List.iter
    (fun k ->
      let s = Cpool_intf.to_string k in
      match Cpool_intf.of_string s with
      | Ok k' -> Alcotest.(check bool) (s ^ " round-trips") true (k = k')
      | Error e -> Alcotest.fail e)
    (Cpool_intf.all @ [ Mc_pool.Hinted ]);
  (match Cpool_intf.of_string "HINTED" with
  | Ok Mc_pool.Hinted -> ()
  | _ -> Alcotest.fail "of_string must be case-insensitive");
  match Cpool_intf.of_string "bogus" with
  | Ok _ -> Alcotest.fail "expected an error for an unknown kind"
  | Error msg ->
    let mentions_valid = contains msg "valid kinds" in
    Alcotest.(check bool) "error lists the valid kinds" true mentions_valid

(* The real pool runs the paper's three kinds, from one list shared by
   the simulator's registry and the mc-app grid. *)
let test_paper_kinds () =
  Alcotest.(check bool) "Cpool_intf.all is linear, random, tree" true
    (Cpool_intf.all = [ Mc_pool.Linear; Mc_pool.Random; Mc_pool.Tree ]);
  Alcotest.(check bool) "Pool.all_kinds is the same list" true
    (Cpool.Pool.all_kinds == Cpool_intf.all);
  Alcotest.(check bool) "mc-app sweeps the same kinds" true
    (Cpool_game.Mc_app.default.kinds = Cpool_intf.all)

(* The counter labels are read by name by the bench tables and perfbench
   ("retry spins"): the set is pinned so a rename shows up here. *)
let test_counter_labels () =
  Alcotest.(check (list string))
    "labels"
    [
      "adds"; "spill adds"; "rejected adds"; "local removes"; "steals"; "elements stolen";
      "segments examined"; "sweeps"; "empty confirmations"; "retry spins"; "parks"; "wakes";
      "fast-path pushes"; "locked pushes"; "fast-path pops"; "locked pops"; "inbox adds";
      "inbox drains"; "inbox drained"; "top CAS retries"; "mpsc retries"; "batched steals";
      "near probes"; "far probes"; "near steals"; "far steals";
    ]
    (Cpool_metrics.Counters.labels (Mc_stats.counters (Mc_stats.create ())))

let test_quiescence_under_domains kind () =
  (* Two domains both hunting an empty pool: each must see the other as
     "searching empty" (parked counts) and abort, rather than deadlock. *)
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 2 } in
  let handles = Array.init 2 (Mc_pool.register_at pool) in
  let ds =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let r = Mc_pool.remove pool handles.(i) in
            Mc_pool.deregister pool handles.(i);
            r))
  in
  List.iter
    (fun d -> Alcotest.(check (option int)) "abort on empty" None (Domain.join d))
    ds

let test_remove_none_on_quiescence kind () =
  (* A lone registered searcher on an empty pool must abort with None each
     time it finds the pool empty, not park forever, and leave no park
     unmatched by a wake. *)
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 4 } in
  let h = Mc_pool.register pool in
  Alcotest.(check (option int)) "empty pool" None (Mc_pool.remove pool h);
  Mc_pool.add pool h 7;
  Alcotest.(check (option int)) "element back" (Some 7) (Mc_pool.remove pool h);
  Alcotest.(check (option int)) "empty again" None (Mc_pool.remove pool h);
  let s = Mc_pool.stats pool in
  Alcotest.(check int) "every park woke" (Mc_stats.parks s) (Mc_stats.wakes s);
  Alcotest.(check int) "pool empty" 0 (Mc_pool.size pool);
  Mc_pool.deregister pool h

let test_parked_searcher_woken kind () =
  (* A consumer parks on the eventcount round after round; each time a
     remote producer's add must wake it with the element. The producer
     waits (boundedly) for the consumer to park before each add, so at
     least one add lands while the searcher sleeps. *)
  let rounds = 20 in
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 2 } in
  let h0 = Mc_pool.register_at pool 0 in
  let h1 = Mc_pool.register_at pool 1 in
  let s0 = Mc_pool.stats_of_handle h0 in
  let got = Atomic.make 0 in
  let consumer =
    Domain.spawn (fun () ->
        for _ = 1 to rounds do
          match Mc_pool.remove pool h0 with
          | Some _ -> Atomic.incr got
          | None -> ()
        done)
  in
  for k = 1 to rounds do
    let rec await i =
      if i < 2_000 && Mc_stats.parks s0 < k then begin
        Unix.sleepf 1e-4;
        await (i + 1)
      end
    in
    await 0;
    Mc_pool.add pool h1 k
  done;
  Domain.join consumer;
  Alcotest.(check int) "every remove satisfied" rounds (Atomic.get got);
  Alcotest.(check bool) "the searcher parked" true (Mc_stats.parks s0 >= 1);
  Alcotest.(check int) "every park woke" (Mc_stats.parks s0) (Mc_stats.wakes s0);
  Alcotest.(check int) "pool empty" 0 (Mc_pool.size pool);
  Mc_pool.deregister pool h0;
  Mc_pool.deregister pool h1

(* An idle remover must sleep, not poll. After 50 ms with nothing to take
   it is woken by one later add, and its spins stay within the spin budget
   a searcher gets after an idle period (16 failed passes); a hunt that
   polled on a timer would have counted hundreds. *)
let test_idle_remover_parks kind () =
  let pool : int Mc_pool.t =
    Mc_pool.of_config { Mc_pool.Config.default with kind; segments = 2 }
  in
  let h0 = Mc_pool.register_at pool 0 and h1 = Mc_pool.register_at pool 1 in
  let s0 = Mc_pool.stats_of_handle h0 in
  let remover = Domain.spawn (fun () -> Mc_pool.remove pool h0) in
  Unix.sleepf 0.05;
  let rec until_parked i =
    if Mc_stats.parks s0 = 0 && i < 2_000 then begin
      Unix.sleepf 1e-3;
      until_parked (i + 1)
    end
  in
  until_parked 0;
  Mc_pool.add pool h1 42;
  Alcotest.(check (option int)) "woken with the element" (Some 42) (Domain.join remover);
  let spins = Cpool_metrics.Counters.get (Mc_stats.counters s0) "retry spins" in
  Alcotest.(check bool) (Printf.sprintf "%d spins within the budget" spins) true (spins <= 16);
  Alcotest.(check bool) "parked" true (Mc_stats.parks s0 >= 1);
  Alcotest.(check int) "every park woke" (Mc_stats.parks s0) (Mc_stats.wakes s0);
  Mc_pool.deregister pool h0;
  Mc_pool.deregister pool h1

(* --- The pools_bench CLI and the committed artifacts --- *)

(* Paths resolve from the test binary's directory so the suite finds the
   built CLI and the artifacts wherever it is run from. *)
let beside_tests rel = Filename.concat (Filename.dirname Sys.executable_name) rel

(* --kind hinted is refused at parse time, before any run: exit 2 with a
   message naming the kind simulator-only and listing the valid ones. *)
let test_cli_rejects_hinted cmd () =
  let out = Filename.temp_file "pools_bench" ".json" in
  let err = Filename.temp_file "pools_bench" ".err" in
  let code =
    Sys.command
      (Filename.quote_command
         (beside_tests "../bin/pools_bench.exe")
         [ cmd; "--kind"; "hinted"; "--out"; out ]
         ~stdout:Filename.null ~stderr:err)
  in
  let msg = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove out;
  Sys.remove err;
  Alcotest.(check int) "usage error" 2 code;
  Alcotest.(check bool) ("says simulator-only: " ^ msg) true (contains msg "simulator-only");
  Alcotest.(check bool) "lists the valid kinds" true (contains msg "linear, random, tree or all")

let read_json rel =
  match Cpool_util.Json.parse (In_channel.with_open_bin (beside_tests rel) In_channel.input_all) with
  | Ok doc -> doc
  | Error e -> Alcotest.fail (rel ^ " does not parse: " ^ e)

(* The committed closed-loop and mc-app reports predate the kind's
   retirement (the closed-loop one still carries hint fields); they stay
   valid historical artifacts. *)
let test_committed_artifact name validate () =
  match validate (read_json ("../" ^ name)) with
  | Ok n -> Alcotest.(check bool) (name ^ " has cells") true (n > 0)
  | Error e -> Alcotest.fail (name ^ " no longer validates: " ^ e)

let per_kind name f = List.map (fun (kn, k) -> Alcotest.test_case (name ^ " (" ^ kn ^ ")") `Quick (f k)) kinds

let main_suites =
  [
    ( "mcpool",
      [
        Alcotest.test_case "kind round-trip" `Quick test_kind_round_trip;
        Alcotest.test_case "paper's three kinds" `Quick test_paper_kinds;
        Alcotest.test_case "create invalid" `Quick test_create_invalid;
        Alcotest.test_case "of_config rejects Hinted" `Quick test_of_config_rejects_hinted;
        Alcotest.test_case "register slots" `Quick test_register_slots;
        Alcotest.test_case "register_at" `Quick test_register_at;
        Alcotest.test_case "local roundtrip" `Quick test_local_roundtrip;
      ]
      @ per_kind "steal across slots" test_steal_across_slots
      @ per_kind "remove confirms empty" test_remove_confirms_empty
      @ per_kind "try_remove nonblocking" test_try_remove_nonblocking
      @ per_kind "conservation under domains" test_conservation_under_domains
      @ per_kind "producer/consumer domains" test_producer_consumer_domains
      @ per_kind "work-generating workload" test_work_generating_workload
      @ per_kind "quiescence under domains" test_quiescence_under_domains
      @ per_kind "None on quiescence" test_remove_none_on_quiescence );
    ( "mcpool.park",
      per_kind "idle remover parks until an add" test_idle_remover_parks
      @ per_kind "parked searcher woken by remote add" test_parked_searcher_woken );
    ( "pools_bench",
      List.map
        (fun cmd ->
          Alcotest.test_case (cmd ^ " --kind hinted is a usage error") `Quick
            (test_cli_rejects_hinted cmd))
        [ "mc-throughput"; "mc-siege"; "mc-app" ]
      @ [
          Alcotest.test_case "committed BENCH_mcpool.json validates" `Quick
            (test_committed_artifact "BENCH_mcpool.json" Mc_bench.validate_json);
          Alcotest.test_case "committed BENCH_mcapp.json validates" `Quick
            (test_committed_artifact "BENCH_mcapp.json" Cpool_game.Mc_app.validate_json);
        ] );
  ]

(* --- Bounded multicore pools --- *)

let test_bounded_spill_and_reject () =
  let pool = Mc_pool.of_config { Mc_pool.Config.default with capacity = Some 2; segments = 2 } in
  let h0 = Mc_pool.register_at pool 0 in
  Alcotest.(check bool) "1" true (Mc_pool.try_add pool h0 1);
  Alcotest.(check bool) "2" true (Mc_pool.try_add pool h0 2);
  (* Own segment full: spills to slot 1. *)
  Alcotest.(check bool) "3 spills" true (Mc_pool.try_add pool h0 3);
  Alcotest.(check bool) "4 spills" true (Mc_pool.try_add pool h0 4);
  Alcotest.(check bool) "5 rejected" false (Mc_pool.try_add pool h0 5);
  Alcotest.(check int) "size capped" 4 (Mc_pool.size pool);
  (match Mc_pool.add pool h0 6 with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected Failure");
  Mc_pool.deregister pool h0

let test_bounded_capacity_validated () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Mc_pool.of_config: capacity must be positive")
    (fun () -> ignore (Mc_pool.of_config { Mc_pool.Config.default with capacity = Some 0; segments = 2 } : int Mc_pool.t))

let test_bounded_steal_capped () =
  let pool = Mc_pool.of_config { Mc_pool.Config.default with capacity = Some 4; segments = 2 } in
  let h0 = Mc_pool.register_at pool 0 in
  let h1 = Mc_pool.register_at pool 1 in
  for i = 1 to 4 do
    Mc_pool.add pool h1 i
  done;
  (* Thief empty, spare 4: a steal of ceil(4/2)=2 fits the reservation. *)
  Alcotest.(check bool) "steals" true (Mc_pool.try_remove pool h0 <> None);
  Alcotest.(check int) "conserved" 3 (Mc_pool.size pool);
  Alcotest.(check bool) "segments consistent" true (Mc_pool.check_segments pool);
  Mc_pool.deregister pool h0;
  Mc_pool.deregister pool h1

let test_bounded_capacity_never_exceeded kind () =
  (* Regression for the capacity race: steals used to size their take from
     an unlocked [spare] read and then deposit unconditionally, so racing
     thieves could push a segment past its bound. A watcher domain polls
     every segment's occupied capacity throughout an add-heavy
     multi-domain run: the bound must hold at every instant. *)
  let domains = 4 and capacity = 8 and per = 10_000 in
  let pool =
    Mc_pool.of_config
      { Mc_pool.Config.default with kind; capacity = Some capacity; segments = domains }
  in
  let handles = Array.init domains (Mc_pool.register_at pool) in
  let stop = Atomic.make false in
  let over_capacity = Atomic.make 0 in
  let watcher =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Array.iter
            (fun size -> if size > capacity then Atomic.incr over_capacity)
            (Mc_pool.segment_sizes pool);
          Domain.cpu_relax ()
        done)
  in
  let added = Atomic.make 0 and removed = Atomic.make 0 in
  let ds =
    List.init domains (fun i ->
        Domain.spawn (fun () ->
            let h = handles.(i) in
            for k = 1 to per do
              (* Add-heavy (2 adds : 1 remove) keeps segments pinned at the
                 bound, maximising spills and capped steals. *)
              if k mod 3 < 2 then begin
                if Mc_pool.try_add pool h k then Atomic.incr added
              end
              else
                match Mc_pool.try_remove pool h with
                | Some _ -> Atomic.incr removed
                | None -> ()
            done;
            let rec drain () =
              match Mc_pool.remove pool h with
              | Some _ ->
                Atomic.incr removed;
                drain ()
              | None -> ()
            in
            drain ();
            Mc_pool.deregister pool h))
  in
  List.iter Domain.join ds;
  Atomic.set stop true;
  Domain.join watcher;
  Alcotest.(check int) "capacity never exceeded" 0 (Atomic.get over_capacity);
  Alcotest.(check int) "conservation" (Atomic.get added) (Atomic.get removed);
  Alcotest.(check int) "drained" 0 (Mc_pool.size pool);
  Alcotest.(check bool) "segments consistent" true (Mc_pool.check_segments pool)

(* --- Segment-level capacity primitives --- *)

let test_segment_deposit_overflow () =
  let s : int Mc_segment.t = Mc_segment.make ~capacity:3 ~id:0 () in
  Alcotest.(check bool) "fill one" true (Mc_segment.try_add s 1);
  Alcotest.(check (list int)) "rejects past the bound" [ 12 ]
    (Mc_segment.deposit s [ 10; 11; 12 ]);
  Alcotest.(check int) "filled to capacity" 3 (Mc_segment.size s);
  Alcotest.(check bool) "consistent" true (Mc_segment.invariant_ok s);
  let u : int Mc_segment.t = Mc_segment.make ~id:1 () in
  Alcotest.(check (list int)) "unbounded never rejects" []
    (Mc_segment.deposit u [ 1; 2; 3 ])

let test_segment_reserve_refill () =
  let s : int Mc_segment.t = Mc_segment.make ~capacity:4 ~id:0 () in
  Alcotest.(check bool) "one stored" true (Mc_segment.try_add s 1);
  Alcotest.(check int) "reservation capped by spare" 3 (Mc_segment.reserve s 10);
  Alcotest.(check int) "reservation occupies capacity" 4 (Mc_segment.size s);
  Alcotest.(check bool) "adds see no room" false (Mc_segment.try_add s 2);
  Mc_segment.refill s ~reserved:3 [ 7; 8 ];
  Alcotest.(check int) "unused reservation released" 3 (Mc_segment.size s);
  Alcotest.(check bool) "consistent after refill" true (Mc_segment.invariant_ok s);
  Alcotest.check_raises "overfull refill"
    (Invalid_argument "Mc_segment.refill: more elements than reserved") (fun () ->
      Mc_segment.refill s ~reserved:1 [ 1; 2 ]);
  Alcotest.check_raises "negative reservation"
    (Invalid_argument "Mc_segment.reserve: negative reservation") (fun () ->
      ignore (Mc_segment.reserve s (-1)))

(* --- Ring protocol and the fast/locked path split --- *)

let test_segment_spill_add () =
  let s : int Mc_segment.t = Mc_segment.make ~capacity:3 ~id:0 () in
  Alcotest.(check bool) "owner add" true (Mc_segment.try_add s 1);
  Alcotest.(check bool) "spill 1" true (Mc_segment.spill_add s 2);
  Alcotest.(check bool) "spill 2" true (Mc_segment.spill_add s 3);
  Alcotest.(check bool) "spill past bound rejected" false (Mc_segment.spill_add s 4);
  Alcotest.(check int) "size" 3 (Mc_segment.size s);
  Alcotest.(check bool) "consistent" true (Mc_segment.invariant_ok s);
  (* All three come back out through the owner (ring first, then inbox). *)
  let rec drain acc =
    match Mc_segment.try_remove s with Some x -> drain (x :: acc) | None -> acc
  in
  Alcotest.(check (list int)) "all retrieved" [ 1; 2; 3 ] (List.sort compare (drain []));
  let stats = Mc_segment.stats s in
  Alcotest.(check int) "inbox adds counted" 2
    (Cpool_metrics.Counters.get (Mc_stats.counters stats) "inbox adds")

let test_segment_ring_wrap_churn () =
  (* Push/pop churn far past the initial ring size: the cursors are
     monotone, so the ring indices wrap many times; every element must
     come back exactly once, interleaved with steals. *)
  let s : int Mc_segment.t = Mc_segment.make ~id:0 () in
  let seen = Hashtbl.create 64 in
  let next = ref 0 in
  let out = ref 0 in
  for round = 1 to 200 do
    for _ = 1 to 7 do
      incr next;
      Mc_segment.add s !next
    done;
    (match Mc_segment.steal_half ~max_take:2 s with
    | Cpool.Steal.Nothing -> ()
    | Cpool.Steal.Single x ->
      incr out;
      Hashtbl.replace seen x ()
    | Cpool.Steal.Batch (x, rest) ->
      List.iter
        (fun y ->
          incr out;
          Hashtbl.replace seen y ())
        (x :: rest));
    let pops = if round mod 3 = 0 then 6 else 4 in
    for _ = 1 to pops do
      match Mc_segment.try_remove s with
      | Some x ->
        incr out;
        Hashtbl.replace seen x ()
      | None -> ()
    done
  done;
  let rec drain () =
    match Mc_segment.try_remove s with
    | Some x ->
      incr out;
      Hashtbl.replace seen x ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "every element out exactly once" !next !out;
  Alcotest.(check int) "no duplicates" !next (Hashtbl.length seen);
  Alcotest.(check bool) "consistent" true (Mc_segment.invariant_ok s)

let test_segment_fast_path_stats () =
  let s : int Mc_segment.t = Mc_segment.make ~id:0 () in
  for i = 1 to 8 do
    Mc_segment.add s i
  done;
  for _ = 1 to 8 do
    ignore (Mc_segment.try_remove s)
  done;
  let stats = Mc_segment.stats s in
  let get name = Cpool_metrics.Counters.get (Mc_stats.counters stats) name in
  (* Every owner op is lock-free now: pushes publish with one fetch-and-add
     of [bottom], pops (including the last element) commit with one CAS on
     [top]. The locked counters only move under [fast_path:false]. *)
  Alcotest.(check int) "all pushes fast" 8 (get "fast-path pushes");
  Alcotest.(check int) "no locked pushes" 0 (get "locked pushes");
  Alcotest.(check int) "all pops fast" 8 (get "fast-path pops");
  Alcotest.(check int) "no locked pops" 0 (get "locked pops");
  Alcotest.(check int) "uncontended: no CAS retries" 0 (get "top CAS retries");
  Alcotest.(check (float 0.0)) "fraction is 1" 1.0 (Mc_stats.fast_path_fraction stats)

let test_segment_baseline_mode () =
  (* fast_path:false is the benchmark's all-mutex twin: same results, all
     owner traffic on the locked counters. *)
  let s : int Mc_segment.t = Mc_segment.make ~fast_path:false ~id:0 () in
  for i = 1 to 8 do
    Mc_segment.add s i
  done;
  for _ = 1 to 8 do
    ignore (Mc_segment.try_remove s)
  done;
  Alcotest.(check int) "empty" 0 (Mc_segment.size s);
  let stats = Mc_segment.stats s in
  Alcotest.(check int) "no fast ops" 0 (Mc_stats.fast_path_ops stats);
  Alcotest.(check int) "all ops locked" 16 (Mc_stats.locked_path_ops stats)

let test_segment_steal_batch_stats () =
  (* Batch-size telemetry lives on the thief's handle now: with the victim
     segment lock-free there is no serialization point left on its side to
     record a single-writer sample. Exercise it through the pool. *)
  let pool : int Mc_pool.t = Mc_pool.of_config { Mc_pool.Config.default with segments = 2 } in
  let h0 = Mc_pool.register_at pool 0 in
  let h1 = Mc_pool.register_at pool 1 in
  for i = 1 to 8 do
    Mc_pool.add pool h1 i
  done;
  (* Steal 1: ceil(8/2) = 4 claimed in one batched CAS window. *)
  Alcotest.(check (option int)) "first steal, victim's oldest" (Some 1)
    (Mc_pool.try_remove pool h0);
  for _ = 1 to 3 do
    ignore (Mc_pool.try_remove_local pool h0)
  done;
  (* Steal 2: victim holds 5..8, so ceil(4/2) = 2 claimed. *)
  Alcotest.(check (option int)) "second steal" (Some 5) (Mc_pool.try_remove pool h0);
  ignore (Mc_pool.try_remove_local pool h0);
  (* Steal 3: victim holds 7 and 8 — a single-element claim. *)
  Alcotest.(check (option int)) "single steal" (Some 7) (Mc_pool.try_remove pool h0);
  let stats = Mc_pool.stats_of_handle h0 in
  Alcotest.(check int) "only multi-element steals are batched" 2
    (Cpool_metrics.Counters.get (Mc_stats.counters stats) "batched steals");
  let sizes = Mc_stats.steal_batch_sizes stats in
  Alcotest.(check int) "every steal sampled" 3 (Cpool_metrics.Sample.n sizes);
  Alcotest.(check (float 0.0)) "largest batch" 4.0 (Cpool_metrics.Sample.max_value sizes)

let test_segment_concurrent_steal_disjoint () =
  (* Two stealer domains race batched CAS claims on one owner's ring while
     the owner keeps pushing and popping. Element identity proves loot
     disjointness: every pushed element comes out exactly once — a failed
     claim that still delivered (double-take) or a lost window would break
     the multiset equality. *)
  let s : int Mc_segment.t = Mc_segment.make ~id:0 () in
  let total = 20_000 in
  let loot = Array.make 2 [] in
  let stop = Atomic.make false in
  let thieves =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let acc = ref [] in
            while not (Atomic.get stop) do
              match Mc_segment.steal_half ~max_take:3 s with
              | Cpool.Steal.Nothing -> Domain.cpu_relax ()
              | Cpool.Steal.Single x -> acc := x :: !acc
              | Cpool.Steal.Batch (x, rest) -> acc := List.rev_append (x :: rest) !acc
            done;
            loot.(i) <- !acc))
  in
  let popped = ref [] in
  for i = 1 to total do
    Mc_segment.add s i;
    if i mod 3 = 0 then
      match Mc_segment.try_remove s with
      | Some x -> popped := x :: !popped
      | None -> ()
  done;
  Atomic.set stop true;
  List.iter Domain.join thieves;
  let rec drain () =
    match Mc_segment.try_remove s with
    | Some x ->
      popped := x :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  let all = List.concat [ loot.(0); loot.(1); !popped ] in
  Alcotest.(check int) "conserved" total (List.length all);
  Alcotest.(check bool) "every element exactly once" true
    (List.sort compare all = List.init total (fun i -> i + 1));
  Alcotest.(check bool) "consistent" true (Mc_segment.invariant_ok s)

let test_segment_mpsc_drain_completeness () =
  (* Three spiller domains CAS-push onto the MPSC inbox while the owner
     pops concurrently. Spill traffic is FIFO end-to-end (the drain
     reverses the Treiber stack back to arrival order before folding it
     into the ring), so each spiller's elements must come out in its own
     push order; and with no stealers, every spilled element must arrive
     through an owner drain. *)
  let s : (int * int) Mc_segment.t = Mc_segment.make ~id:0 () in
  let per = 5_000 in
  let spillers_done = Atomic.make 0 in
  let spillers =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              while not (Mc_segment.spill_add s (d, i)) do
                Domain.cpu_relax ()
              done
            done;
            Atomic.incr spillers_done))
  in
  let total = 3 * per in
  let seen = Array.make 3 0 in
  let got = ref 0 in
  while !got < total do
    match Mc_segment.try_remove s with
    | Some (d, i) ->
      incr got;
      if i <> seen.(d) + 1 then
        Alcotest.failf "spiller %d out of order: got %d after %d" d i seen.(d);
      seen.(d) <- i
    | None ->
      if Atomic.get spillers_done = 3 && Mc_segment.size s = 0 then
        Alcotest.failf "lost elements: only %d of %d drained" !got total;
      Domain.cpu_relax ()
  done;
  List.iter Domain.join spillers;
  Alcotest.(check bool) "drained dry" true (Mc_segment.try_remove s = None);
  Alcotest.(check bool) "consistent" true (Mc_segment.invariant_ok s);
  let c = Mc_stats.counters (Mc_segment.stats s) in
  Alcotest.(check int) "every spill was an inbox add" total
    (Cpool_metrics.Counters.get c "inbox adds");
  Alcotest.(check int) "every inbox element drained by the owner" total
    (Cpool_metrics.Counters.get c "inbox drained")

let test_pool_fast_path_off_equivalent kind () =
  (* The baseline pool must behave identically (it is the same protocol,
     minus the lock elision): run the conservation workload on it. *)
  test_conservation_under_domains ~fast_path:false kind ()

let test_mc_bench_smoke () =
  let workload = { Cpool_intf.Workload.sufficient with duration_s = 0.05 } in
  let config =
    { Cpool_mc.Mc_bench.default with workloads = [ workload ]; domain_counts = [ 2 ] }
  in
  let fast =
    {
      Cpool_mc.Mc_bench.kind = Mc_pool.Linear;
      domains = 2;
      workload;
      fast_path = true;
      topo = None;
      aware = true;
    }
  in
  (* The lock-free cell, its all-mutex twin and a topology cell: every
     cell type the grid runs is invariant-checked alike. *)
  let cells =
    [
      fast;
      { fast with fast_path = false };
      { fast with topo = Some (Cpool_topology.two_group ~nodes:2 ()) };
    ]
  in
  let results = List.map (Cpool_mc.Mc_bench.run_cell config) cells in
  List.iter
    (fun (r : Cpool_mc.Mc_bench.result) ->
      Alcotest.(check (list string)) "no invariant violations" [] r.run.violations;
      Alcotest.(check bool) "did work" true (r.run.ops > 0);
      Alcotest.(check bool) "throughput positive" true
        (Cpool_mc.Mc_bench.ops_per_sec r > 0.0))
    results;
  Alcotest.(check bool) "fast path used" true
    (Mc_stats.fast_path_ops
       (Mc_stats.merge_all (List.map snd (List.hd results).run.per_segment))
    > 0);
  let doc = Cpool_mc.Mc_bench.to_json config results in
  match Cpool_util.Json.parse (Cpool_util.Json.to_string doc) with
  | Error e -> Alcotest.fail ("emitted JSON does not re-parse: " ^ e)
  | Ok doc' -> (
    match Cpool_mc.Mc_bench.validate_json doc' with
    | Ok 3 -> ()
    | Ok n -> Alcotest.fail (Printf.sprintf "expected 3 cells, validator saw %d" n)
    | Error e -> Alcotest.fail ("validator rejected the artifact: " ^ e))

(* The run scaffold snapshots the backlog at the deadline, before any
   worker drains: every phase adds and then holds past the deadline, so
   the snapshot sees the prefill plus every add. The drain then hands
   each element to [consume] exactly once and leaves the pool empty. *)
let test_run_backlog_then_drain () =
  let segments = 2 and initial = 3 and per_worker = 10 in
  let consumed = Array.make (segments * (initial + per_worker)) 0 in
  let lock = Mutex.create () in
  let outcome =
    Mc_run.run
      { Mc_pool.Config.default with segments }
      ~initial ~fill:Fun.id ~duration_s:0.05
      ~phase:(fun pool w ~deadline_ns ->
        for i = 0 to per_worker - 1 do
          ignore (Mc_run.add pool w ((segments * initial) + (w.index * per_worker) + i))
        done;
        let hold_ns = deadline_ns + Cpool_util.Clock.ns_of_s 0.2 in
        while Cpool_util.Clock.now_ns () < hold_ns do
          Unix.sleepf 0.001
        done)
      ~consume:(fun _ x -> Mutex.protect lock (fun () -> consumed.(x) <- consumed.(x) + 1))
  in
  let total = segments * (initial + per_worker) in
  Alcotest.(check (list string)) "no invariant violations" [] outcome.violations;
  Alcotest.(check int) "prefill" (segments * initial) outcome.initial_added;
  Alcotest.(check int) "adds" (segments * per_worker) outcome.adds;
  Alcotest.(check int) "backlog at the deadline" total outcome.backlog;
  Alcotest.(check int) "drain removes everything" total outcome.removes;
  Alcotest.(check bool) "each element consumed once" true
    (Array.for_all (fun n -> n = 1) consumed);
  Alcotest.(check bool) "phase spans the window" true (outcome.phase_s >= 0.05)

let suites =
  main_suites
  @ [
    ( "mcpool.ring",
      [
        Alcotest.test_case "spill_add capacity and retrieval" `Quick test_segment_spill_add;
        Alcotest.test_case "ring wrap churn conserves" `Quick test_segment_ring_wrap_churn;
        Alcotest.test_case "fast-path counters" `Quick test_segment_fast_path_stats;
        Alcotest.test_case "all-mutex baseline mode" `Quick test_segment_baseline_mode;
        Alcotest.test_case "batched-steal stats" `Quick test_segment_steal_batch_stats;
        Alcotest.test_case "concurrent steal loot disjoint" `Quick
          test_segment_concurrent_steal_disjoint;
        Alcotest.test_case "mpsc drain completeness + FIFO" `Quick
          test_segment_mpsc_drain_completeness;
        Alcotest.test_case "mc_bench smoke + JSON artifact" `Quick test_mc_bench_smoke;
      ]
      @ per_kind "baseline conservation under domains" test_pool_fast_path_off_equivalent );
    ( "mcpool.lifecycle",
      [
        Alcotest.test_case "deregister releases slot" `Quick test_deregister_releases_slot;
        Alcotest.test_case "double deregister rejected" `Quick test_double_deregister_rejected;
        Alcotest.test_case "register/deregister churn x1000" `Quick
          test_register_deregister_churn;
        Alcotest.test_case "concurrent churn" `Quick test_concurrent_churn;
      ]
      @ per_kind "deregister while draining" test_deregister_while_draining );
    ( "mcpool.stats",
      [
        Alcotest.test_case "per-handle counters" `Quick test_stats_counters;
        Alcotest.test_case "pool stats survive churn" `Quick test_stats_survive_churn;
        Alcotest.test_case "telemetry table" `Quick test_stats_render;
        Alcotest.test_case "counter labels" `Quick test_counter_labels;
      ]
      @ per_kind "stress harness smoke" test_stress_harness
      @ per_kind "sparse stress cell" test_sparse_stress_cell
      @ [ Alcotest.test_case "run scaffold: backlog then drain" `Quick test_run_backlog_then_drain ] );
    ( "mcpool.bounded",
      [
        Alcotest.test_case "spill and reject" `Quick test_bounded_spill_and_reject;
        Alcotest.test_case "capacity validated" `Quick test_bounded_capacity_validated;
        Alcotest.test_case "steal capped" `Quick test_bounded_steal_capped;
        Alcotest.test_case "deposit overflow" `Quick test_segment_deposit_overflow;
        Alcotest.test_case "reserve and refill" `Quick test_segment_reserve_refill;
      ]
      @ per_kind "capacity never exceeded" test_bounded_capacity_never_exceeded );
  ]
