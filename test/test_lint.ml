(* Tests for the pools_lint static analyzer and interleaving checker:
   each rule fires on its known-bad fixture, stays quiet on the known-good
   one, suppressions work, lib/ self-lints clean, and the schedule
   enumerator both passes the real segment and catches a seeded race. *)

open Cpool_analysis

let fixture name = Filename.concat "lint_fixtures" name

let rules_of findings =
  List.sort_uniq String.compare (List.map (fun f -> f.Lint_rules.rule) findings)

let count_rule rule findings =
  List.length (List.filter (fun f -> String.equal f.Lint_rules.rule rule) findings)

let check_fixture_exists () =
  Alcotest.(check bool)
    "fixture corpus present" true
    (Sys.file_exists (fixture "bad_raw_mutex.ml"))

(* Fixtures live outside the R4 directories, so force the rule on. *)
let lint name = Lint_driver.lint_file ~ban_random:true (fixture name)

let test_r1_fires () =
  let fs = lint "bad_raw_mutex.ml" in
  Alcotest.(check int) "two raw mutex ops" 2 (count_rule Lint_rules.raw_mutex fs);
  Alcotest.(check (list string)) "only R1" [ Lint_rules.raw_mutex ] (rules_of fs)

let test_r1_quiet () =
  Alcotest.(check (list string)) "clean" [] (rules_of (lint "good_raw_mutex.ml"))

let test_r2_fires () =
  let fs = lint "bad_rmw.ml" in
  Alcotest.(check int)
    "direct + let-split + get-then-set rmw" 3
    (count_rule Lint_rules.non_atomic_rmw fs);
  Alcotest.(check (list string)) "only R2" [ Lint_rules.non_atomic_rmw ] (rules_of fs)

let test_r2_quiet_and_suppressed () =
  (* good_rmw.ml contains a suppressed Atomic.set-of-get with a reason, a
     CAS-retry loop, a CAS-sanctioned blind reset, and a cross-closure
     get/set pair: no findings must survive. *)
  Alcotest.(check (list string)) "clean" [] (rules_of (lint "good_rmw.ml"))

let test_r3_fires () =
  let fs = lint "bad_blocking.ml" in
  Alcotest.(check int)
    "sleep + nested lock" 2
    (count_rule Lint_rules.blocking_under_lock fs);
  Alcotest.(check (list string))
    "only R3" [ Lint_rules.blocking_under_lock ] (rules_of fs)

let test_r3_quiet () =
  Alcotest.(check (list string)) "clean" [] (rules_of (lint "good_blocking.ml"))

let test_r4_fires () =
  let fs = lint "bad_random.ml" in
  Alcotest.(check int)
    "self_init + int + make_self_init" 3
    (count_rule Lint_rules.ambient_random fs);
  Alcotest.(check (list string)) "only R4" [ Lint_rules.ambient_random ] (rules_of fs)

let test_r4_quiet () =
  Alcotest.(check (list string)) "clean" [] (rules_of (lint "good_random.ml"))

let test_r4_scope () =
  (* Outside the banned directories the rule defaults off. *)
  let fs = Lint_driver.lint_file (fixture "bad_random.ml") in
  Alcotest.(check int) "off by default here" 0 (count_rule Lint_rules.ambient_random fs)

let test_r5_fires () =
  let fs = Lint_driver.lint_tree ~require_mli:true [ fixture "r5_bad" ] in
  Alcotest.(check int) "missing mli" 1 (count_rule Lint_rules.missing_mli fs)

let test_r5_quiet () =
  let fs = Lint_driver.lint_tree ~require_mli:true [ fixture "r5_good" ] in
  Alcotest.(check (list string)) "clean" [] (rules_of fs)

let test_suppression_needs_reason () =
  let src = "let x = 1\n(* lint: " ^ "allow non-atomic-rmw *)\nlet y = 2\n" in
  let fs = Lint_driver.lint_source ~file:"inline.ml" src in
  Alcotest.(check int) "reasonless" 1 (count_rule Lint_rules.bad_suppression fs)

let test_suppression_unknown_rule () =
  let src = "(* lint: " ^ "allow no-such-rule -- because *)\nlet x = 1\n" in
  let fs = Lint_driver.lint_source ~file:"inline.ml" src in
  Alcotest.(check int) "unknown rule" 1 (count_rule Lint_rules.bad_suppression fs)

let test_r6_fires () =
  let fs = lint "bad_raw_obj.ml" in
  Alcotest.(check int)
    "magic + repr + obj + qualified magic" 4
    (count_rule Lint_rules.raw_obj fs);
  Alcotest.(check (list string)) "only R6" [ Lint_rules.raw_obj ] (rules_of fs)

let test_r6_quiet () =
  Alcotest.(check (list string)) "clean" [] (rules_of (lint "good_raw_obj.ml"))

let test_r6_sanctioned_modules () =
  (* The same cast inside a sanctioned module (keyed on basename) is the
     certified container's business, not a finding. *)
  let src = "let f (x : int) : bool = Obj.magic x\n" in
  let flagged file =
    count_rule Lint_rules.raw_obj (Lint_driver.lint_source ~file src)
  in
  Alcotest.(check int) "sanctioned in the segment core" 0
    (flagged "lib/mcpool/mc_segment_core.ml");
  Alcotest.(check int) "sanctioned in the scheduler" 0
    (flagged "lib/analysis/sched.ml");
  Alcotest.(check int) "flagged elsewhere" 1 (flagged "lib/mcpool/mc_pool.ml")

let test_parse_error_reported () =
  let fs = Lint_driver.lint_source ~file:"broken.ml" "let let let" in
  Alcotest.(check int) "parse error" 1 (count_rule Lint_rules.parse_error fs)

(* The acceptance bar: the shipped libraries are lint-clean (any intentional
   escape must be a documented suppression, which silences the finding). *)
let test_self_lint () =
  let lib = Filename.concat ".." "lib" in
  Alcotest.(check bool) "lib/ visible from test dir" true (Sys.file_exists lib);
  let fs = Lint_driver.lint_tree ~require_mli:true [ lib ] in
  let msg = String.concat "; " (List.map (Format.asprintf "%a" Lint_rules.pp) fs) in
  Alcotest.(check string) "lib/ lints clean" "" msg

(* Interleaving checker: every scenario must hold under every schedule, and
   each scenario must actually branch (>= 2 schedules) or it proves
   nothing. *)
let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let test_interleave_passes () =
  let outcomes = Interleave.run_all null_ppf in
  Alcotest.(check int) "scenario count matches the registry" Interleave.count
    (List.length outcomes);
  List.iter
    (fun (name, schedules) ->
      Alcotest.(check bool) (name ^ " explored > 1 schedule") true (schedules > 1))
    outcomes

(* Harness sanity: a deliberately racy non-atomic RMW on the shim primitives
   must be caught — two increments via set-of-get lose an update under some
   interleaving. *)
let test_interleave_catches_lost_update () =
  let module A = Sched.Prim.Atomic in
  let instance () =
    let c = A.make 0 in
    let bump () = A.set c (A.get c + 1) in
    {
      Sched.threads = [ bump; bump ];
      check_step = (fun () -> ());
      check_final =
        (fun () -> if A.get c <> 2 then failwith "lost update");
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "racy RMW escaped the schedule enumeration"
  | exception Failure msg ->
    Alcotest.(check string) "the race was found" "lost update" msg

(* And the mutex shim: the same RMW under a lock is correct in every
   schedule. *)
let test_interleave_lock_protects () =
  let module A = Sched.Prim.Atomic in
  let module L = Sched.Prim.Mutex in
  let instance () =
    let c = A.make 0 in
    let m = L.create () in
    let bump () =
      L.lock m;
      A.set c (A.get c + 1);
      L.unlock m
    in
    {
      Sched.threads = [ bump; bump ];
      check_step = (fun () -> ());
      check_final = (fun () -> if A.get c <> 2 then failwith "lost update");
    }
  in
  let schedules = Sched.explore instance in
  Alcotest.(check bool) "explored" true (schedules > 1)

(* ---- scheduler failure modes ---------------------------------------- *)

let contains msg sub =
  let n = String.length msg and m = String.length sub in
  let rec find j = j + m <= n && (String.sub msg j m = sub || find (j + 1)) in
  find 0

(* A fiber locking its own held mutex can never be rescheduled: the
   explorer must report the deadlock, not hang or count the run. *)
let test_deadlock_raises () =
  let module L = Sched.Prim.Mutex in
  let instance () =
    let m = L.create () in
    let stuck () =
      L.lock m;
      L.lock m
    in
    {
      Sched.threads = [ stuck ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "self-deadlock not detected"
  | exception Sched.Deadlock -> ()

let test_exploded_names_schedule_bound () =
  let module A = Sched.Prim.Atomic in
  let instance () =
    let a = A.make 0 and b = A.make 0 in
    let w () =
      A.set a 1;
      A.set b 1
    in
    {
      Sched.threads = [ w; w ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  match Sched.explore ~mode:Sched.Exhaustive ~max_schedules:3 instance with
  | _ -> Alcotest.fail "schedule bound not enforced"
  | exception Sched.Exploded msg ->
    Alcotest.(check bool) ("bound named in: " ^ msg) true (contains msg "3")

let test_exploded_names_step_bound () =
  let module A = Sched.Prim.Atomic in
  let instance () =
    let c = A.make 0 in
    let spin () =
      for _ = 1 to 10_001 do
        A.set c 1
      done
    in
    {
      Sched.threads = [ spin ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "step bound not enforced"
  | exception Sched.Exploded msg ->
    Alcotest.(check bool) ("bound named in: " ^ msg) true (contains msg "10000")

(* The condition shim: a broadcast under the lock releases a waiter in
   every schedule, and a waiter nobody broadcasts to is a deadlock. *)
let test_condition_broadcast_wakes () =
  let module A = Sched.Prim.Atomic in
  let module L = Sched.Prim.Mutex in
  let module C = Sched.Prim.Condition in
  let instance () =
    let flag = A.make false and m = L.create () and c = C.create () in
    let waiter () =
      L.lock m;
      while not (A.get flag) do
        C.wait c m
      done;
      L.unlock m
    in
    let signaller () =
      L.lock m;
      A.set flag true;
      C.broadcast c;
      L.unlock m
    in
    {
      Sched.threads = [ waiter; signaller ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  Alcotest.(check bool) "explored" true (Sched.explore instance > 1)

let test_condition_unsignalled_deadlocks () =
  let module L = Sched.Prim.Mutex in
  let module C = Sched.Prim.Condition in
  let instance () =
    let m = L.create () and c = C.create () in
    let waiter () =
      L.lock m;
      C.wait c m;
      L.unlock m
    in
    {
      Sched.threads = [ waiter ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "a wait nobody signals must deadlock"
  | exception Sched.Deadlock -> ()

(* A broadcast made without the lock can fall between the waiter's check
   and its wait. The shim must order the wait's queue join against the
   broadcast, or the reduction would prune the losing schedule. *)
let test_unlocked_broadcast_loses_wakeup () =
  let module A = Sched.Prim.Atomic in
  let module L = Sched.Prim.Mutex in
  let module C = Sched.Prim.Condition in
  let instance () =
    let flag = A.make false and m = L.create () and c = C.create () in
    let waiter () =
      L.lock m;
      while not (A.get flag) do
        C.wait c m
      done;
      L.unlock m
    in
    let signaller () =
      A.set flag true;
      C.broadcast c
    in
    {
      Sched.threads = [ waiter; signaller ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "the unlocked broadcast's lost wakeup was not found"
  | exception Sched.Deadlock -> ()

(* Swapping the eventcount's announce and re-check loses a wakeup; the
   checker must find the schedule. *)
let test_lost_wakeup_found () =
  match Sched.explore Interleave.lost_wakeup with
  | _ -> Alcotest.fail "the lost wakeup escaped the schedule enumeration"
  | exception Sched.Deadlock -> ()

(* ---- DPOR vs exhaustive ---------------------------------------------- *)

(* Ground truth: on small scenarios both modes pass with DPOR strictly
   reduced; a seeded lost update fails under both. *)
let test_cross_validate () = Interleave.cross_validate null_ppf

(* The deep scenarios exist because only the reduction can enumerate them:
   each must blow a 20k-schedule exhaustive budget (their full spaces
   exceed one million) while the DPOR run in [run_all] completes. *)
let test_deep_scenarios_need_dpor () =
  List.iter
    (fun n ->
      let sc = List.find (fun s -> s.Interleave.name = n) Interleave.scenarios in
      match
        Sched.explore ~mode:Sched.Exhaustive ~max_schedules:20_000
          sc.Interleave.instance
      with
      | _ ->
        Alcotest.fail
          (n ^ " is exhaustively enumerable; it does not need the reduction")
      | exception Sched.Exploded _ -> ())
    [ "three-stealers"; "spill-spill-drain" ]

(* ---- happens-before race detection ----------------------------------- *)

(* Two unsynchronized plain writes must be flagged on some explored
   interleaving. *)
let test_race_write_write () =
  let module P = Sched.Prim.Plain in
  let instance () =
    let c = P.make 0 in
    let w v () = P.set c v in
    {
      Sched.threads = [ w 1; w 2 ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "unsynchronized plain writes escaped the race detector"
  | exception Race.Race _ -> ()

let test_race_read_write () =
  let module P = Sched.Prim.Plain in
  let instance () =
    let c = P.make 0 in
    {
      Sched.threads = [ (fun () -> P.set c 1); (fun () -> ignore (P.get c)) ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "unsynchronized read/write pair escaped the race detector"
  | exception Race.Race _ -> ()

(* The sanctioned racy read is exempt by construction. *)
let test_racy_get_exempt () =
  let module P = Sched.Prim.Plain in
  let instance () =
    let c = P.make 0 in
    {
      Sched.threads =
        [ (fun () -> P.set c 1); (fun () -> ignore (P.racy_get c)) ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  Alcotest.(check bool) "explored without a report" true
    (Sched.explore instance >= 1)

(* Mutex release/acquire edges order the protected accesses: no report, in
   any schedule. *)
let test_race_mutex_protected () =
  let module P = Sched.Prim.Plain in
  let module L = Sched.Prim.Mutex in
  let instance () =
    let c = P.make 0 in
    let m = L.create () in
    let w v () =
      L.lock m;
      P.set c v;
      L.unlock m
    in
    {
      Sched.threads = [ w 1; w 2 ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  Alcotest.(check bool) "explored race-free" true (Sched.explore instance > 1)

(* Publication via an atomic flag: the write release / read acquire edge
   orders the plain accesses, and the reader's branch keeps the unordered
   path from touching the cell. *)
let test_race_atomic_publish () =
  let module P = Sched.Prim.Plain in
  let module A = Sched.Prim.Atomic in
  let instance () =
    let c = P.make 0 in
    let flag = A.make false in
    let writer () =
      P.set c 1;
      A.set flag true
    in
    let reader () = if A.get flag then ignore (P.get c) in
    {
      Sched.threads = [ writer; reader ];
      check_step = (fun () -> ());
      check_final = (fun () -> ());
    }
  in
  Alcotest.(check bool) "explored race-free" true (Sched.explore instance > 1)

(* ---- linearizability oracle ------------------------------------------ *)

(* A broken steal that reads the cursor and advances it non-atomically
   hands the same element to both thieves under some schedule. Each
   individual result is locally plausible; only the oracle's global
   ordering requirement rejects the history. *)
let test_linz_catches_double_claim () =
  let module A = Sched.Prim.Atomic in
  let instance () =
    let h = Linz.create () in
    Linz.declare_seg h ~id:0 ~capacity:None;
    Linz.record h ~fiber:(-1) ~seg:0 (Linz.Add 41) (fun () -> ());
    Linz.record h ~fiber:(-1) ~seg:0 (Linz.Add 42) (fun () -> ());
    let top = A.make 0 in
    let elems = [| 41; 42 |] in
    let thief i () =
      ignore
        (Linz.record h ~fiber:i ~seg:0 Linz.Steal (fun () ->
             let t = A.get top in
             if t < 2 then begin
               A.set top (t + 1);
               [ elems.(t) ]
             end
             else []))
    in
    {
      Sched.threads = [ thief 0; thief 1 ];
      check_step = (fun () -> ());
      check_final = (fun () -> Linz.check h);
    }
  in
  match Sched.explore instance with
  | _ -> Alcotest.fail "double-handed element passed the linearizability oracle"
  | exception Linz.Not_linearizable _ -> ()

(* The same protocol done right (CAS-advanced cursor) linearizes in every
   schedule. *)
let test_linz_passes_correct_claim () =
  let module A = Sched.Prim.Atomic in
  let instance () =
    let h = Linz.create () in
    Linz.declare_seg h ~id:0 ~capacity:None;
    Linz.record h ~fiber:(-1) ~seg:0 (Linz.Add 41) (fun () -> ());
    Linz.record h ~fiber:(-1) ~seg:0 (Linz.Add 42) (fun () -> ());
    let top = A.make 0 in
    let elems = [| 41; 42 |] in
    let thief i () =
      ignore
        (Linz.record h ~fiber:i ~seg:0 Linz.Steal (fun () ->
             let rec claim () =
               let t = A.get top in
               if t >= 2 then []
               else if A.compare_and_set top t (t + 1) then [ elems.(t) ]
               else claim ()
             in
             claim ()))
    in
    {
      Sched.threads = [ thief 0; thief 1 ];
      check_step = (fun () -> ());
      check_final = (fun () -> Linz.check h);
    }
  in
  Alcotest.(check bool) "all schedules linearizable" true
    (Sched.explore instance > 1)

let suites =
  [
    ( "lint",
      [
        Alcotest.test_case "fixtures present" `Quick check_fixture_exists;
        Alcotest.test_case "R1 fires" `Quick test_r1_fires;
        Alcotest.test_case "R1 quiet" `Quick test_r1_quiet;
        Alcotest.test_case "R2 fires" `Quick test_r2_fires;
        Alcotest.test_case "R2 quiet + suppression" `Quick test_r2_quiet_and_suppressed;
        Alcotest.test_case "R3 fires" `Quick test_r3_fires;
        Alcotest.test_case "R3 quiet" `Quick test_r3_quiet;
        Alcotest.test_case "R4 fires" `Quick test_r4_fires;
        Alcotest.test_case "R4 quiet" `Quick test_r4_quiet;
        Alcotest.test_case "R4 scoped to concurrent dirs" `Quick test_r4_scope;
        Alcotest.test_case "R5 fires" `Quick test_r5_fires;
        Alcotest.test_case "R5 quiet" `Quick test_r5_quiet;
        Alcotest.test_case "R6 fires" `Quick test_r6_fires;
        Alcotest.test_case "R6 quiet + suppression" `Quick test_r6_quiet;
        Alcotest.test_case "R6 sanctioned modules" `Quick test_r6_sanctioned_modules;
        Alcotest.test_case "suppression needs reason" `Quick test_suppression_needs_reason;
        Alcotest.test_case "suppression unknown rule" `Quick test_suppression_unknown_rule;
        Alcotest.test_case "parse errors reported" `Quick test_parse_error_reported;
        Alcotest.test_case "self-lint: lib/ is clean" `Quick test_self_lint;
      ] );
    ( "interleave",
      [
        Alcotest.test_case "segment scenarios hold" `Quick test_interleave_passes;
        Alcotest.test_case "catches lost update" `Quick test_interleave_catches_lost_update;
        Alcotest.test_case "mutex shim protects" `Quick test_interleave_lock_protects;
        Alcotest.test_case "self-deadlock raises" `Quick test_deadlock_raises;
        Alcotest.test_case "Exploded names the schedule bound" `Quick
          test_exploded_names_schedule_bound;
        Alcotest.test_case "Exploded names the step bound" `Quick
          test_exploded_names_step_bound;
        Alcotest.test_case "condition broadcast wakes" `Quick
          test_condition_broadcast_wakes;
        Alcotest.test_case "unsignalled wait deadlocks" `Quick
          test_condition_unsignalled_deadlocks;
        Alcotest.test_case "swapped park order loses a wakeup" `Quick
          test_lost_wakeup_found;
        Alcotest.test_case "unlocked broadcast loses a wakeup" `Quick
          test_unlocked_broadcast_loses_wakeup;
      ] );
    ( "dpor",
      [
        Alcotest.test_case "cross-validate modes" `Quick test_cross_validate;
        Alcotest.test_case "deep scenarios need the reduction" `Quick
          test_deep_scenarios_need_dpor;
      ] );
    ( "race",
      [
        Alcotest.test_case "write/write detected" `Quick test_race_write_write;
        Alcotest.test_case "read/write detected" `Quick test_race_read_write;
        Alcotest.test_case "racy_get exempt" `Quick test_racy_get_exempt;
        Alcotest.test_case "mutex-ordered accesses clean" `Quick
          test_race_mutex_protected;
        Alcotest.test_case "atomic publish clean" `Quick test_race_atomic_publish;
      ] );
    ( "linz",
      [
        Alcotest.test_case "double claim rejected" `Quick
          test_linz_catches_double_claim;
        Alcotest.test_case "CAS claim linearizable" `Quick
          test_linz_passes_correct_claim;
      ] );
  ]
