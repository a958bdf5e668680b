(* The production segment logic on the instrumented primitives: the checker
   exercises the shipped code, not a model of it.

   Ownership discipline (enforced by Mc_pool, assumed by the segment): one
   fiber per segment plays the OWNER and is the only caller of
   add/try_add/try_remove/deposit/reserve/refill on it; every other fiber
   reaches that segment only through spill_add and steal_half. The
   scenarios below respect this, because that is the protocol whose
   interleavings we must certify. *)
module M = Cpool_mc.Mc_segment_core.Make (Sched.Prim)

(* The eventcount idle searchers and awaiters park on, on the same
   primitives: the park scenarios below compose it with M exactly as
   Mc_pool's hunt, add and deregister do. *)
module K = Cpool_mc.Mc_park.Make (Sched.Prim)

type scenario = { name : string; instance : unit -> Sched.instance }

let failf name fmt = Printf.ksprintf (fun m -> failwith (name ^ ": " ^ m)) fmt

(* Always-invariant: the atomic count (stored + reservations) respects the
   bound at every primitive step — the property PR 1's races violated. *)
let bound_ok name seg () =
  let count, _stored = M.debug_counts seg in
  if count < 0 then failf name "count went negative (%d)" count;
  match M.capacity seg with
  | Some b when count > b -> failf name "capacity exceeded: count %d > bound %d" count b
  | Some _ | None -> ()

let all_of checks () = List.iter (fun f -> f ()) checks

(* Quiescent invariant: with no thread mid-operation, the count equals the
   stored length (no reservation leaked) and invariant_ok agrees. *)
let quiescent name seg =
  let count, stored = M.debug_counts seg in
  if count <> stored then
    failf name "reservation leaked: count %d <> stored %d at quiescence" count stored;
  if not (M.invariant_ok seg) then failf name "invariant_ok failed at quiescence"

let stored seg = snd (M.debug_counts seg)

let loot_list = function
  | Cpool.Steal.Nothing -> []
  | Cpool.Steal.Single x -> [ x ]
  | Cpool.Steal.Batch (x, rest) -> x :: rest

(* Linearizability recording: every segment operation a scenario performs
   goes through one of these wrappers, so each explored schedule leaves a
   complete invocation/response history for [Linz.check] (called from the
   scenario's [check_final]). Setup operations before the run record as
   fiber [-1]; their intervals complete before any fiber starts, so the
   oracle orders them first automatically. The wrappers themselves add no
   scheduling points — schedule counts are unchanged by recording. *)
let l_add h f seg s x = Linz.record h ~fiber:f ~seg (Linz.Add x) (fun () -> M.add s x)

let l_try_add h f seg s x =
  Linz.record h ~fiber:f ~seg (Linz.Try_add x) (fun () -> M.try_add s x)

let l_spill h f seg s x =
  Linz.record h ~fiber:f ~seg (Linz.Spill x) (fun () -> M.spill_add s x)

let l_remove h f seg s =
  Linz.record h ~fiber:f ~seg Linz.Remove (fun () -> M.try_remove s)

let l_steal h f seg s max_take =
  Linz.record h ~fiber:f ~seg Linz.Steal (fun () ->
      loot_list (M.steal_half ?max_take s))

let l_reserve h f seg s k =
  Linz.record h ~fiber:f ~seg (Linz.Reserve k) (fun () -> M.reserve s k)

let l_refill h f seg s reserved xs =
  Linz.record h ~fiber:f ~seg
    (Linz.Refill (reserved, xs))
    (fun () -> M.refill s ~reserved xs)

let l_deposit h f seg s xs =
  Linz.record h ~fiber:f ~seg (Linz.Deposit xs) (fun () -> M.deposit s xs)

(* The owner's try_add racing a foreign spill_add on a capacity-2 segment:
   the CAS capacity claims must admit exactly as many elements as fit, at
   most one of the two paths winning the last unit. *)
let try_add_capacity () =
  let name = "try-add capacity race" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:(Some 2);
  let seg = M.make ~capacity:2 ~id:0 () in
  let ok = Array.make 2 0 in
  let owner () =
    List.iter (fun x -> if l_try_add h 0 0 seg x then ok.(0) <- ok.(0) + 1) [ 1; 2 ]
  in
  let spiller () = if l_spill h 1 0 seg 3 then ok.(1) <- 1 in
  {
    Sched.threads = [ owner; spiller ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        let n = stored seg in
        if ok.(0) + ok.(1) <> n then
          failf name "successful adds %d <> stored %d" (ok.(0) + ok.(1)) n;
        if n <> 2 then failf name "expected the segment full (2), stored %d" n;
        Linz.check h);
  }

(* A thief (steal_half + deposit into its own segment, the unbounded pool
   path) races the victim's owner pushing: no element is lost or
   duplicated. *)
let steal_vs_add () =
  let name = "steal_half vs add conservation" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  Linz.declare_seg h ~id:1 ~capacity:None;
  let victim = M.make ~id:0 () in
  let own = M.make ~id:1 () in
  List.iter (l_add h (-1) 0 victim) [ 1; 2; 3 ];
  let returned = ref 0 in
  let thief () =
    match l_steal h 0 0 victim None with
    | [] -> ()
    | [ _ ] -> returned := 1
    | _ :: rest -> (
      returned := 1;
      match l_deposit h 0 1 own rest with
      | [] -> ()
      | _ :: _ -> failf name "unbounded deposit rejected elements")
  in
  let adder () = l_add h 1 0 victim 4 in
  {
    Sched.threads = [ thief; adder ];
    check_step = all_of [ bound_ok name victim; bound_ok name own ];
    check_final =
      (fun () ->
        quiescent name victim;
        quiescent name own;
        let total = stored victim + stored own + !returned in
        if total <> 4 then failf name "conservation broken: %d elements of 4" total;
        Linz.check h);
  }

(* The bounded steal path (reserve room, steal at most that, refill) racing
   a foreign spill_add into the thief's segment: the reservation must keep
   the bound intact at every instant and release exactly on refill. *)
let reserve_refill_race () =
  let name = "reserve/refill vs spill_add" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:(Some 4);
  Linz.declare_seg h ~id:1 ~capacity:(Some 2);
  let victim = M.make ~capacity:4 ~id:0 () in
  let own = M.make ~capacity:2 ~id:1 () in
  List.iter (fun x -> assert (l_try_add h (-1) 0 victim x)) [ 1; 2; 3 ];
  assert (l_try_add h (-1) 1 own 10);
  let returned = ref 0 in
  let rival_ok = ref 0 in
  let thief () =
    (* Mirrors Mc_pool.attempt_steal's bounded branch. *)
    let want = (M.size victim + 1) / 2 in
    let reserved = l_reserve h 0 1 own (max 0 (want - 1)) in
    match l_steal h 0 0 victim (Some (reserved + 1)) with
    | [] -> l_refill h 0 1 own reserved []
    | [ _ ] ->
      l_refill h 0 1 own reserved [];
      returned := 1
    | _ :: rest ->
      l_refill h 0 1 own reserved rest;
      returned := 1
  in
  let rival () = if l_spill h 1 1 own 11 then rival_ok := 1 in
  {
    Sched.threads = [ thief; rival ];
    check_step = all_of [ bound_ok name victim; bound_ok name own ];
    check_final =
      (fun () ->
        quiescent name victim;
        quiescent name own;
        let total = stored victim + stored own + !returned in
        if total <> 4 + !rival_ok then
          failf name "conservation broken: %d elements of %d" total (4 + !rival_ok);
        Linz.check h);
  }

(* Three threads on one segment: the owner popping, a foreign spill_add,
   and a stealer that may hit either the ring or steal_half's
   inbox-fallback branch. Baseline mode ([fast_path:false], the
   configuration the throughput benchmark compares against) keeps every
   operation mutex-serialized, which both certifies the all-mutex twin and
   keeps the 3-thread schedule space small even exhaustively. One element
   is preloaded into the ring and one into the inbox, so the stealer's
   ring-claim and inbox-pop branches, the owner's direct claim and its
   exchange-drain are all reachable depending on the schedule. *)
let three_way () =
  let name = "owner pop vs spill vs inbox steal (3 threads)" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  let seg = M.make ~fast_path:false ~id:0 () in
  assert (l_try_add h (-1) 0 seg 1);
  assert (l_spill h (-1) 0 seg 2);
  let popped = ref 0 in
  let stolen = ref 0 in
  let owner () = match l_remove h 0 0 seg with Some _ -> popped := 1 | None -> () in
  let spiller () = ignore (l_spill h 1 0 seg 3) in
  let stealer () =
    match l_steal h 2 0 seg (Some 1) with
    | [] -> ()
    | loot -> stolen := List.length loot
  in
  {
    Sched.threads = [ owner; spiller; stealer ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        (* 2 preloaded + 1 spilled, of which the stealer takes at most one
           and the owner (never finding the segment empty) exactly one. *)
        if !popped <> 1 then failf name "owner pop found the segment empty";
        let total = stored seg + !popped + !stolen in
        if total <> 3 then failf name "conservation broken: %d elements of 3" total;
        Linz.check h);
  }

(* Two stealers racing CAS claims of the same ring front: the loot sets
   must be disjoint and conservation must hold — a claim-arbitration bug
   would hand an element to both thieves (the CAS succeeding twice from
   the same [top]) or strand one below the advanced cursor. *)
let steal_vs_steal () =
  let name = "steal vs steal CAS race" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  let seg = M.make ~id:0 () in
  List.iter (l_add h (-1) 0 seg) [ 1; 2; 3; 4 ];
  let loots = Array.make 2 [] in
  let thief i () = loots.(i) <- l_steal h i 0 seg (Some 2) in
  {
    Sched.threads = [ thief 0; thief 1 ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        let disjoint =
          List.for_all (fun x -> not (List.mem x loots.(1))) loots.(0)
        in
        if not disjoint then
          failf name "loot not disjoint: [%s] vs [%s]"
            (String.concat ";" (List.map string_of_int loots.(0)))
            (String.concat ";" (List.map string_of_int loots.(1)));
        let rec drain acc =
          match M.try_remove seg with Some x -> drain (x :: acc) | None -> acc
        in
        let all = List.sort compare (loots.(0) @ loots.(1) @ drain []) in
        if all <> [ 1; 2; 3; 4 ] then
          failf name "elements lost or duplicated: [%s]"
            (String.concat ";" (List.map string_of_int all));
        Linz.check h);
  }

(* The one-element boundary: an owner pop and a steal racing for the last
   ring element. Both sides claim the same front window with the same CAS,
   so exactly one must win the element and the other must walk away with
   nothing — no duplication, no loss, no deadlock. *)
let pop_vs_steal_one () =
  let name = "one-element owner/stealer boundary" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  let seg = M.make ~id:0 () in
  l_add h (-1) 0 seg 42;
  let popped = ref [] in
  let stolen = ref [] in
  let owner () =
    match l_remove h 0 0 seg with Some x -> popped := [ x ] | None -> ()
  in
  let stealer () = stolen := l_steal h 1 0 seg (Some 1) in
  {
    Sched.threads = [ owner; stealer ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        (match (!popped, !stolen) with
        | [ 42 ], [] | [], [ 42 ] -> ()
        | [], [] -> failf name "element lost: neither side took it"
        | _ ->
          failf name "element duplicated: popped [%s], stolen [%s]"
            (String.concat ";" (List.map string_of_int !popped))
            (String.concat ";" (List.map string_of_int !stolen)));
        if stored seg <> 0 then failf name "segment not empty at quiescence";
        Linz.check h);
  }

(* The MPSC inbox under fire: a foreign spiller CAS-pushing two elements
   while the owner's pop exchange-drains the stack into the ring. The
   drain must never lose a concurrent push (the exchange takes the whole
   stack or leaves the push for the next round), and every element must
   end exactly once in popped + stored. *)
let mpsc_push_vs_drain () =
  let name = "MPSC push vs exchange-drain" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  let seg = M.make ~id:0 () in
  assert (l_spill h (-1) 0 seg 1);
  let popped = ref [] in
  let spilled = ref 1 in
  let owner () =
    match l_remove h 0 0 seg with Some x -> popped := [ x ] | None -> ()
  in
  let spiller () =
    if l_spill h 1 0 seg 2 then incr spilled;
    if l_spill h 1 0 seg 3 then incr spilled
  in
  {
    Sched.threads = [ owner; spiller ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        (* The inbox held an element before the run, so the owner's pop
           must drain and succeed regardless of the schedule. *)
        if !popped = [] then failf name "owner pop lost the drained elements";
        let rec drain acc =
          match M.try_remove seg with Some x -> drain (x :: acc) | None -> acc
        in
        let all = List.sort compare (!popped @ drain []) in
        let expect = List.init !spilled (fun i -> i + 1) in
        if all <> expect then
          failf name "elements lost or duplicated: [%s] of %d spills"
            (String.concat ";" (List.map string_of_int all))
            !spilled;
        Linz.check h);
  }

(* The heart of the new ring protocol: the owner's lock-free pop racing a
   stealer's window claim on the same segment. Checked with element
   identity, not just counts — a claim/revalidate bug would hand the same
   element to both sides (duplication) or to neither (loss). *)
let pop_vs_steal () =
  let name = "owner pop vs steal-claim" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  let seg = M.make ~id:0 () in
  List.iter (l_add h (-1) 0 seg) [ 1; 2; 3 ];
  let popped = ref [] in
  let stolen = ref [] in
  let owner () =
    match l_remove h 0 0 seg with Some x -> popped := [ x ] | None -> ()
  in
  let stealer () = stolen := l_steal h 1 0 seg (Some 2) in
  {
    Sched.threads = [ owner; stealer ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        (* Drain what's left (quiescent, so direct calls are fine) and check
           the multiset: every element accounted for exactly once. *)
        let rec drain acc =
          match M.try_remove seg with Some x -> drain (x :: acc) | None -> acc
        in
        let all = List.sort compare (!popped @ !stolen @ drain []) in
        if all <> [ 1; 2; 3 ] then
          failf name "elements lost or duplicated: [%s]"
            (String.concat ";" (List.map string_of_int all));
        Linz.check h);
  }

(* An owner push racing the full bounded banking dance on two segments: the
   victim's owner pushes while a thief reserves room in its own bounded
   segment, steals a batch from the victim, and refills. Both bounds must
   hold at every step and every element must survive. *)
let push_vs_reserve () =
  let name = "owner push vs bounded reserve/steal/refill" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:(Some 3);
  Linz.declare_seg h ~id:1 ~capacity:(Some 2);
  let victim = M.make ~capacity:3 ~id:0 () in
  let own = M.make ~capacity:2 ~id:1 () in
  List.iter (fun x -> assert (l_try_add h (-1) 0 victim x)) [ 1; 2 ];
  let pushed = ref 0 in
  let returned = ref 0 in
  let owner () = if l_try_add h 0 0 victim 3 then pushed := 1 in
  let thief () =
    let want = (M.size victim + 1) / 2 in
    let reserved = l_reserve h 1 1 own (max 0 (want - 1)) in
    match l_steal h 1 0 victim (Some (reserved + 1)) with
    | [] -> l_refill h 1 1 own reserved []
    | [ _ ] ->
      l_refill h 1 1 own reserved [];
      returned := 1
    | _ :: rest ->
      l_refill h 1 1 own reserved rest;
      returned := 1
  in
  {
    Sched.threads = [ owner; thief ];
    check_step = all_of [ bound_ok name victim; bound_ok name own ];
    check_final =
      (fun () ->
        quiescent name victim;
        quiescent name own;
        let total = stored victim + stored own + !returned in
        if total <> 2 + !pushed then
          failf name "conservation broken: %d elements of %d" total (2 + !pushed);
        Linz.check h);
  }

(* ---- scenarios only the reduction can enumerate ---------------------- *)

(* Three stealers and the owner's pop converging on one ring: every claim
   CAS contends with every other, the doomed-thief copy window (the
   sanctioned racy read) is actually reachable, and loot disjointness is
   checked pairwise. Exhaustively this explodes past the schedule bound;
   under DPOR it completes, because most step pairs (distinct claim
   buffers, distinct loot cells) commute. *)
let three_stealers () =
  let name = "3 stealers vs owner pop" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  let seg = M.make ~id:0 () in
  List.iter (l_add h (-1) 0 seg) [ 1; 2; 3; 4 ];
  let popped = ref [] in
  let loots = Array.make 3 [] in
  let owner () =
    match l_remove h 0 0 seg with Some x -> popped := [ x ] | None -> ()
  in
  let thief i () = loots.(i) <- l_steal h (i + 1) 0 seg (Some 2) in
  {
    Sched.threads = [ owner; thief 0; thief 1; thief 2 ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        let pairwise_disjoint =
          List.for_all
            (fun (i, j) ->
              List.for_all (fun x -> not (List.mem x loots.(j))) loots.(i))
            [ (0, 1); (0, 2); (1, 2) ]
        in
        if not pairwise_disjoint then failf name "stealer loot not disjoint";
        let rec drain acc =
          match M.try_remove seg with Some x -> drain (x :: acc) | None -> acc
        in
        let all =
          List.sort compare
            (!popped @ loots.(0) @ loots.(1) @ loots.(2) @ drain [])
        in
        if all <> [ 1; 2; 3; 4 ] then
          failf name "elements lost or duplicated: [%s]"
            (String.concat ";" (List.map string_of_int all));
        Linz.check h);
  }

(* The MPSC inbox with two concurrent spillers against the owner's
   exchange-drain: push CASes contend with each other and with the drain's
   exchange. One spiller alone already saturates the exhaustive bound
   (473k schedules at the seed); two are far beyond it, but commute enough
   for the reduction. *)
let spill_spill_drain () =
  let name = "2 spillers vs exchange-drain" in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  let seg = M.make ~id:0 () in
  assert (l_spill h (-1) 0 seg 1);
  let popped = ref [] in
  let spilled = ref [ 1 ] in
  let spill_ok idx x = if l_spill h idx 0 seg x then spilled := x :: !spilled in
  let owner () =
    match l_remove h 0 0 seg with Some x -> popped := [ x ] | None -> ()
  in
  let spiller_a () =
    spill_ok 1 2;
    spill_ok 1 3
  in
  let spiller_b () =
    spill_ok 2 4;
    spill_ok 2 5
  in
  {
    Sched.threads = [ owner; spiller_a; spiller_b ];
    check_step = bound_ok name seg;
    check_final =
      (fun () ->
        quiescent name seg;
        if !popped = [] then failf name "owner pop lost the drained elements";
        let rec drain acc =
          match M.try_remove seg with Some x -> drain (x :: acc) | None -> acc
        in
        let all = List.sort compare (!popped @ drain []) in
        if all <> List.sort compare !spilled then
          failf name "elements lost or duplicated: [%s] of %d spills"
            (String.concat ";" (List.map string_of_int all))
            (List.length !spilled);
        Linz.check h);
  }

(* Topology-aware stealing under the two-group preset: the thief walks the
   probe sequence the shared locality model dictates (own segment first,
   the far one second — exactly Mc_pool's near-first search on a two-node
   machine) while the victim's owner pops. The order is data, not
   synchronization, so the schedule space is pop-vs-steal's; what this
   certifies is that driving the steal from Cpool_topology.near_first_order
   preserves conservation and linearizability on every interleaving. *)
let near_steal_vs_pop () =
  let name = "near-first steal vs owner pop" in
  let topo = Cpool_topology.two_group ~nodes:2 () in
  let order = Cpool_topology.near_first_order topo ~from:1 in
  let h = Linz.create () in
  Linz.declare_seg h ~id:0 ~capacity:None;
  Linz.declare_seg h ~id:1 ~capacity:None;
  let segs = [| M.make ~id:0 (); M.make ~id:1 () |] in
  List.iter (l_add h (-1) 0 segs.(0)) [ 1; 2; 3 ];
  let popped = ref 0 in
  let returned = ref 0 in
  let thief () =
    (* Walks the near-first order like Mc_pool.search_pass: skip the own
       slot, steal from the first non-empty victim, bank the remainder. *)
    Array.iter
      (fun v ->
        if v <> 1 && !returned = 0 then
          match l_steal h 0 v segs.(v) None with
          | [] -> ()
          | [ _ ] -> returned := 1
          | _ :: rest -> (
            returned := 1;
            match l_deposit h 0 1 segs.(1) rest with
            | [] -> ()
            | _ :: _ -> failf name "unbounded deposit rejected elements"))
      order
  in
  let owner () =
    match l_remove h 1 0 segs.(0) with Some _ -> popped := 1 | None -> ()
  in
  {
    Sched.threads = [ thief; owner ];
    check_step = all_of [ bound_ok name segs.(0); bound_ok name segs.(1) ];
    check_final =
      (fun () ->
        quiescent name segs.(0);
        quiescent name segs.(1);
        if order <> [| 1; 0 |] then failf name "near-first order from slot 1 must be [1;0]";
        (* steal_half of 3 takes at most 2, so the owner always finds one. *)
        if !popped <> 1 then failf name "owner pop found its own segment empty";
        let total = stored segs.(0) + stored segs.(1) + !returned + !popped in
        if total <> 3 then failf name "conservation broken: %d elements of 3" total;
        Linz.check h);
  }

(* ---- event-driven parking ------------------------------------------ *)

(* Mc_pool's hunt, reduced to its park protocol: steal from the one other
   segment; when that fails, and the pool is not quiescent, park until
   [ready] — some segment non-empty, or quiescence — may hold. The rounds
   are bounded so every schedule terminates: a re-check can pass while an
   add's count is published but its element not yet stored, and the
   searcher then loops. A lost wakeup is not a bounded loop but a fiber
   blocked forever, which the scheduler reports as a deadlock. Returns
   whether the hunt concluded quiescence. *)
let hunt_once ~ec ~own ~victim ~quiescent ~got =
  let ready () = quiescent () || M.size own > 0 || M.size victim > 0 in
  let rec round n =
    match loot_list (M.steal_half victim) with
    | _ :: _ as loot ->
      got := loot;
      false
    | [] ->
      if quiescent () then begin
        K.notify ec;
        true
      end
      else if n > 0 then begin
        ignore (K.park ec ~ready);
        round (n - 1)
      end
      else false
  in
  round 4

(* A searcher parking against an adder that publishes one element into its
   own segment and then notifies (Mc_pool.try_add): in every schedule the
   searcher ends up with the element or stops looping with the element in
   plain sight, and never sleeps through the notify. *)
let park_vs_add () =
  let name = "park vs add" in
  let own = M.make ~id:0 () in
  let victim = M.make ~id:1 () in
  let ec = K.create () in
  let got = ref [] in
  let searcher () =
    ignore (hunt_once ~ec ~own ~victim ~quiescent:(fun () -> false) ~got)
  in
  let adder () =
    M.add victim 7;
    K.notify ec
  in
  {
    Sched.threads = [ searcher; adder ];
    check_step = all_of [ bound_ok name own; bound_ok name victim ];
    check_final =
      (fun () ->
        quiescent name own;
        quiescent name victim;
        if K.sleepers ec <> 0 then failf name "sleeper count leaked: %d" (K.sleepers ec);
        if List.length !got + stored victim <> 1 then
          failf name "element lost or duplicated: %d taken, %d left"
            (List.length !got) (stored victim));
  }

(* A parked searcher against the last active worker: that worker becomes a
   searcher too, sees everyone searching and notifies (the empty
   confirmation), stops searching, then deregisters and notifies
   (Mc_pool.deregister). Whichever of the two notifies the parked searcher
   hears, it must conclude quiescence — in every schedule, without
   hanging. *)
let park_vs_quiescence () =
  let name = "park vs quiescence" in
  let module A = Sched.Prim.Atomic in
  let own = M.make ~id:0 () in
  let victim = M.make ~id:1 () in
  let ec = K.create () in
  let searching = A.make 0 and registered = A.make 2 in
  let is_quiescent () = A.get searching >= A.get registered in
  let got = ref [] in
  let concluded = ref false in
  let searcher () =
    ignore (A.fetch_and_add searching 1);
    concluded := hunt_once ~ec ~own ~victim ~quiescent:is_quiescent ~got;
    ignore (A.fetch_and_add searching (-1))
  in
  let last_worker () =
    ignore (A.fetch_and_add searching 1);
    if is_quiescent () then K.notify ec;
    ignore (A.fetch_and_add searching (-1));
    ignore (A.fetch_and_add registered (-1));
    K.notify ec
  in
  {
    Sched.threads = [ searcher; last_worker ];
    check_step = (fun () -> ());
    check_final =
      (fun () ->
        if !got <> [] then failf name "took an element from an empty pool";
        if not !concluded then failf name "searcher gave up before quiescence";
        if K.sleepers ec <> 0 then failf name "sleeper count leaked: %d" (K.sleepers ec));
  }

(* The same searcher with the announcement and the re-check swapped: it
   checks [ready] first and only then registers, with a verdict already
   stale. The adder's notify can fall between the two, find no sleeper and
   skip the wakeup, leaving the searcher blocked with the element in the
   pool. The checker must find that schedule (as a deadlock). *)
let lost_wakeup () =
  let own = M.make ~id:0 () in
  let victim = M.make ~id:1 () in
  let ec = K.create () in
  let searcher () =
    if M.size own = 0 && M.size victim = 0 then
      ignore (K.park ec ~ready:(fun () -> false))
  in
  let adder () =
    M.add victim 7;
    K.notify ec
  in
  {
    Sched.threads = [ searcher; adder ];
    check_step = (fun () -> ());
    check_final = (fun () -> ());
  }

let scenarios =
  [
    { name = "try-add-capacity"; instance = try_add_capacity };
    { name = "steal-vs-add"; instance = steal_vs_add };
    { name = "reserve-refill"; instance = reserve_refill_race };
    { name = "three-way"; instance = three_way };
    { name = "pop-vs-steal"; instance = pop_vs_steal };
    { name = "steal-vs-steal"; instance = steal_vs_steal };
    { name = "pop-vs-steal-one"; instance = pop_vs_steal_one };
    { name = "mpsc-push-drain"; instance = mpsc_push_vs_drain };
    { name = "push-vs-reserve"; instance = push_vs_reserve };
    { name = "three-stealers"; instance = three_stealers };
    { name = "spill-spill-drain"; instance = spill_spill_drain };
    { name = "near-steal-vs-pop"; instance = near_steal_vs_pop };
    { name = "park-vs-add"; instance = park_vs_add };
    { name = "park-vs-quiescence"; instance = park_vs_quiescence };
  ]

let count = List.length scenarios

let run_all ppf =
  List.map
    (fun sc ->
      match Sched.explore sc.instance with
      | n ->
        Format.fprintf ppf "interleave: %-18s %6d schedules, all invariants hold@."
          sc.name n;
        (sc.name, n)
      | exception e ->
        failwith
          (Printf.sprintf "interleave %s failed: %s" sc.name (Printexc.to_string e)))
    scenarios

(* ---- DPOR instrumentation and cross-validation ----------------------- *)

type stat = {
  s_name : string;
  dpor : int;
  dpor_pruned : int;
  exhaustive : int option;
}

let dpor_stats ?(exhaustive_cap = 1_000_000) () =
  List.map
    (fun sc ->
      let d = Sched.explore_stats ~mode:Dpor sc.instance in
      let exhaustive =
        match
          Sched.explore ~mode:Exhaustive ~max_schedules:exhaustive_cap
            sc.instance
        with
        | n -> Some n
        | exception Sched.Exploded _ -> None
      in
      { s_name = sc.name; dpor = d.schedules; dpor_pruned = d.pruned; exhaustive })
    scenarios

(* A deliberately broken two-fiber lost update on a shim atomic: the
   reduction must reach a failing schedule exactly as the full DFS does.
   (Read-then-write on one object conflicts with itself, so DPOR may not
   collapse the racing orders.) *)
let lost_update_instance () =
  let module A = Sched.Prim.Atomic in
  let c = A.make 0 in
  let bump () =
    let v = A.get c in
    A.set c (v + 1)
  in
  {
    Sched.threads = [ bump; bump ];
    check_step = (fun () -> ());
    check_final =
      (fun () -> if A.get c <> 2 then failwith "lost update");
  }

let cross_validate ppf =
  List.iter
    (fun n ->
      let sc = List.find (fun s -> s.name = n) scenarios in
      let ex = Sched.explore ~mode:Exhaustive sc.instance in
      let dp = Sched.explore ~mode:Dpor sc.instance in
      if dp >= ex then
        failwith
          (Printf.sprintf
             "cross-validate %s: DPOR explored %d schedules, not fewer than \
              the exhaustive %d"
             n dp ex);
      Format.fprintf ppf
        "cross-validate: %-16s verdicts agree (exhaustive %d, dpor %d)@." n ex
        dp)
    [ "reserve-refill"; "pop-vs-steal-one"; "steal-vs-steal" ];
  let fails mode =
    match Sched.explore ~mode lost_update_instance with
    | _ -> false
    | exception Failure _ -> true
  in
  if not (fails Sched.Exhaustive) then
    failwith "cross-validate: exhaustive DFS missed the seeded lost update";
  if not (fails Sched.Dpor) then
    failwith "cross-validate: DPOR missed the seeded lost update";
  Format.fprintf ppf "cross-validate: seeded lost update caught by both modes@.";
  let hangs mode =
    match Sched.explore ~mode lost_wakeup with
    | _ -> false
    | exception Sched.Deadlock -> true
  in
  if not (hangs Sched.Exhaustive) then
    failwith "cross-validate: exhaustive DFS missed the seeded lost wakeup";
  if not (hangs Sched.Dpor) then
    failwith "cross-validate: DPOR missed the seeded lost wakeup";
  Format.fprintf ppf "cross-validate: seeded lost wakeup caught by both modes@."
