(* Open-loop siege on the pool layer. One producer domain offers seeded
   Poisson arrivals into its own segment of a two-segment pool; one consumer
   domain takes them with the blocking [Mc_pool.remove], so every element
   crosses domains through a steal. Each element carries its sequence id
   and its due time: sojourn is counted from the due time, so time a late
   generator loses is counted too, and a sequence-id bitmap proves that
   every arrival was delivered exactly once. *)

module Mc_pool = Cpool_mc.Mc_pool
module Mc_stats = Cpool_mc.Mc_stats
open Stat

type elt = { seq : int; due : int }

(* Arrivals served within this long of their due time are "in limit". *)
let limit_ns = 1_000_000

type producer = {
  late : Samples.t;  (* add time minus due time, ns *)
  add_ns : Samples.t;  (* traced: one [Mc_pool.add] call *)
  mutable offered : int;
  mutable last_add : int;
}

type consumer = {
  sojourn : Samples.t;  (* dequeue time minus due time, ns *)
  rm_local : Samples.t;  (* traced: one [Mc_pool.remove] call, by path *)
  rm_steal : Samples.t;
  rm_park : Samples.t;
  mutable last_spins : int;
  mutable duplicated : int;
  mutable out_of_range : int;
  mutable stats : Mc_stats.t option;
}

type phase = {
  rate : float;
  setup_ns : int;
  start_ns : int;  (* barrier release: the schedule's time origin *)
  p : producer;
  c : consumer;
  lost : int;
  soj_sorted : int array;  (* sojourns, ns, ascending *)
  late_sorted : int array;  (* generator lateness, ns, ascending *)
}

let spins stats =
  Cpool_metrics.Counters.get (Mc_stats.counters stats) "retry spins"

let produce pool h ~rng ~rate ~traced ~start ~stop ~capacity p =
  let mean_gap_ns = 1e9 /. rate in
  let next = ref start and seq = ref 0 and running = ref true in
  while !running do
    let u = Cpool_util.Rng.float rng 1.0 in
    next := !next + int_of_float (-.mean_gap_ns *. Float.log1p (-.u));
    if !next >= stop || !seq >= capacity then running := false
    else begin
      while now_ns () < !next do
        Domain.cpu_relax ()
      done;
      let e = { seq = !seq; due = !next } in
      let t = now_ns () in
      Samples.add p.late (t - !next);
      Mc_pool.add pool h e;
      if traced then Samples.add p.add_ns (now_ns () - t);
      incr seq
    end
  done;
  p.offered <- !seq;
  p.last_add <- now_ns ()

(* A remove is classified by what it did to the consumer's counters: no
   new steal means it popped its own segment; a steal with new retry spins
   means it waited (spun, then parked) for an arrival; otherwise it stole
   at once. Spins only move inside removes that end in a steal, so the
   spin total is read only then. *)
let consume pool h ~traced ~bitmap c =
  let stats = Mc_pool.stats_of_handle h in
  let rec loop () =
    let steals0 = Mc_pool.steals pool in
    let t0 = now_ns () in
    match Mc_pool.remove pool h with
    | None -> ()
    | Some e ->
      let t = now_ns () in
      Samples.add c.sojourn (t - e.due);
      if e.seq < 0 || e.seq >= Bytes.length bitmap then
        c.out_of_range <- c.out_of_range + 1
      else if Bytes.get bitmap e.seq <> '\000' then c.duplicated <- c.duplicated + 1
      else Bytes.set bitmap e.seq '\001';
      if traced then begin
        if Mc_pool.steals pool = steals0 then Samples.add c.rm_local (t - t0)
        else begin
          let s = spins stats in
          Samples.add (if s > c.last_spins then c.rm_park else c.rm_steal) (t - t0);
          c.last_spins <- s
        end
      end;
      loop ()
  in
  loop ();
  c.stats <- Some stats

let await_count a n =
  while Atomic.get a < n do
    Domain.cpu_relax ()
  done

(* One phase: build the pool, spawn and register both domains, release
   them together and run the schedule for [seconds]. With [seconds = 0.]
   it is a set-up only: the producer offers nothing and both exit. *)
let phase ~pool_seed ~seed ~rate ~seconds ~traced =
  let duration_ns = Cpool_util.Clock.ns_of_s seconds in
  let expected = rate *. seconds in
  let capacity = int_of_float (expected +. (20. *. sqrt expected)) + 64 in
  let bitmap = Bytes.make capacity '\000' in
  let p =
    {
      late = Samples.create capacity;
      add_ns = Samples.create (if traced then capacity else 0);
      offered = 0;
      last_add = 0;
    }
  in
  let c =
    {
      sojourn = Samples.create capacity;
      rm_local = Samples.create (if traced then capacity else 0);
      rm_steal = Samples.create 0;
      rm_park = Samples.create 0;
      last_spins = 0;
      duplicated = 0;
      out_of_range = 0;
      stats = None;
    }
  in
  let t0 = now_ns () in
  let pool : elt Mc_pool.t =
    Mc_pool.of_config { Mc_pool.Config.default with segments = 2; seed = pool_seed }
  in
  let arrived = Atomic.make 0 and released = Atomic.make 0 in
  let member slot body =
    Domain.spawn (fun () ->
        let h = Mc_pool.register_at pool slot in
        Atomic.incr arrived;
        await_count released 1;
        body h;
        Mc_pool.deregister pool h)
  in
  let start = ref 0 in
  let producer =
    member 0 (fun h ->
        let rng = Cpool_util.Rng.create (Int64.of_int seed) in
        produce pool h ~rng ~rate ~traced ~start:!start ~stop:(!start + duration_ns)
          ~capacity p)
  in
  let consumer = member 1 (fun h -> consume pool h ~traced ~bitmap c) in
  await_count arrived 2;
  let setup_ns = now_ns () - t0 in
  start := now_ns ();
  Atomic.set released 1;
  Domain.join producer;
  Domain.join consumer;
  let received = ref 0 in
  Bytes.iter (fun b -> if b <> '\000' then incr received) bitmap;
  {
    rate;
    setup_ns;
    start_ns = !start;
    p;
    c;
    lost = p.offered - !received;
    soj_sorted = Samples.sorted c.sojourn;
    late_sorted = Samples.sorted p.late;
  }

let failures ph = ph.lost + ph.c.duplicated + ph.c.out_of_range

(* Arrivals served within [limit_ns] of their due time, over all offered
   arrivals: lost work counts as missing the limit. *)
let in_limit ph =
  Array.fold_left (fun n s -> if s <= limit_ns then n + 1 else n) 0 ph.soj_sorted

let in_limit_ratio ph = float_of_int (in_limit ph) /. float_of_int (max 1 ph.p.offered)

let in_limit_per_s ph =
  float_of_int (in_limit ph) /. (float_of_int (ph.p.last_add - ph.start_ns) /. 1e9)

(* Achieved arrival rate over the nominal one: below 1 when the generator
   fell behind its schedule. *)
let rate_ratio ph =
  let gen_s = float_of_int (ph.p.last_add - ph.start_ns) /. 1e9 in
  float_of_int ph.p.offered /. gen_s /. ph.rate

let sojourn_us ph p = Samples.pct_of_sorted ph.soj_sorted p /. 1e3
let late_us ph p = Samples.pct_of_sorted ph.late_sorted p /. 1e3
