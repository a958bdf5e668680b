(* The segment layer by direct calls: the owner's push/pop pair on one
   domain, and the copy-then-CAS [steal_half] from a thief domain against
   an owner that keeps pushing and popping the same ring. *)

module Mc_segment = Cpool_mc.Mc_segment
module Mc_stats = Cpool_mc.Mc_stats
open Stat

let batch = 64

(* Median nanoseconds of one push plus one pop, timed in batches. *)
let push_pop_ns ~seconds =
  let s = Mc_segment.make ~id:0 () in
  let samples = Samples.create 4096 in
  let deadline = now_ns () + Cpool_util.Clock.ns_of_s seconds in
  while Samples.length samples = 0 || now_ns () < deadline do
    let t0 = now_ns () in
    for i = 1 to batch do
      Mc_segment.add s i
    done;
    for _ = 1 to batch do
      ignore (Mc_segment.try_remove s)
    done;
    Samples.add samples (now_ns () - t0)
  done;
  Samples.pct samples 50. /. float_of_int batch

type steal = { steal_ns : float; cas_retries_per_steal : float }

(* The owner domain keeps the ring near [batch] elements, pushing below it
   and popping at it, so its pops race the thief's claims at [top]. *)
let steal_half ~seconds =
  let s = Mc_segment.make ~id:0 () in
  let stop = Atomic.make false in
  let owner =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          if Mc_segment.size s < batch then begin
            Mc_segment.add s !i;
            incr i
          end
          else ignore (Mc_segment.try_remove s)
        done)
  in
  let samples = Samples.create 4096 in
  let deadline = now_ns () + Cpool_util.Clock.ns_of_s seconds in
  while Samples.length samples = 0 || now_ns () < deadline do
    let t0 = now_ns () in
    match Mc_segment.steal_half s with
    | Cpool.Steal.Nothing -> ()
    | Cpool.Steal.Single _ | Cpool.Steal.Batch _ -> Samples.add samples (now_ns () - t0)
  done;
  Atomic.set stop true;
  Domain.join owner;
  let steals = Samples.length samples in
  {
    steal_ns = Samples.pct samples 50.;
    cas_retries_per_steal =
      float_of_int (Mc_stats.top_cas_retries (Mc_segment.stats s)) /. float_of_int steals;
  }
