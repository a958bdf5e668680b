let bucket_limit = 512

type t = {
  mutable adds : int;
  mutable spills : int;
  mutable add_fails : int;
  mutable local_removes : int;
  mutable steals : int;
  mutable elements_stolen : int;
  mutable segments_examined : int;
  mutable steal_probes : int; (* probes attributed to successful steals *)
  mutable sweeps : int;
  mutable empty_confirms : int;
  mutable spins : int;
  mutable parks : int; (* blocks on the pool's eventcount *)
  mutable wakes : int; (* returns from those blocks *)
  (* Segment-side path counters: which protocol path each ring operation
     took. Fast/locked push/pop and the drain counters are written only by
     the segment's owner domain (plain stores are enough); the remaining
     segment counters are bumped by whichever domain performed the
     operation — foreign spillers and stealers race on them, so they are
     genuine atomics ([Stdlib.Atomic], not the functor's shims: telemetry
     is not part of the verified protocol and must not add scheduling
     points to the interleave checker). *)
  mutable fast_pushes : int;
  mutable locked_pushes : int;
  mutable fast_pops : int;
  mutable locked_pops : int;
  mutable inbox_drains : int; (* owner inbox-to-ring transfers *)
  mutable inbox_drained : int; (* elements moved by those transfers *)
  inbox_adds : int Stdlib.Atomic.t; (* successful MPSC pushes, any domain *)
  top_cas_retries : int Stdlib.Atomic.t; (* failed claims of the ring's top cursor *)
  mpsc_retries : int Stdlib.Atomic.t; (* failed CASes on the inbox stack *)
  (* Steal-batch counters are bumped by the thief's own handle (single
     writer), not the victim segment — with lock-free stealing the victim
     side has no serialization point to hide racy plain increments behind. *)
  mutable batched_steals : int; (* steal transfers that moved >= 2 elements at once *)
  segs_per_steal : int array;
  elems_per_steal : int array;
  batch_sizes : int array; (* elements moved per successful steal transfer *)
  (* Locality split (only bumped when the pool has a topology). Near = the
     probed/robbed segment shares the prober's locality group; far = it
     does not. All four counters and both bucket arrays are written by the
     thief's own handle, single-writer like the batch counters above. *)
  mutable near_probes : int;
  mutable far_probes : int;
  mutable near_steals : int;
  mutable far_steals : int;
  near_batch_sizes : int array; (* elements per steal from a near segment *)
  far_batch_sizes : int array; (* elements per steal from a far segment *)
  (* The optional sink behind the handle-level notes: each one bumps its
     counter and appends its event here, so an event is written once.
     [Mc_trace.disabled] on untraced pools, on segments and on merges. *)
  ring : Mc_trace.t;
}

let create ?(ring = Mc_trace.disabled) () =
  (* Padded: each domain's record must not share a cache line with its
     neighbour's, or the hot-path counter stores false-share. *)
  Cpool_util.Pad.copy_as_padded
    {
      adds = 0;
      spills = 0;
      add_fails = 0;
      local_removes = 0;
      steals = 0;
      elements_stolen = 0;
      segments_examined = 0;
      steal_probes = 0;
      sweeps = 0;
      empty_confirms = 0;
      spins = 0;
      parks = 0;
      wakes = 0;
      fast_pushes = 0;
      locked_pushes = 0;
      fast_pops = 0;
      locked_pops = 0;
      inbox_drains = 0;
      inbox_drained = 0;
      inbox_adds = Stdlib.Atomic.make 0;
      top_cas_retries = Stdlib.Atomic.make 0;
      mpsc_retries = Stdlib.Atomic.make 0;
      batched_steals = 0;
      segs_per_steal = Array.make (bucket_limit + 1) 0;
      elems_per_steal = Array.make (bucket_limit + 1) 0;
      batch_sizes = Array.make (bucket_limit + 1) 0;
      near_probes = 0;
      far_probes = 0;
      near_steals = 0;
      far_steals = 0;
      near_batch_sizes = Array.make (bucket_limit + 1) 0;
      far_batch_sizes = Array.make (bucket_limit + 1) 0;
      ring;
    }

let ring s = s.ring

let bump buckets v =
  let i = if v < 0 then 0 else min v bucket_limit in
  buckets.(i) <- buckets.(i) + 1

(* Size-carrying events take the segment and its size reader, not the
   size: an untraced note never reads the segment. *)
let note_add s ~a1 ~size seg =
  s.adds <- s.adds + 1;
  if Mc_trace.enabled s.ring then Mc_trace.record s.ring Mc_trace.Add ~a1 ~a2:(size seg)

let note_spill s ~a1 ~size seg =
  s.spills <- s.spills + 1;
  if Mc_trace.enabled s.ring then Mc_trace.record s.ring Mc_trace.Spill ~a1 ~a2:(size seg)

let note_add_fail s = s.add_fails <- s.add_fails + 1

let note_local_remove s ~a1 ~size seg =
  s.local_removes <- s.local_removes + 1;
  if Mc_trace.enabled s.ring then Mc_trace.record s.ring Mc_trace.Remove ~a1 ~a2:(size seg)

let note_probe s ~a1 ~a2 =
  s.segments_examined <- s.segments_examined + 1;
  Mc_trace.record s.ring Mc_trace.Steal_probe ~a1 ~a2

let note_steal s ~a1 ~probes ~elements =
  s.steals <- s.steals + 1;
  s.elements_stolen <- s.elements_stolen + elements;
  s.steal_probes <- s.steal_probes + probes;
  bump s.segs_per_steal probes;
  bump s.elems_per_steal elements;
  Mc_trace.record s.ring Mc_trace.Steal_claim ~a1 ~a2:elements

let note_sweep s ~a1 =
  s.sweeps <- s.sweeps + 1;
  Mc_trace.record s.ring Mc_trace.Sweep ~a1 ~a2:0

let note_empty_confirm s = s.empty_confirms <- s.empty_confirms + 1

let note_spin s = s.spins <- s.spins + 1

let note_park s ~a1 =
  s.parks <- s.parks + 1;
  Mc_trace.record s.ring Mc_trace.Park ~a1 ~a2:0

let note_wake s ~a1 =
  s.wakes <- s.wakes + 1;
  Mc_trace.record s.ring Mc_trace.Wake ~a1 ~a2:0

let parks s = s.parks

let wakes s = s.wakes

let note_fast_push s = s.fast_pushes <- s.fast_pushes + 1

let note_locked_push s = s.locked_pushes <- s.locked_pushes + 1

let note_fast_pop s = s.fast_pops <- s.fast_pops + 1

let note_locked_pop s = s.locked_pops <- s.locked_pops + 1

let note_inbox_add s = Stdlib.Atomic.incr s.inbox_adds

let note_top_cas_retry s = Stdlib.Atomic.incr s.top_cas_retries

let note_mpsc_retry s = Stdlib.Atomic.incr s.mpsc_retries

let note_inbox_drain s ~elements =
  s.inbox_drains <- s.inbox_drains + 1;
  s.inbox_drained <- s.inbox_drained + elements

let inbox_adds s = Stdlib.Atomic.get s.inbox_adds

let top_cas_retries s = Stdlib.Atomic.get s.top_cas_retries

let mpsc_retries s = Stdlib.Atomic.get s.mpsc_retries

let inbox_drains s = s.inbox_drains

let inbox_drained s = s.inbox_drained

let note_steal_batch s n =
  if n >= 2 then s.batched_steals <- s.batched_steals + 1;
  bump s.batch_sizes n

let note_probe_locality s ~far ~a1 ~a2 =
  if far then begin
    s.far_probes <- s.far_probes + 1;
    Mc_trace.record s.ring Mc_trace.Far_probe ~a1 ~a2
  end
  else s.near_probes <- s.near_probes + 1

let note_steal_locality s ~far ~elements =
  if far then begin
    s.far_steals <- s.far_steals + 1;
    bump s.far_batch_sizes elements
  end
  else begin
    s.near_steals <- s.near_steals + 1;
    bump s.near_batch_sizes elements
  end

let removes s = s.local_removes + s.steals

let merge a b =
  let s = create () in
  let blit dst src = Array.iteri (fun i n -> dst.(i) <- dst.(i) + n) src in
  s.adds <- a.adds + b.adds;
  s.spills <- a.spills + b.spills;
  s.add_fails <- a.add_fails + b.add_fails;
  s.local_removes <- a.local_removes + b.local_removes;
  s.steals <- a.steals + b.steals;
  s.elements_stolen <- a.elements_stolen + b.elements_stolen;
  s.segments_examined <- a.segments_examined + b.segments_examined;
  s.steal_probes <- a.steal_probes + b.steal_probes;
  s.sweeps <- a.sweeps + b.sweeps;
  s.empty_confirms <- a.empty_confirms + b.empty_confirms;
  s.spins <- a.spins + b.spins;
  s.parks <- a.parks + b.parks;
  s.wakes <- a.wakes + b.wakes;
  s.fast_pushes <- a.fast_pushes + b.fast_pushes;
  s.locked_pushes <- a.locked_pushes + b.locked_pushes;
  s.fast_pops <- a.fast_pops + b.fast_pops;
  s.locked_pops <- a.locked_pops + b.locked_pops;
  s.inbox_drains <- a.inbox_drains + b.inbox_drains;
  s.inbox_drained <- a.inbox_drained + b.inbox_drained;
  Stdlib.Atomic.set s.inbox_adds (inbox_adds a + inbox_adds b);
  Stdlib.Atomic.set s.top_cas_retries (top_cas_retries a + top_cas_retries b);
  Stdlib.Atomic.set s.mpsc_retries (mpsc_retries a + mpsc_retries b);
  s.batched_steals <- a.batched_steals + b.batched_steals;
  blit s.segs_per_steal a.segs_per_steal;
  blit s.segs_per_steal b.segs_per_steal;
  blit s.elems_per_steal a.elems_per_steal;
  blit s.elems_per_steal b.elems_per_steal;
  blit s.batch_sizes a.batch_sizes;
  blit s.batch_sizes b.batch_sizes;
  s.near_probes <- a.near_probes + b.near_probes;
  s.far_probes <- a.far_probes + b.far_probes;
  s.near_steals <- a.near_steals + b.near_steals;
  s.far_steals <- a.far_steals + b.far_steals;
  blit s.near_batch_sizes a.near_batch_sizes;
  blit s.near_batch_sizes b.near_batch_sizes;
  blit s.far_batch_sizes a.far_batch_sizes;
  blit s.far_batch_sizes b.far_batch_sizes;
  s

let merge_all ts = List.fold_left merge (create ()) ts

let counters s =
  Cpool_metrics.Counters.of_list
    [
      ("adds", s.adds);
      ("spill adds", s.spills);
      ("rejected adds", s.add_fails);
      ("local removes", s.local_removes);
      ("steals", s.steals);
      ("elements stolen", s.elements_stolen);
      ("segments examined", s.segments_examined);
      ("sweeps", s.sweeps);
      ("empty confirmations", s.empty_confirms);
      ("retry spins", s.spins);
      ("parks", s.parks);
      ("wakes", s.wakes);
      ("fast-path pushes", s.fast_pushes);
      ("locked pushes", s.locked_pushes);
      ("fast-path pops", s.fast_pops);
      ("locked pops", s.locked_pops);
      ("inbox adds", inbox_adds s);
      ("inbox drains", s.inbox_drains);
      ("inbox drained", s.inbox_drained);
      ("top CAS retries", top_cas_retries s);
      ("mpsc retries", mpsc_retries s);
      ("batched steals", s.batched_steals);
      ("near probes", s.near_probes);
      ("far probes", s.far_probes);
      ("near steals", s.near_steals);
      ("far steals", s.far_steals);
    ]

let sample_of buckets =
  let sample = Cpool_metrics.Sample.create () in
  Array.iteri
    (fun v n ->
      for _ = 1 to n do
        Cpool_metrics.Sample.add_int sample v
      done)
    buckets;
  sample

let segments_per_steal s = sample_of s.segs_per_steal

let elements_per_steal s = sample_of s.elems_per_steal

let steal_batch_sizes s = sample_of s.batch_sizes

let near_steal_batch_sizes s = sample_of s.near_batch_sizes

let far_steal_batch_sizes s = sample_of s.far_batch_sizes

let near_probes s = s.near_probes

let far_probes s = s.far_probes

let near_steals s = s.near_steals

let far_steals s = s.far_steals

let fast_path_ops s = s.fast_pushes + s.fast_pops

(* Spill (inbox) adds are no longer counted here: they are single-CAS
   lock-free pushes now, so only operations that actually took the segment
   mutex — the [fast_path:false] baseline — belong in the locked bucket. *)
let locked_path_ops s = s.locked_pushes + s.locked_pops

let fast_path_fraction s =
  let total = fast_path_ops s + locked_path_ops s in
  if total = 0 then Float.nan else float_of_int (fast_path_ops s) /. float_of_int total

let mean_segments_per_steal s =
  if s.steals = 0 then Float.nan
  else float_of_int s.steal_probes /. float_of_int s.steals

let mean_elements_per_steal s =
  if s.steals = 0 then Float.nan
  else float_of_int s.elements_stolen /. float_of_int s.steals

let steal_fraction s =
  let r = removes s in
  if r = 0 then Float.nan else float_of_int s.steals /. float_of_int r

let table_headers =
  [
    "worker"; "adds"; "spills"; "rejects"; "local rm"; "steals"; "elems stolen";
    "segs/steal"; "elems/steal"; "sweeps"; "confirms"; "spins";
  ]

let table_row name s =
  [
    name;
    string_of_int s.adds;
    string_of_int s.spills;
    string_of_int s.add_fails;
    string_of_int s.local_removes;
    string_of_int s.steals;
    string_of_int s.elements_stolen;
    Cpool_metrics.Render.float_cell (mean_segments_per_steal s);
    Cpool_metrics.Render.float_cell (mean_elements_per_steal s);
    string_of_int s.sweeps;
    string_of_int s.empty_confirms;
    string_of_int s.spins;
  ]

let path_table_headers =
  [
    "segment"; "fast push"; "locked push"; "fast pop"; "locked pop"; "inbox";
    "drains"; "cas retries"; "mpsc retries"; "fast %";
  ]

let mean_batch_size s =
  let total = ref 0 and n = ref 0 in
  Array.iteri
    (fun v k ->
      total := !total + (v * k);
      n := !n + k)
    s.batch_sizes;
  if !n = 0 then Float.nan else float_of_int !total /. float_of_int !n

let path_row name s =
  [
    name;
    string_of_int s.fast_pushes;
    string_of_int s.locked_pushes;
    string_of_int s.fast_pops;
    string_of_int s.locked_pops;
    string_of_int (inbox_adds s);
    string_of_int s.inbox_drains;
    string_of_int (top_cas_retries s);
    string_of_int (mpsc_retries s);
    Cpool_metrics.Render.float_cell (100.0 *. fast_path_fraction s);
  ]

let render_path_table ?title named =
  let rows = List.map (fun (name, s) -> path_row name s) named in
  let rows =
    match named with
    | [] | [ _ ] -> rows
    | _ -> rows @ [ path_row "TOTAL" (merge_all (List.map snd named)) ]
  in
  Cpool_metrics.Render.table ?title ~headers:path_table_headers ~rows ()

let render_table ?title named =
  let rows = List.map (fun (name, s) -> table_row name s) named in
  let rows =
    match named with
    | [] | [ _ ] -> rows
    | _ -> rows @ [ table_row "TOTAL" (merge_all (List.map snd named)) ]
  in
  Cpool_metrics.Render.table ?title ~headers:table_headers ~rows ()

let render ?title s = render_table ?title [ ("all", s) ]
