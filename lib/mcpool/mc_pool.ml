(* The shared algorithm type: one [kind] for the simulated and the real
   pool, re-exported so [Mc_pool.Linear] etc. keep compiling. *)
type kind = Cpool_intf.kind = Linear | Random | Tree | Hinted

type tree = {
  leaves : int;
  rounds : int Atomic.t array; (* heap layout, as in the simulated pool *)
  node_locks : Mutex.t array; (* internal nodes; protect children's counters *)
}

(* Everything derived from the shared locality model at [create] time, so
   the hot path only does array reads. Segment [i] is homed on topology
   node [i]; [aware = false] is the distance-oblivious twin, which pays the
   same emulated latencies but keeps the distance-blind probe orders — the
   bench baseline that isolates the ordering policy from the machine. *)
type topo_info = {
  topology : Cpool_topology.t;
  aware : bool;
  far : bool array array; (* slot -> seg -> outside the slot's group *)
  delay_ns : int array array; (* slot -> seg -> emulated ns per remote access *)
  order : int array array; (* slot -> probe order (near-first when aware) *)
  near_len : int array; (* slot -> length of order's within-group prefix *)
  spans : (int * int) list array; (* slot -> shuffleable equal-distance runs *)
  seg_of_leaf : int array; (* aware Tree: leaf position -> segment, -1 pad *)
  leaf_of_seg : int array; (* aware Tree: segment -> leaf position *)
}

type 'a t = {
  pool_kind : kind;
  bound : int option;
  segs : 'a Mc_segment.t array;
  registration : Mutex.t;
  claimed : bool array;
  mutable handle_stats : Mc_stats.t list; (* every handle ever claimed; under [registration] *)
  searching : int Atomic.t;
  registered : int Atomic.t;
  idle : Mc_park.t; (* where idle searchers park; every visible element notifies *)
  steal_count : int Atomic.t;
  seed : int64;
  tree : tree option;
  topo : topo_info option;
  trace_on : bool;
  trace_capacity : int;
}

type handle = {
  pool_slot : int;
  rng : Cpool_util.Rng.t;
  stats : Mc_stats.t; (* its ring is [Mc_trace.disabled] unless the pool traces *)
  mutable hunt_probes : int; (* segments examined since the current hunt began *)
  mutable active : bool;
  mutable last_found : int;
  mutable last_leaf : int;
  mutable my_round : int;
  mutable started : bool;
  mutable pass_tick : int; (* aware search passes so far; drives escalation *)
  mutable spin_budget : int; (* failed passes to spin through before parking *)
}

(* The spin before parking adapts to how soon parks end. After a long
   idle period a searcher spins [park_spin_min] failed passes (about a
   microsecond) and parks: a woken worker often lands on the core of the
   thread that woke it, which then waits out that spin (512 spins put app
   pings at 35-40 us, 16 at 15-18 us). But while parks keep ending within
   [short_park_ns], work is arriving faster than a park and wake pay off,
   and every wake is a chance for the scheduler to stack the woken thread
   onto its waker's core: the budget doubles, up to [park_spin_max], so a
   searcher under dense arrivals stays awake on its own core. *)
let park_spin_min = 16

let park_spin_max = 2048

let short_park_ns = 50_000

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

(* Busy-wait for [ns] nanoseconds: the emulated latency of a remote access
   on the synthetic topology (real NUMA stalls the core too, it does not
   yield). A plain loop on the monotonic clock, never called under a lock. *)
let spin_ns ns =
  if ns > 0 then begin
    let deadline = Cpool_util.Clock.now_ns () + ns in
    while Cpool_util.Clock.now_ns () < deadline do
      Domain.cpu_relax ()
    done
  end

let make_topo_info ~segments ~tree ~aware topology =
  if Cpool_topology.nodes topology <> segments then
    invalid_arg
      (Printf.sprintf
         "Mc_pool.of_config: topology describes %d nodes but the pool has %d \
          segments"
         (Cpool_topology.nodes topology) segments);
  let order =
    Array.init segments (fun s ->
        if aware then Cpool_topology.near_first_order topology ~from:s
        else Array.init segments (fun i -> (s + i) mod segments))
  in
  let spans =
    Array.init segments (fun s ->
        if aware then Cpool_topology.distance_spans topology ~from:s order.(s)
        else [])
  in
  let far =
    Array.init segments (fun i ->
        Array.init segments (fun j -> not (Cpool_topology.near topology i j)))
  in
  let near_len =
    (* The near-first order puts the slot's whole group (own slot included)
       in a prefix; its length is where near-only passes stop probing. *)
    Array.init segments (fun s ->
        Array.fold_left (fun n j -> if far.(s).(j) then n else n + 1) 0 order.(s))
  in
  let unit_ns = float_of_int (Cpool_topology.unit_ns topology) in
  let delay_ns =
    Array.init segments (fun i ->
        Array.init segments (fun j ->
            let d = Cpool_topology.distance topology ~from:i ~to_:j in
            int_of_float (Float.round ((d -. 1.0) *. unit_ns))))
  in
  let seg_of_leaf, leaf_of_seg =
    match tree with
    | Some tr when aware ->
      (* Cluster each locality group on a contiguous leaf range so the
         Manber subtrees coincide with sockets: a searcher exhausts its
         own group's subtree before the round structure walks it across. *)
      let placement = Cpool_topology.group_major_order topology in
      let sol = Array.make tr.leaves (-1) in
      Array.iteri (fun pos s -> sol.(pos) <- s) placement;
      let los = Array.make segments 0 in
      Array.iteri (fun pos s -> if s >= 0 then los.(s) <- pos) sol;
      (sol, los)
    | _ -> ([||], [||])
  in
  { topology; aware; far; delay_ns; order; near_len; spans; seg_of_leaf; leaf_of_seg }

module Config = struct
  type t = {
    segments : int;
    kind : kind;
    seed : int64;
    capacity : int option;
    fast_path : bool;
    trace : bool;
    trace_capacity : int;
    topology : Cpool_topology.t option;
    topology_aware : bool;
  }

  let default =
    {
      segments = 1;
      kind = Linear;
      seed = 42L;
      capacity = None;
      fast_path = true;
      trace = false;
      trace_capacity = 8192;
      topology = None;
      topology_aware = true;
    }
end

let of_config (c : Config.t) =
  let { Config.segments; kind; seed; capacity; fast_path; trace; trace_capacity;
        topology; topology_aware } = c in
  if segments <= 0 then
    invalid_arg "Mc_pool.of_config: segments must be positive";
  (match capacity with
  | Some c when c <= 0 ->
    invalid_arg "Mc_pool.of_config: capacity must be positive"
  | Some _ | None -> ());
  if trace_capacity <= 0 then
    invalid_arg "Mc_pool.of_config: trace_capacity must be positive";
  (* The hint board of the paper's Section 5 lives in the simulator only:
     once every kind parks idle searchers, it buys nothing on real cores. *)
  if kind = Hinted then
    invalid_arg "Mc_pool.of_config: Hinted is simulator-only (use Linear, Random or Tree)";
  let tree =
    match kind with
    | Tree ->
      let leaves = next_pow2 segments 1 in
      Some
        {
          leaves;
          rounds = Array.init ((2 * leaves) - 1) (fun _ -> Atomic.make 0);
          node_locks = Array.init (max 0 (leaves - 1)) (fun _ -> Mutex.create ());
        }
    | Linear | Random | Hinted -> None
  in
  let topo =
    Option.map (make_topo_info ~segments ~tree ~aware:topology_aware) topology
  in
  {
    pool_kind = kind;
    bound = capacity;
    segs = Array.init segments (fun id -> Mc_segment.make ?capacity ~fast_path ~id ());
    registration = Mutex.create ();
    claimed = Array.make segments false;
    handle_stats = [];
    searching = Atomic.make 0;
    registered = Atomic.make 0;
    idle = Mc_park.create ();
    steal_count = Atomic.make 0;
    seed;
    tree;
    topo;
    trace_on = trace;
    trace_capacity;
  }

let segments t = Array.length t.segs

let kind t = t.pool_kind

let topology t = Option.map (fun ti -> ti.topology) t.topo

let topology_aware t = match t.topo with Some ti -> ti.aware | None -> false

(* Leaf-position <-> segment translation for the Tree walk. Identity unless
   the pool is topology-aware (then leaves follow the group-major
   placement); [h.last_leaf] always holds a leaf {e position}. *)
let leaf_pos t s =
  match t.topo with
  | Some ti when Array.length ti.leaf_of_seg > 0 -> ti.leaf_of_seg.(s)
  | _ -> s

let leaf_seg t p j =
  match t.topo with
  | Some ti when Array.length ti.seg_of_leaf > 0 -> ti.seg_of_leaf.(j)
  | _ -> if j < p then j else -1

let shuffle_span rng a off len =
  for i = len - 1 downto 1 do
    let j = Cpool_util.Rng.int rng (i + 1) in
    let tmp = a.(off + i) in
    a.(off + i) <- a.(off + j);
    a.(off + j) <- tmp
  done

let mk_handle t slot =
  {
    pool_slot = slot;
    rng = Cpool_util.Rng.create (Int64.add t.seed (Int64.of_int slot));
    stats =
      Mc_stats.create
        ~ring:
          (if t.trace_on then Mc_trace.create ~capacity:t.trace_capacity ~domain:slot ()
           else Mc_trace.disabled)
        ();
    hunt_probes = 0;
    active = true;
    last_found = slot;
    last_leaf = leaf_pos t slot;
    my_round = 1;
    started = false;
    pass_tick = 0;
    spin_budget = park_spin_min;
  }

let probe_order t ~slot =
  let p = Array.length t.segs in
  if slot < 0 || slot >= p then invalid_arg "Mc_pool.probe_order: slot out of range";
  match (t.pool_kind, t.topo) with
  | Tree, Some ti when ti.aware && Array.length ti.seg_of_leaf > 0 ->
    let out = Array.make p 0 in
    let k = ref 0 in
    Array.iter
      (fun s ->
        if s >= 0 then begin
          out.(!k) <- s;
          incr k
        end)
      ti.seg_of_leaf;
    out
  | Random, Some ti when ti.aware ->
    (* A representative draw: the same span shuffle a searcher on [slot]
       performs, seeded like its handle rng. *)
    let base = Array.copy ti.order.(slot) in
    let rng = Cpool_util.Rng.create (Int64.add t.seed (Int64.of_int slot)) in
    List.iter (fun (off, len) -> shuffle_span rng base off len) ti.spans.(slot);
    base
  | _, Some ti -> Array.copy ti.order.(slot)
  | _, None -> Array.init p (fun i -> (slot + i) mod p)

(* The one place the registration mutex is taken: every caller goes through
   here so the lock is released even when the body raises (slot scans and
   range checks do). *)
let with_registration t f =
  Mutex.lock t.registration;
  match f () with
  | v ->
    Mutex.unlock t.registration;
    v
  | exception e ->
    Mutex.unlock t.registration;
    raise e

let claim t pick =
  let h =
    with_registration t (fun () ->
        let slot = pick () in
        t.claimed.(slot) <- true;
        let h = mk_handle t slot in
        t.handle_stats <- h.stats :: t.handle_stats;
        h)
  in
  Atomic.incr t.registered;
  h

let register t =
  claim t (fun () ->
      let rec scan i =
        if i = Array.length t.claimed then failwith "Mc_pool.register: all slots claimed"
        else if not t.claimed.(i) then i
        else scan (i + 1)
      in
      scan 0)

let register_at t i =
  claim t (fun () ->
      if i < 0 || i >= Array.length t.claimed then
        invalid_arg "Mc_pool.register_at: slot out of range";
      if t.claimed.(i) then invalid_arg "Mc_pool.register_at: slot already claimed";
      i)

let slot h = h.pool_slot

let deregister t h =
  with_registration t (fun () ->
      if not h.active then
        invalid_arg "Mc_pool.deregister: handle already deregistered";
      h.active <- false;
      (* Release the slot, or register/deregister churn leaks slots until
         every registration fails with "all slots claimed". *)
      t.claimed.(h.pool_slot) <- false);
  Atomic.decr t.registered;
  (* One fewer active worker may be what makes the parked ones quiescent. *)
  Mc_park.notify t.idle

let claimed_count t =
  with_registration t (fun () ->
      Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 t.claimed)

let registered t = Atomic.get t.registered

let place t h x =
  match t.bound with
  | None ->
    Mc_segment.add t.segs.(h.pool_slot) x;
    Mc_stats.note_add h.stats ~a1:h.pool_slot ~size:Mc_segment.size t.segs.(h.pool_slot);
    true
  | Some _ ->
    if Mc_segment.try_add t.segs.(h.pool_slot) x then begin
      Mc_stats.note_add h.stats ~a1:h.pool_slot ~size:Mc_segment.size t.segs.(h.pool_slot);
      true
    end
    else begin
      (* Spill around the ring to the first segment with room. *)
      let p = Array.length t.segs in
      let rec spill i =
        if i = p then begin
          Mc_stats.note_add_fail h.stats;
          false
        end
        else begin
          (* Foreign segments take spill traffic through their inbox
             ([spill_add]); only the owning domain may touch a ring. *)
          let pos =
            match t.topo with
            | Some ti when ti.aware -> ti.order.(h.pool_slot).(i)
            | _ -> (h.pool_slot + i) mod p
          in
          if Mc_segment.spare t.segs.(pos) > 0 && Mc_segment.spill_add t.segs.(pos) x
          then begin
            (match t.topo with
            | Some ti -> spin_ns ti.delay_ns.(h.pool_slot).(pos)
            | None -> ());
            Mc_stats.note_spill h.stats ~a1:pos ~size:Mc_segment.size t.segs.(pos);
            true
          end
          else spill (i + 1)
        end
      in
      spill 1
    end

(* Every placement, local or spilled, is an element a parked searcher may
   be waiting for. *)
let try_add t h x =
  let placed = place t h x in
  if placed then Mc_park.notify t.idle;
  placed

let add t h x = if not (try_add t h x) then failwith "Mc_pool.add: pool is full"

let try_remove_local t h =
  let seg = t.segs.(h.pool_slot) in
  let ring = Mc_stats.ring h.stats in
  let traced = Mc_trace.enabled ring in
  (* The one event recorded straight into the ring: its counter is bumped
     inside the segment, on the segment's stats. The drain counters are
     owner-written plain fields and this handle IS the owner, so the
     before/after delta is exact, not racy: it detects whether this pop
     folded the spill inbox into the ring. *)
  let sstats = Mc_segment.stats seg in
  let drains0 = if traced then Mc_stats.inbox_drains sstats else 0 in
  let drained0 = if traced then Mc_stats.inbox_drained sstats else 0 in
  let r = Mc_segment.try_remove seg in
  if traced && Mc_stats.inbox_drains sstats > drains0 then
    Mc_trace.record ring Mc_trace.Mpsc_drain ~a1:h.pool_slot
      ~a2:(Mc_stats.inbox_drained sstats - drained0);
  match r with
  | Some x ->
    Mc_stats.note_local_remove h.stats ~a1:h.pool_slot ~size:Mc_segment.size seg;
    Some x
  | None -> None

let record_steal t h pos ~elements =
  Atomic.incr t.steal_count;
  h.last_found <- pos;
  h.last_leaf <- leaf_pos t pos;
  (* The transfer-size sample lives on the thief's handle (single writer);
     the victim segment cannot record it without a serialization point. *)
  Mc_stats.note_steal_batch h.stats elements;
  (match t.topo with
  | None -> ()
  | Some ti ->
    Mc_stats.note_steal_locality h.stats ~far:ti.far.(h.pool_slot).(pos)
      ~elements;
    (* Moving [elements] elements out of a remote segment is [elements]
       remote accesses on the synthetic machine. *)
    spin_ns (ti.delay_ns.(h.pool_slot).(pos) * elements));
  Mc_stats.note_steal h.stats ~a1:pos ~probes:h.hunt_probes ~elements;
  h.hunt_probes <- 0

(* Examine segment [pos]; on success bank the steal's remainder into our own
   segment and return the element. On a bounded pool the room is reserved
   before the steal, so the bank always fits and no segment ever exceeds its
   capacity — the seed version sized the take from an unlocked [spare] read
   and then deposited unconditionally, so two racing thieves (or a thief
   racing spill-adds) could overfill a segment. *)
let attempt_steal t h pos =
  let victim = t.segs.(pos) in
  h.hunt_probes <- h.hunt_probes + 1;
  (match t.topo with
  | None -> ()
  | Some ti ->
    (* Probing a remote segment pays the emulated latency before the size
       read lands, aware or not — the topology is the machine, the probe
       order is the policy. *)
    let d = ti.delay_ns.(h.pool_slot).(pos) in
    Mc_stats.note_probe_locality h.stats ~far:ti.far.(h.pool_slot).(pos) ~a1:pos ~a2:d;
    spin_ns d);
  let vsize = Mc_segment.size victim in
  Mc_stats.note_probe h.stats ~a1:pos ~a2:vsize;
  if vsize = 0 then None
  else
    match t.bound with
    | None -> (
      match Mc_segment.steal_half victim with
      | Cpool.Steal.Nothing -> None
      | Cpool.Steal.Single x ->
        record_steal t h pos ~elements:1;
        Some x
      | Cpool.Steal.Batch (x, rest) ->
        (match Mc_segment.deposit t.segs.(h.pool_slot) rest with
        | [] -> ()
        | _ :: _ -> assert false (* unbounded deposit never rejects *));
        record_steal t h pos ~elements:(1 + List.length rest);
        (* The banked remainder is stealable work for another idler. *)
        Mc_park.notify t.idle;
        Some x)
    | Some _ ->
      let own = t.segs.(h.pool_slot) in
      let want = (Mc_segment.size victim + 1) / 2 in
      let reserved = Mc_segment.reserve own (max 0 (want - 1)) in
      (match Mc_segment.steal_half ~max_take:(reserved + 1) victim with
      | Cpool.Steal.Nothing ->
        Mc_segment.refill own ~reserved [];
        None
      | Cpool.Steal.Single x ->
        Mc_segment.refill own ~reserved [];
        record_steal t h pos ~elements:1;
        Some x
      | Cpool.Steal.Batch (x, rest) ->
        Mc_segment.refill own ~reserved rest;
        record_steal t h pos ~elements:(1 + List.length rest);
        Mc_park.notify t.idle;
        Some x)

(* One full deterministic pass over every segment; the confirmation step
   before reporting the pool empty. *)
let sweep t h =
  Mc_stats.note_sweep h.stats ~a1:h.pool_slot;
  let p = Array.length t.segs in
  let seg_at =
    (* Aware sweeps also go near-first: both orders start at the sweeper's
       own slot, so the empty-confirmation coverage is identical. *)
    match t.topo with
    | Some ti when ti.aware -> fun i -> ti.order.(h.pool_slot).(i)
    | _ -> fun i -> (h.pool_slot + i) mod p
  in
  let rec go i =
    if i = p then None
    else
      match attempt_steal t h (seg_at i) with
      | Some x -> Some x
      | None -> go (i + 1)
  in
  go 0

let with_node_lock tree v f =
  Mutex.lock tree.node_locks.(v);
  match f () with
  | r ->
    Mutex.unlock tree.node_locks.(v);
    r
  | exception e ->
    Mutex.unlock tree.node_locks.(v);
    raise e

(* Reluctant escalation: most aware search passes stay inside the
   searcher's locality group (the near prefix of its probe order) and only
   every [escalate_every]-th pass crosses the group boundary. Failed far
   probes are the dominant cost of a starved NUMA pool — every one stalls
   the core for the emulated remote latency — and a near-only pass can
   never conclude emptiness anyway: that is [sweep]'s job, and sweeps
   always cover every segment, so quiescence detection is unaffected. An
   element parked in a far segment is found at most [escalate_every - 1]
   passes late. *)
let escalate_every = 4

let pass_limit h ti =
  let tick = h.pass_tick in
  h.pass_tick <- tick + 1;
  if tick mod escalate_every = 0 then Array.length ti.order.(h.pool_slot)
  else ti.near_len.(h.pool_slot)

(* One algorithm-specific search pass; None does not mean empty, only that
   this pass failed. *)
let rec search_pass t h =
  let p = Array.length t.segs in
  let aware = match t.topo with Some ti -> ti.aware | None -> false in
  match t.pool_kind with
  (* [Hinted] never gets here: [of_config] rejects it. *)
  | (Linear | Hinted) when aware ->
    (* Near-first scan: own slot, then ascending distance. The aware order
       replaces the last-found restart — locality beats the temporal hint
       on a machine where far probes cost real latency. *)
    let ti = Option.get t.topo in
    let ord = ti.order.(h.pool_slot) in
    let limit = pass_limit h ti in
    let rec go i =
      if i = limit then None
      else
        match attempt_steal t h ord.(i) with
        | Some x -> Some x
        | None -> go (i + 1)
    in
    go 0
  | Linear | Hinted ->
    let rec ring i =
      if i = p then None
      else
        match attempt_steal t h ((h.last_found + i) mod p) with
        | Some x -> Some x
        | None -> ring (i + 1)
    in
    ring 0
  | Random when aware ->
    (* Still randomized, but only within each distance bucket: every full
       pass probes a permutation of all segments, near buckets before far
       (near-only passes stop at the group boundary). *)
    let ti = Option.get t.topo in
    let ord = Array.copy ti.order.(h.pool_slot) in
    List.iter
      (fun (off, len) -> shuffle_span h.rng ord off len)
      ti.spans.(h.pool_slot);
    let limit = pass_limit h ti in
    let rec go i =
      if i = limit then None
      else
        match attempt_steal t h ord.(i) with
        | Some x -> Some x
        | None -> go (i + 1)
    in
    go 0
  | Random ->
    let rec probe i =
      if i = p then None
      else
        match attempt_steal t h (Cpool_util.Rng.int h.rng p) with
        | Some x -> Some x
        | None -> probe (i + 1)
    in
    probe 0
  | Tree when aware -> (
    let ti = Option.get t.topo in
    let limit = pass_limit h ti in
    if limit < p then begin
      (* Near-only pass: under the group-major leaf placement the
         searcher's subtree is exactly its locality group, so a
         within-group pass is the near prefix scan; the round protocol
         only matters for whole-tree emptiness claims, which near passes
         never make. *)
      let ord = ti.order.(h.pool_slot) in
      let rec go i =
        if i = limit then None
        else
          match attempt_steal t h ord.(i) with
          | Some x -> Some x
          | None -> go (i + 1)
      in
      go 0
    end
    else tree_pass t h)
  | Tree -> tree_pass t h

(* Manber's walk, one round: returns when an element is found or when this
   process concludes the whole tree is empty for its round. *)
and tree_pass t h =
  let tree = match t.tree with Some tree -> tree | None -> assert false in
  let p = Array.length t.segs in
  let leaf_index j = tree.leaves - 1 + j in
  let span i =
    let rec depth i acc = if i = 0 then acc else depth ((i - 1) / 2) (acc + 1) in
    tree.leaves lsr depth i 0
  in
  let rec visit_leaf j =
    (* [j] is a leaf position; the segment living there follows the
       group-major placement when the pool is topology-aware (identity
       otherwise), so each subtree covers one locality group. *)
    h.last_leaf <- j;
    let s = leaf_seg t p j in
    match if s >= 0 then attempt_steal t h s else None with
    | Some x -> Some x
    | None ->
      if tree.leaves = 1 then begin
        h.my_round <- h.my_round + 1;
        None
      end
      else ascend ((leaf_index j - 1) / 2) (leaf_index j)
  and ascend v child =
    let left = (2 * v) + 1 and right = (2 * v) + 2 in
    (* Decide under the node lock, recurse after releasing it — the same
       lock scope as the hand-over-hand original, but exception-safe. *)
    let decision =
      with_node_lock tree v (fun () ->
          let left_round = Atomic.get tree.rounds.(left) in
          let right_round = Atomic.get tree.rounds.(right) in
          let newest = max left_round right_round in
          if newest > h.my_round then `Restart newest
          else begin
            Atomic.set tree.rounds.(child) h.my_round;
            `Sibling (if child = left then right_round else left_round)
          end)
    in
    match decision with
    | `Restart newest ->
      h.my_round <- newest;
      visit_leaf (leaf_pos t h.pool_slot)
    | `Sibling sibling_round ->
      if sibling_round = h.my_round then
        if v = 0 then begin
          (* Whole tree empty this round: the pass ends. *)
          h.my_round <- h.my_round + 1;
          None
        end
        else ascend ((v - 1) / 2) v
      else visit_leaf (h.last_leaf lxor span child)
  in
  let start =
    if h.started then h.last_leaf
    else begin
      h.started <- true;
      leaf_pos t h.pool_slot
    end
  in
  visit_leaf start

let try_remove t h =
  h.hunt_probes <- 0;
  match try_remove_local t h with
  | Some x -> Some x
  | None -> (
    match search_pass t h with
    | Some x -> Some x
    | None -> sweep t h)

let quiescent t = Atomic.get t.searching >= Atomic.get t.registered

(* The parker's re-check, made after it registers as a sleeper: work
   anywhere, or nobody left to add any. *)
let idle_ready t () =
  quiescent t || Array.exists (fun s -> Mc_segment.size s > 0) t.segs

(* One attempt to block on the pool's eventcount until work or quiescence
   may be visible. [Park] and [Wake] bracket each actual block, so they
   balance whenever no searcher is asleep. *)
let park t h =
  let on_block () = Mc_stats.note_park h.stats ~a1:h.pool_slot in
  if Mc_park.park ~on_block t.idle ~ready:(idle_ready t) then
    Mc_stats.note_wake h.stats ~a1:h.pool_slot

(* The blocking search, one loop for every kind: search passes, a short
   spin, then park until an element becomes visible or every registered
   worker is searching — at which point a clean sweep proves the pool
   empty and wakes every sleeper to conclude the same. *)
let hunt t h =
  let rec go spins =
    match search_pass t h with
    | Some x -> Some x
    | None when quiescent t -> (
      match sweep t h with
      | Some x -> Some x
      | None ->
        Mc_stats.note_empty_confirm h.stats;
        Mc_park.notify t.idle;
        None)
    | None when spins < h.spin_budget ->
      Mc_stats.note_spin h.stats;
      Domain.cpu_relax ();
      go (spins + 1)
    | None -> (
      let parked_at = Cpool_util.Clock.now_ns () in
      park t h;
      h.spin_budget <-
        (if Cpool_util.Clock.now_ns () - parked_at < short_park_ns then
           min park_spin_max (2 * h.spin_budget)
         else park_spin_min);
      match try_remove_local t h with Some x -> Some x | None -> go 0)
  in
  go 0

let remove t h =
  h.hunt_probes <- 0;
  match try_remove_local t h with
  | Some x -> Some x
  | None ->
    Atomic.incr t.searching;
    (* A parked searcher keeps this increment: "searching empty" is
       exactly what parking means, so quiescence detection stays exact. *)
    let result = hunt t h in
    Atomic.decr t.searching;
    result

let size t = Array.fold_left (fun acc s -> acc + Mc_segment.size s) 0 t.segs

let segment_sizes t = Array.map Mc_segment.size t.segs

let steals t = Atomic.get t.steal_count

let stats_of_handle h = h.stats

let tracing t = t.trace_on

let trace_of_handle h = Mc_stats.ring h.stats

let traces t =
  if t.trace_on then List.map Mc_stats.ring (with_registration t (fun () -> t.handle_stats))
  else []

let segment_stats t =
  Array.map (fun s -> Mc_segment.stats s) t.segs

let stats t =
  let all = with_registration t (fun () -> t.handle_stats) in
  (* Handle stats carry the search-side counters, segment stats the
     path-side ones; the field sets are disjoint, so merging double-counts
     nothing. *)
  let merged = Mc_stats.merge_all all in
  Array.fold_left (fun acc s -> Mc_stats.merge acc (Mc_segment.stats s)) merged t.segs

let check_segments t = Array.for_all Mc_segment.invariant_ok t.segs
