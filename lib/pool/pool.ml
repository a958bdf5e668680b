open Cpool_sim

(* The shared algorithm type: one [kind] for the simulated and the real
   pool, re-exported so [Pool.Linear] etc. keep compiling. *)
type kind = Cpool_intf.kind = Linear | Random | Tree | Hinted

let all_kinds = Cpool_intf.all

type config = {
  segments : int;
  kind : kind;
  profile : Segment.profile;
  add_overhead : float;
  remove_overhead : float;
  remote_op_delay : float;
  capacity : int option;
  locking_probes : bool;
}

let default_config =
  {
    segments = 16;
    kind = Linear;
    profile = Segment.Counting;
    add_overhead = 64.0;
    remove_overhead = 102.0;
    remote_op_delay = 0.0;
    capacity = None;
    locking_probes = false;
  }

type 'a strategy =
  | Linear_search of 'a Search_linear.t
  | Random_search of 'a Search_random.t
  | Tree_search of 'a Search_tree.t
  | Hinted_search of 'a Search_hinted.t

type totals = {
  adds : int;
  removes : int;
  steals : int;
  aborts : int;
  spills : int;
  deliveries : int;
  rejected_adds : int;
  segments_examined : int;
  elements_stolen : int;
}

type 'a t = {
  cfg : config;
  segments : 'a Segment.t array;
  termination : Termination.t;
  strategy : 'a strategy;
  hints : Hints.t option;
  mutable stats : totals;
}

type 'a removal = Local of 'a | Stolen of 'a * Steal.stats | Empty of Steal.stats

type add_outcome = Added_locally | Spilled of int | Delivered of int | Rejected

let create ?(on_size_change = fun ~seg:_ ~size:_ -> ()) ?(home_of = Fun.id) (cfg : config) =
  if cfg.segments <= 0 then invalid_arg "Pool.create: segments must be positive";
  (match cfg.capacity with
  | Some c when c <= 0 -> invalid_arg "Pool.create: capacity must be positive"
  | Some _ | None -> ());
  let segments =
    Array.init cfg.segments (fun i ->
        Segment.make
          ~on_size_change:(fun size -> on_size_change ~seg:i ~size)
          ?capacity:cfg.capacity ~locking_probes:cfg.locking_probes ~home:(home_of i) ~id:i
          cfg.profile)
  in
  (* The shared searcher counters live with segment 0, like any other
     centralised word on the machine. *)
  let termination = Termination.create ~home:(home_of 0) in
  let hints =
    match cfg.kind with
    | Hinted -> Some (Hints.create ~home:(home_of 0) ~home_of ~participants:cfg.segments)
    | Linear | Random | Tree -> None
  in
  let strategy =
    let remote_op_delay = cfg.remote_op_delay in
    (* A bounded thief caps its take at its spare capacity plus the element
       it returns immediately; the spare is read uncosted because it is a
       sizing heuristic, not a correctness decision (deposits tolerate a
       racy overshoot). *)
    let max_take_for =
      match cfg.capacity with
      | None -> fun _ -> max_int
      | Some c -> fun me -> 1 + max 0 (c - Segment.size_free segments.(me))
    in
    match cfg.kind with
    | Linear ->
      Linear_search (Search_linear.create ~remote_op_delay ~max_take_for segments termination)
    | Random ->
      Random_search (Search_random.create ~remote_op_delay ~max_take_for segments termination)
    | Tree -> Tree_search (Search_tree.create ~remote_op_delay ~max_take_for segments termination)
    | Hinted ->
      let hints = match hints with Some h -> h | None -> assert false in
      Hinted_search
        (Search_hinted.create ~remote_op_delay ~max_take_for ~hints segments termination)
  in
  {
    cfg;
    segments;
    termination;
    strategy;
    hints;
    stats =
      {
        adds = 0;
        removes = 0;
        steals = 0;
        aborts = 0;
        spills = 0;
        deliveries = 0;
        rejected_adds = 0;
        segments_examined = 0;
        elements_stolen = 0;
      };
  }

let config t = t.cfg

let join t = Termination.join t.termination

let leave t = Termination.leave t.termination

let check_me t me name =
  if me < 0 || me >= t.cfg.segments then invalid_arg (name ^ ": participant out of range")

(* A hinted add first checks the waiter count; on a hit it claims a waiter
   and deposits straight into that searcher's segment. *)
let try_deliver t ~me x =
  match t.hints with
  | None -> None
  | Some hints ->
    if Hints.waiters_hint hints > 0 then begin
      match Hints.claim_waiter hints ~me with
      | Some w ->
        let target = t.segments.(w) in
        let delivered =
          match t.cfg.capacity with
          | None ->
            Segment.add target x;
            true
          | Some _ -> Segment.try_add target x
        in
        if delivered then begin
          t.stats <-
            { t.stats with adds = t.stats.adds + 1; deliveries = t.stats.deliveries + 1 };
          Some w
        end
        else
          (* The claimed waiter's segment is full (bounded pool): the hint
             is consumed without a delivery; the searcher just keeps
             searching. Fall through to the normal add path. *)
          None
      | None -> None
    end
    else None

let add_bounded t ~me x =
  check_me t me "Pool.add";
  Engine.delay t.cfg.add_overhead;
  match try_deliver t ~me x with
  | Some w -> Delivered w
  | None -> (
  match t.cfg.capacity with
  | None ->
    Segment.add t.segments.(me) x;
    t.stats <- { t.stats with adds = t.stats.adds + 1 };
    Added_locally
  | Some _ ->
    if Segment.try_add t.segments.(me) x then begin
      t.stats <- { t.stats with adds = t.stats.adds + 1 };
      Added_locally
    end
    else begin
      (* The local segment is full: spill around the ring to the first
         segment with spare capacity (probe costed, then a locked
         re-check, mirroring the steal search's probe-then-lock). *)
      let p = t.cfg.segments in
      let rec spill i =
        if i = p then begin
          t.stats <- { t.stats with rejected_adds = t.stats.rejected_adds + 1 };
          Rejected
        end
        else begin
          let pos = (me + i) mod p in
          if Segment.probe_spare t.segments.(pos) > 0 && Segment.try_add t.segments.(pos) x
          then begin
            t.stats <- { t.stats with adds = t.stats.adds + 1; spills = t.stats.spills + 1 };
            Spilled pos
          end
          else spill (i + 1)
        end
      in
      spill 1
    end)

let add t ~me x =
  match add_bounded t ~me x with
  | Added_locally | Spilled _ | Delivered _ -> ()
  | Rejected -> failwith "Pool.add: pool is full"

let run_search t ~me =
  match t.strategy with
  | Linear_search s -> Search_linear.search s ~me
  | Random_search s -> Search_random.search s ~me
  | Tree_search s -> Search_tree.search s ~me
  | Hinted_search s -> Search_hinted.search s ~me

let remove t ~me =
  check_me t me "Pool.remove";
  Engine.delay t.cfg.remove_overhead;
  match Segment.try_remove t.segments.(me) with
  | Some x ->
    t.stats <- { t.stats with removes = t.stats.removes + 1 };
    Local x
  | None -> (
    match run_search t ~me with
    | Steal.Found { element; rest; stats } ->
      Segment.deposit t.segments.(me) rest;
      t.stats <-
        {
          t.stats with
          removes = t.stats.removes + 1;
          steals = t.stats.steals + 1;
          segments_examined = t.stats.segments_examined + stats.segments_examined;
          elements_stolen = t.stats.elements_stolen + stats.elements_stolen;
        };
      Stolen (element, stats)
    | Steal.Aborted stats ->
      t.stats <-
        {
          t.stats with
          aborts = t.stats.aborts + 1;
          segments_examined = t.stats.segments_examined + stats.segments_examined;
        };
      Empty stats)

let prefill t f ~per_segment =
  if per_segment < 0 then invalid_arg "Pool.prefill: negative count";
  Array.iteri
    (fun i seg ->
      for k = 0 to per_segment - 1 do
        Segment.prefill_one seg (f ((i * per_segment) + k))
      done)
    t.segments

let prefill_segment t ~seg x =
  if seg < 0 || seg >= t.cfg.segments then
    invalid_arg "Pool.prefill_segment: out of range";
  Segment.prefill_one t.segments.(seg) x

let size_of_segment t i =
  if i < 0 || i >= t.cfg.segments then invalid_arg "Pool.size_of_segment: out of range";
  Segment.size_free t.segments.(i)

let total_size t = Array.fold_left (fun acc s -> acc + Segment.size_free s) 0 t.segments

let totals t = t.stats

let segment_lock_stats t i =
  if i < 0 || i >= t.cfg.segments then invalid_arg "Pool.segment_lock_stats: out of range";
  Segment.lock_stats t.segments.(i)
