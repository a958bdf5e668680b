type tag =
  | Add
  | Remove
  | Spill
  | Steal_probe
  | Steal_claim
  | Sweep
  | Park
  | Wake
  | Mpsc_drain
  | Far_probe

let all_tags =
  [
    Add; Remove; Spill; Steal_probe; Steal_claim; Sweep; Park; Wake;
    Mpsc_drain; Far_probe;
  ]

let tag_index = function
  | Add -> 0
  | Remove -> 1
  | Spill -> 2
  | Steal_probe -> 3
  | Steal_claim -> 4
  | Sweep -> 5
  | Park -> 6
  | Wake -> 7
  | Mpsc_drain -> 8
  | Far_probe -> 9

let tag_of_index = function
  | 0 -> Add
  | 1 -> Remove
  | 2 -> Spill
  | 3 -> Steal_probe
  | 4 -> Steal_claim
  | 5 -> Sweep
  | 6 -> Park
  | 7 -> Wake
  | 8 -> Mpsc_drain
  | 9 -> Far_probe
  | _ -> invalid_arg "Mc_trace.tag_of_index"

let tag_name = function
  | Add -> "add"
  | Remove -> "remove"
  | Spill -> "spill"
  | Steal_probe -> "steal-probe"
  | Steal_claim -> "steal-claim"
  | Sweep -> "sweep"
  | Park -> "park"
  | Wake -> "wake"
  | Mpsc_drain -> "mpsc-drain"
  | Far_probe -> "far-probe"

type t = {
  on : bool;
  dom : int;
  cap : int; (* ring slots, a power of two; 0 only for [disabled] *)
  mask : int;
  ts : int array;
  tg : int array;
  p1 : int array;
  p2 : int array;
  mutable head : int; (* records ever written; slot = head land mask *)
}

let rec pow2 n k = if k >= n then k else pow2 n (2 * k)

let create ?(capacity = 8192) ~domain () =
  if capacity <= 0 then invalid_arg "Mc_trace.create: capacity must be positive";
  let cap = pow2 capacity 1 in
  (* Padded like Mc_stats: a tracer's hot stores must not false-share with
     its neighbour domain's. *)
  Cpool_util.Pad.copy_as_padded
    {
      on = true;
      dom = domain;
      cap;
      mask = cap - 1;
      ts = Array.make cap 0;
      tg = Array.make cap 0;
      p1 = Array.make cap 0;
      p2 = Array.make cap 0;
      head = 0;
    }

let disabled =
  {
    on = false;
    dom = -1;
    cap = 0;
    mask = 0;
    ts = [||];
    tg = [||];
    p1 = [||];
    p2 = [||];
    head = 0;
  }

let enabled t = t.on

let domain t = t.dom

let capacity t = t.cap

let record t tag ~a1 ~a2 =
  if t.on then begin
    let i = t.head land t.mask in
    t.ts.(i) <- Cpool_util.Clock.now_ns ();
    t.tg.(i) <- tag_index tag;
    t.p1.(i) <- a1;
    t.p2.(i) <- a2;
    t.head <- t.head + 1
  end

let recorded t = t.head

let dropped t = max 0 (t.head - t.cap)

type event = { ts_ns : int; ev_domain : int; tag : tag; a1 : int; a2 : int }

let events t =
  let n = min t.head t.cap in
  List.init n (fun k ->
      let i = (t.head - n + k) land t.mask in
      {
        ts_ns = t.ts.(i);
        ev_domain = t.dom;
        tag = tag_of_index t.tg.(i);
        a1 = t.p1.(i);
        a2 = t.p2.(i);
      })

let merge tracers =
  let all = List.concat_map events tracers in
  List.stable_sort
    (fun a b ->
      match compare a.ts_ns b.ts_ns with
      | 0 -> compare a.ev_domain b.ev_domain
      | c -> c)
    all

let total_recorded tracers = List.fold_left (fun acc t -> acc + recorded t) 0 tracers

let total_dropped tracers = List.fold_left (fun acc t -> acc + dropped t) 0 tracers

(* ---- exporters --------------------------------------------------------- *)

module J = Cpool_util.Json

(* A size observation: which segment's occupancy did this event see? *)
let observed_size e =
  match e.tag with
  | Add | Remove | Spill | Steal_probe -> Some (e.a1, e.a2)
  | Steal_claim | Sweep | Park | Wake | Mpsc_drain | Far_probe -> None

let chrome_us ~t0 e = float_of_int (e.ts_ns - t0) /. 1e3

let chrome_instant ~pid ~t0 e =
  J.Assoc
    [
      ("name", J.Str (tag_name e.tag));
      ("cat", J.Str "mcpool");
      ("ph", J.Str "i");
      ("s", J.Str "t");
      ("ts", J.Float (chrome_us ~t0 e));
      ("pid", J.Int pid);
      ("tid", J.Int e.ev_domain);
      ("args", J.Assoc [ ("a1", J.Int e.a1); ("a2", J.Int e.a2) ]);
    ]

let chrome_counter ~pid ~t0 e ~seg ~size =
  J.Assoc
    [
      ("name", J.Str (Printf.sprintf "seg%d size" seg));
      ("cat", J.Str "mcpool");
      ("ph", J.Str "C");
      ("ts", J.Float (chrome_us ~t0 e));
      ("pid", J.Int pid);
      ("tid", J.Int e.ev_domain);
      ("args", J.Assoc [ ("size", J.Int size) ]);
    ]

let process_name ~pid label =
  J.Assoc
    [
      ("name", J.Str "process_name");
      ("cat", J.Str "__metadata");
      ("ph", J.Str "M");
      ("ts", J.Float 0.0);
      ("pid", J.Int pid);
      ("tid", J.Int 0);
      ("args", J.Assoc [ ("name", J.Str label) ]);
    ]

let to_chrome groups =
  let merged = List.mapi (fun i (label, tracers) -> (i + 1, label, merge tracers)) groups in
  let t0 =
    List.fold_left
      (fun acc (_, _, events) ->
        List.fold_left (fun acc e -> min acc e.ts_ns) acc events)
      max_int merged
  in
  let events =
    List.concat_map
      (fun (pid, label, events) ->
        process_name ~pid label
        :: List.concat_map
            (fun e ->
              let instant = chrome_instant ~pid ~t0 e in
              match observed_size e with
              | Some (seg, size) -> [ instant; chrome_counter ~pid ~t0 e ~seg ~size ]
              | None -> [ instant ])
            events)
      merged
  in
  J.Assoc [ ("traceEvents", J.List events); ("displayTimeUnit", J.Str "ns") ]

let validate_chrome doc =
  let ( let* ) = Result.bind in
  let* events =
    match J.member "traceEvents" doc with
    | Some (J.List es) -> Ok es
    | Some _ -> Error "field \"traceEvents\" is not a list"
    | None -> Error "missing field \"traceEvents\""
  in
  let str_field i ev name =
    match J.member name ev with
    | Some (J.Str _) -> Ok ()
    | Some _ | None ->
      Error (Printf.sprintf "event %d: missing string field %S" i name)
  in
  let num_field i ev name =
    match J.member name ev with
    | Some v -> (
      match J.to_number v with
      | Some _ -> Ok ()
      | None -> Error (Printf.sprintf "event %d: field %S is not a number" i name))
    | None -> Error (Printf.sprintf "event %d: missing numeric field %S" i name)
  in
  let rec check i = function
    | [] -> Ok (List.length events)
    | ev :: rest ->
      let* () = str_field i ev "name" in
      let* () = str_field i ev "ph" in
      let* () = num_field i ev "ts" in
      let* () = num_field i ev "pid" in
      let* () = num_field i ev "tid" in
      check (i + 1) rest
  in
  check 0 events

let size_series ~segments tracers =
  let trace = Cpool_metrics.Trace.create ~segments in
  let merged = merge tracers in
  let t0 = match merged with [] -> 0 | e :: _ -> e.ts_ns in
  List.iter
    (fun e ->
      match observed_size e with
      | Some (seg, size) ->
        Cpool_metrics.Trace.record trace
          ~time:(float_of_int (e.ts_ns - t0) *. 1e-9)
          ~seg ~size
      | None -> ())
    merged;
  trace
