(* Measurement helpers shared by every workload: sample buffers with exact
   percentiles, medians, and the metric table the result line is printed
   from. All timing goes through the repository's monotonic clock. *)

let now_ns = Cpool_util.Clock.now_ns

let ms_of_ns ns = float_of_int ns /. 1e6

(* A growable buffer of integer samples, written by one domain and read
   after that domain has been joined. *)
module Samples = struct
  type t = { mutable data : int array; mutable len : int }

  let create n = { data = Array.make (max 16 n) 0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let length t = t.len

  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort Int.compare a;
    a

  (* Nearest-rank percentile; [nan] without samples. *)
  let pct_of_sorted a p =
    let n = Array.length a in
    if n = 0 then nan
    else
      let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      float_of_int a.(max 0 (min (n - 1) (k - 1)))

  let pct t p = pct_of_sorted (sorted t) p
end

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [time f] is [(f (), elapsed ns)]. *)
let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections

(* The metrics of one run, in insertion order. A value that could not be
   measured (no samples of that kind in this run) is reported as 0. *)
module Metrics = struct
  type t = (string * float * string) list ref

  let create () : t = ref []
  let add (t : t) name unit v = t := (name, v, unit) :: !t
  let to_list (t : t) = List.rev !t

  let json_number v =
    if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

  let json_object ~correct ~attempted ~failed (t : t) =
    let metric (name, v, unit) =
      Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
    in
    Printf.sprintf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      correct attempted failed
      (String.concat ", " (List.map metric (to_list t)))
end
