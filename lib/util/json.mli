(** Minimal JSON: enough to write and re-validate benchmark artefacts
    ([BENCH_*.json]) without an external dependency.

    {!to_string} emits pretty-printed, standards-valid JSON (non-finite
    floats become [null]); {!parse} is a strict recursive-descent reader of
    the full JSON grammar that round-trips everything {!to_string}
    produces. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Assoc of (string * t) list

val to_string : t -> string
(** [to_string v] renders [v] with two-space indentation and a trailing
    newline. NaN and infinite floats are emitted as [null]. *)

val parse : string -> (t, string) result
(** [parse s] reads one JSON value spanning all of [s] (trailing whitespace
    allowed). Numbers without [.]/[e] parse as [Int], others as [Float];
    the error string carries the byte offset of the failure. *)

val member : string -> t -> t option
(** [member key v] is field [key] of an [Assoc], else [None]. *)

val to_list : t -> t list option

val to_number : t -> float option
(** [to_number v] is the numeric value of an [Int] or [Float]. *)

(** {2 Validator helpers} *)

val field : string -> t -> (t, string) result
(** [field key v] is {!member} as a result: [Error "missing field \"key\""]
    when absent — the message every artifact validator reports. *)

val number : string -> t -> (float, string) result
(** [number key v] is field [key] through {!to_number}, with an error
    naming the field when it is missing or not numeric. *)
