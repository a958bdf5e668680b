(* Tests for the growable array underlying segments and work lists. *)

open Cpool_util

let test_empty () =
  let v : int Vec.t = Vec.create () in
  Alcotest.(check int) "length" 0 (Vec.length v);
  Alcotest.(check bool) "is_empty" true (Vec.is_empty v);
  Alcotest.(check bool) "pop none" true (Vec.pop v = None);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Vec.pop_exn: empty") (fun () ->
      ignore (Vec.pop_exn v))

let test_push_pop_order () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Vec.length v);
  Alcotest.(check (option int)) "lifo 3" (Some 3) (Vec.pop v);
  Alcotest.(check (option int)) "lifo 2" (Some 2) (Vec.pop v);
  Alcotest.(check (option int)) "lifo 1" (Some 1) (Vec.pop v);
  Alcotest.(check bool) "drained" true (Vec.is_empty v)

let test_of_list_to_list () =
  let v = Vec.of_list [ "a"; "b"; "c" ] in
  Alcotest.(check (list string)) "roundtrip" [ "a"; "b"; "c" ] (Vec.to_list v)

let test_get_set_bounds () =
  let v = Vec.of_list [ 10; 20 ] in
  Alcotest.(check int) "get" 20 (Vec.get v 1);
  Vec.set v 0 99;
  Alcotest.(check int) "set" 99 (Vec.get v 0);
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 2));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set: index out of bounds") (fun () ->
      Vec.set v (-1) 0)

let test_take_last () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "takes most recent first" [ 5; 4 ] (Vec.take_last v 2);
  Alcotest.(check int) "shrunk" 3 (Vec.length v);
  Alcotest.(check (list int)) "over-take clamps" [ 3; 2; 1 ] (Vec.take_last v 10);
  Alcotest.(check bool) "now empty" true (Vec.is_empty v)

let test_append_list_and_clear () =
  let v = Vec.create () in
  Vec.append_list v [ 1; 2 ];
  Vec.append_list v [ 3 ];
  Alcotest.(check (list int)) "appended" [ 1; 2; 3 ] (Vec.to_list v);
  Vec.clear v;
  Alcotest.(check bool) "cleared" true (Vec.is_empty v);
  Vec.push v 9;
  Alcotest.(check (list int)) "usable after clear" [ 9 ] (Vec.to_list v)

let test_iter_order () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  let seen = ref [] in
  Vec.iter (fun x -> seen := x :: !seen) v;
  Alcotest.(check (list int)) "index order" [ 1; 2; 3 ] (List.rev !seen)

let test_swap_remove () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "removes requested" 2 (Vec.swap_remove v 1);
  Alcotest.(check (list int)) "last swapped in" [ 1; 4; 3 ] (Vec.to_list v);
  Alcotest.(check int) "remove last" 3 (Vec.swap_remove v 2);
  Alcotest.(check (list int)) "tail removal" [ 1; 4 ] (Vec.to_list v);
  Alcotest.check_raises "oob" (Invalid_argument "Vec.swap_remove: index out of bounds")
    (fun () -> ignore (Vec.swap_remove v 5))

let test_growth () =
  let v = Vec.create () in
  for i = 1 to 10_000 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 10_000 (Vec.length v);
  Alcotest.(check int) "first" 1 (Vec.get v 0);
  Alcotest.(check int) "last" 10_000 (Vec.get v 9_999)

let prop_push_pop_roundtrip =
  QCheck.Test.make ~name:"pushes pop in reverse order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      let rec drain acc = match Vec.pop v with None -> acc | Some x -> drain (x :: acc) in
      drain [] = xs)

let prop_take_last_conserves =
  QCheck.Test.make ~name:"take_last conserves elements" ~count:200
    QCheck.(pair (list small_nat) small_nat)
    (fun (xs, k) ->
      let v = Vec.of_list xs in
      let taken = Vec.take_last v k in
      List.length taken = min k (List.length xs)
      && List.sort compare (taken @ Vec.to_list v) = List.sort compare xs)

(* Space-leak regression: pop/pop_exn/take_last/swap_remove/clear used to
   leave removed elements reachable from the backing array, keeping them
   alive until the slot was overwritten by a later push. Weak pointers see
   whether the GC can actually reclaim a removed element. *)
let test_removal_releases_references () =
  let v : int ref Vec.t = Vec.create () in
  let w = Weak.create 4 in
  (* No local bindings to the elements survive this block. *)
  (let fill slot =
     let r = ref slot in
     Weak.set w slot (Some r);
     Vec.push v r
   in
   List.iter fill [ 0; 1; 2; 3 ]);
  (* pop removes r3: [r0; r1; r2]. swap_remove 0 removes r0 and moves the
     last element into slot 0: [r2; r1]. take_last 1 removes r1: [r2]. *)
  ignore (Vec.pop v : int ref option);
  ignore (Vec.swap_remove v 0 : int ref);
  ignore (Vec.take_last v 1 : int ref list);
  Gc.full_major ();
  let collected slot = Weak.get w slot = None in
  Alcotest.(check bool) "popped element collected" true (collected 3);
  Alcotest.(check bool) "swap-removed element collected" true (collected 0);
  Alcotest.(check bool) "take_last element collected" true (collected 1);
  Alcotest.(check bool) "remaining element alive" false (collected 2);
  Alcotest.(check int) "one element left" 1 (Vec.length v);
  Vec.clear v;
  Gc.full_major ();
  Alcotest.(check bool) "cleared element collected" true (collected 2)

(* --- Json --- *)

let test_json_roundtrip () =
  let doc =
    Json.Assoc
      [
        ("n", Json.Int 42);
        ("x", Json.Float 1.5);
        ("neg", Json.Float (-0.25));
        ("s", Json.Str "he said \"hi\"\n\t\xe2\x9c\x93");
        ("flags", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("nested", Json.Assoc [ ("empty_list", Json.List []); ("empty_obj", Json.Assoc []) ]);
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Ok doc' -> Alcotest.(check bool) "round-trips" true (doc = doc')
  | Error e -> Alcotest.fail ("re-parse failed: " ^ e)

let test_json_nonfinite_floats_are_null () =
  let doc = Json.List [ Json.Float Float.nan; Json.Float Float.infinity ] in
  match Json.parse (Json.to_string doc) with
  | Ok (Json.List [ Json.Null; Json.Null ]) -> ()
  | Ok _ -> Alcotest.fail "expected [null, null]"
  | Error e -> Alcotest.fail e

let test_json_parse_numbers () =
  (match Json.parse "7" with
  | Ok (Json.Int 7) -> ()
  | _ -> Alcotest.fail "int");
  match Json.parse "[7.0, 2e3, -1.5]" with
  | Ok (Json.List [ Json.Float 7.0; Json.Float 2000.0; Json.Float (-1.5) ]) -> ()
  | _ -> Alcotest.fail "floats"

let test_json_parse_rejects () =
  List.iter
    (fun src ->
      match Json.parse src with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" src)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{\"a\" 1}"; "[1 2]"; "nan" ]

let test_json_accessors () =
  let doc = Json.Assoc [ ("xs", Json.List [ Json.Int 1 ]); ("f", Json.Float 2.5) ] in
  Alcotest.(check bool) "member hit" true (Json.member "xs" doc <> None);
  Alcotest.(check bool) "member miss" true (Json.member "nope" doc = None);
  Alcotest.(check bool) "to_list" true
    (match Option.bind (Json.member "xs" doc) Json.to_list with
    | Some [ Json.Int 1 ] -> true
    | _ -> false);
  Alcotest.(check bool) "to_number of int" true (Json.to_number (Json.Int 3) = Some 3.0);
  Alcotest.(check bool) "to_number of float" true
    (Option.bind (Json.member "f" doc) Json.to_number = Some 2.5);
  Alcotest.(check bool) "to_number of string" true (Json.to_number (Json.Str "3") = None)

(* The validator helpers turn a missing or mistyped field into an error
   that names it, so an artifact check reports which field is wrong. *)
let test_json_validator_helpers () =
  let doc = Json.Assoc [ ("n", Json.Int 3); ("x", Json.Float 0.5); ("s", Json.Str "3") ] in
  Alcotest.(check bool) "field hit" true (Json.field "s" doc = Ok (Json.Str "3"));
  Alcotest.(check bool) "field miss" true
    (Json.field "nope" doc = Error "missing field \"nope\"");
  Alcotest.(check bool) "field of a non-object" true
    (Json.field "n" (Json.List [ doc ]) = Error "missing field \"n\"");
  Alcotest.(check bool) "number of int" true (Json.number "n" doc = Ok 3.0);
  Alcotest.(check bool) "number of float" true (Json.number "x" doc = Ok 0.5);
  Alcotest.(check bool) "number of string" true
    (Json.number "s" doc = Error "field \"s\" is not a number");
  Alcotest.(check bool) "number of missing" true
    (Json.number "nope" doc = Error "missing field \"nope\"")

let suites =
  [
    ( "util.json",
      [
        Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite_floats_are_null;
        Alcotest.test_case "number parsing" `Quick test_json_parse_numbers;
        Alcotest.test_case "rejects malformed" `Quick test_json_parse_rejects;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
        Alcotest.test_case "validator helpers" `Quick test_json_validator_helpers;
      ] );
    ( "util.vec",
      [
        Alcotest.test_case "removal releases references" `Quick
          test_removal_releases_references;
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "push/pop order" `Quick test_push_pop_order;
        Alcotest.test_case "of_list/to_list" `Quick test_of_list_to_list;
        Alcotest.test_case "get/set bounds" `Quick test_get_set_bounds;
        Alcotest.test_case "take_last" `Quick test_take_last;
        Alcotest.test_case "append/clear" `Quick test_append_list_and_clear;
        Alcotest.test_case "iter order" `Quick test_iter_order;
        Alcotest.test_case "swap_remove" `Quick test_swap_remove;
        Alcotest.test_case "growth" `Quick test_growth;
        QCheck_alcotest.to_alcotest prop_push_pop_roundtrip;
        QCheck_alcotest.to_alcotest prop_take_last_conserves;
      ] );
  ]
