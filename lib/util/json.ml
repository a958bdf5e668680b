type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Assoc of (string * t) list

(* ---- building ---------------------------------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  (* JSON has no NaN/infinity literals; emit null rather than invalid text. *)
  if not (Float.is_finite f) then None
  else
    let s = Printf.sprintf "%.12g" f in
    (* "%g" can print a bare integer ("3"), which would parse back as Int;
       keep the float-ness visible. *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then Some s
    else Some (s ^ ".0")

let rec write buf indent v =
  let pad n = Buffer.add_string buf (String.make n ' ') in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    Buffer.add_string buf (match float_repr f with Some s -> s | None -> "null")
  | Str s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad (indent + 2);
        write buf (indent + 2) item)
      items;
    Buffer.add_char buf '\n';
    pad indent;
    Buffer.add_char buf ']'
  | Assoc [] -> Buffer.add_string buf "{}"
  | Assoc fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad (indent + 2);
        escape buf k;
        Buffer.add_string buf ": ";
        write buf (indent + 2) item)
      fields;
    Buffer.add_char buf '\n';
    pad indent;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  write buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---- parsing ----------------------------------------------------------- *)

exception Parse_failure of int * string

type cursor = { src : string; mutable pos : int }

let failp c fmt = Printf.ksprintf (fun m -> raise (Parse_failure (c.pos, m))) fmt

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> failp c "expected %C, found %C" ch x
  | None -> failp c "expected %C, found end of input" ch

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else failp c "invalid literal (expected %s)" word

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> failp c "unterminated string"
    | Some '"' ->
      advance c;
      Buffer.contents buf
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char buf '"'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '/' -> Buffer.add_char buf '/'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'u' ->
        if c.pos + 4 >= String.length c.src then failp c "truncated \\u escape";
        let hex = String.sub c.src (c.pos + 1) 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some code when Uchar.is_valid code ->
          Buffer.add_utf_8_uchar buf (Uchar.of_int code)
        | Some _ | None -> failp c "invalid \\u escape %s" hex);
        c.pos <- c.pos + 4
      | Some ch -> failp c "invalid escape \\%C" ch
      | None -> failp c "unterminated escape");
      advance c;
      go ()
    | Some ch when Char.code ch < 0x20 -> failp c "raw control character in string"
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    (ch >= '0' && ch <= '9')
    || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E'
  in
  let rec go () =
    match peek c with
    | Some ch when is_num_char ch ->
      advance c;
      go ()
    | _ -> ()
  in
  go ();
  let text = String.sub c.src start (c.pos - start) in
  let floatish = String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') text in
  if floatish then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> failp c "invalid number %S" text
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f (* out of int range *)
      | None -> failp c "invalid number %S" text)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> failp c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Assoc []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        let key = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields ((key, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((key, v) :: acc)
        | _ -> failp c "expected ',' or '}' in object"
      in
      Assoc (fields [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> failp c "expected ',' or ']' in array"
      in
      List (items [])
    end
  | Some '"' -> Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> failp c "unexpected character %C" ch

let parse src =
  let c = { src; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    (match peek c with
    | Some ch -> failp c "trailing garbage starting with %C" ch
    | None -> ());
    v
  with
  | v -> Ok v
  | exception Parse_failure (pos, msg) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" pos msg)

(* ---- accessors --------------------------------------------------------- *)

let member key = function
  | Assoc fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List items -> Some items | _ -> None

let to_number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let field key v =
  match member key v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing field %S" key)

let number key v =
  Result.bind (field key v) (fun x ->
      match to_number x with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "field %S is not a number" key))
