(* The reference JSON printer: [Obs.Json]'s encoder as it was before
   it wrote into a caller's buffer.  The tests check that
   [Obs.Json.to_string] and [Obs.Json.to_buffer] print the same bytes on
   any tree with finite floats.  (On an infinity or a NaN the two differ
   on purpose: this printer writes [inf]/[nan], which is not JSON;
   [Obs.Json] writes [null].) *)

open Obs.Json

let escape_to buf s =
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

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let to_string ?indent v =
  let buf = Buffer.create 256 in
  let nl level =
    match indent with
    | None -> ()
    | Some n ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (n * level) ' ')
  in
  let rec go level = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_to_string f)
    | String s -> escape_to buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            nl (level + 1);
            go (level + 1) item)
          items;
        nl level;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            nl (level + 1);
            escape_to buf k;
            Buffer.add_char buf ':';
            if indent <> None then Buffer.add_char buf ' ';
            go (level + 1) item)
          fields;
        nl level;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf
