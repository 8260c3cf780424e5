module Json = Obs.Json

type addr = Unix_path of string | Tcp of string * int

let addr_of_string s =
  let s = String.trim s in
  if s = "" then Error "empty listen address"
  else if String.length s >= 5 && String.sub s 0 5 = "unix:" then begin
    let path = String.sub s 5 (String.length s - 5) in
    if path = "" then Error "unix: address needs a socket path"
    else Ok (Unix_path path)
  end
  else
    match String.rindex_opt s ':' with
    | None -> Error (Printf.sprintf "expected unix:PATH or HOST:PORT, got %s" s)
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p <= 65535 ->
            Ok (Tcp ((if host = "" then "0.0.0.0" else host), p))
        | _ -> Error (Printf.sprintf "bad port %S in listen address" port))

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

type error_code =
  | Bad_frame
  | Bad_request
  | Unknown_op
  | Unknown_view
  | Parse_error
  | Unmapped
  | Eval_error
  | Update_error
  | Overloaded
  | Deadline_exceeded
  | Not_leader
  | Shutting_down
  | Internal

let code_to_string = function
  | Bad_frame -> "bad_frame"
  | Bad_request -> "bad_request"
  | Unknown_op -> "unknown_op"
  | Unknown_view -> "unknown_view"
  | Parse_error -> "parse_error"
  | Unmapped -> "unmapped"
  | Eval_error -> "eval_error"
  | Update_error -> "update_error"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Not_leader -> "not_leader"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let all_codes =
  [
    Bad_frame; Bad_request; Unknown_op; Unknown_view; Parse_error; Unmapped;
    Eval_error; Update_error; Overloaded; Deadline_exceeded; Not_leader;
    Shutting_down; Internal;
  ]

let code_of_string s = List.find_opt (fun c -> code_to_string c = s) all_codes

(* Every request "op" the daemon understands, data operations first,
   inline control operations last.  This list is the single source of
   truth for the operation table in docs/SERVING.md —
   scripts/docs_check.sh extracts the quoted names below and fails
   `make check` when the documentation drifts. *)
let ops =
  [
    "query"; "rewrite"; "update"; "migrate"; "define_view"; "drop_view";
    "refresh_view"; "sleep"; "view_stats"; "health"; "metrics";
    "repl_handshake"; "repl_pull"; "repl_frame"; "repl_status";
    "repl_snapshot"; "repl_compact";
  ]

let mutating = function
  | "update" | "migrate" | "define_view" | "drop_view" | "refresh_view" -> true
  | _ -> false

type request = {
  id : Json.t option;
  op : string;
  view : string option;
  text : string option;
  base : string option;
  policy : string option;
  deadline_ms : int option;
  seq : int option;
  max : int option;
  wait_ms : int option;
  node : string option;
}

let request_of_json = function
  | Json.Obj fields as obj -> (
      let id = Json.member "id" obj in
      let str_field name =
        match List.assoc_opt name fields with
        | None -> Ok None
        | Some (Json.String s) -> Ok (Some s)
        | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
      in
      let int_field name =
        match List.assoc_opt name fields with
        | None -> Ok None
        | Some (Json.Int i) -> Ok (Some i)
        | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
      in
      let ( let* ) r k =
        match r with Error e -> Error (Bad_request, e) | Ok v -> k v
      in
      let* op = str_field "op" in
      let* view = str_field "view" in
      let* q = str_field "q" in
      let* u = str_field "u" in
      let* base = str_field "base" in
      let* policy = str_field "policy" in
      let* deadline_ms = int_field "deadline_ms" in
      let* seq = int_field "seq" in
      let* max = int_field "max" in
      let* wait_ms = int_field "wait_ms" in
      let* node = str_field "node" in
      match op with
      | None -> Error (Bad_request, "frame has no \"op\" field")
      | Some op ->
          let text = match q with Some _ -> q | None -> u in
          Ok { id; op; view; text; base; policy; deadline_ms; seq; max; wait_ms; node })
  | _ -> Error (Bad_frame, "frame must be a JSON object")

let request_of_line line =
  match Json.of_string line with
  | Error e -> Error (Bad_frame, "frame is not valid JSON: " ^ e)
  | Ok v -> request_of_json v

let max_request_line = 1 lsl 20

(* A connection's request lines: [chunk] from [lo] to [hi] has been
   read from [ic] but not yet framed.  The channel cannot be searched
   for a newline without taking bytes past it, and [input_char] takes
   the channel's lock for each byte, so lines are cut from a chunk. *)
type reader = {
  ic : in_channel;
  chunk : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  line : Buffer.t;
}

let reader ic =
  { ic; chunk = Bytes.create 1024; lo = 0; hi = 0; line = Buffer.create 256 }

(* Bytes past the cap are read but not kept, so a line that never ends
   cannot grow [line]; it is refused once its newline arrives.  [line]
   starts each request at its first size, so a long one does not stay
   allocated. *)
let next_request r =
  Buffer.reset r.line;
  let rec fill () =
    if r.lo = r.hi then begin
      r.lo <- 0;
      r.hi <- input r.ic r.chunk 0 (Bytes.length r.chunk)
    end;
    if r.hi = 0 then Buffer.length r.line > 0
    else
      let nl =
        match Bytes.index_from r.chunk r.lo '\n' with
        | i when i < r.hi -> i
        | _ | (exception Not_found) -> r.hi
      in
      let room = max_request_line + 1 - Buffer.length r.line in
      Buffer.add_subbytes r.line r.chunk r.lo (min room (nl - r.lo));
      r.lo <- min r.hi (nl + 1);
      nl < r.hi || fill ()
  in
  if not (fill ()) then None
  else if Buffer.length r.line > max_request_line then
    Some
      (Error
         ( Bad_frame,
           Printf.sprintf "request line is longer than %d bytes"
             max_request_line ))
  else Some (request_of_line (Buffer.contents r.line))

let request_to_line ?id ?view ?text ?base ?policy ?deadline_ms ?seq ?max
    ?wait_ms ?node op =
  let int_opt name = function
    | Some i -> [ (name, Json.Int i) ]
    | None -> []
  in
  let str_opt name = function
    | Some s -> [ (name, Json.String s) ]
    | None -> []
  in
  let fields =
    (match id with Some v -> [ ("id", v) ] | None -> [])
    @ [ ("op", Json.String op) ]
    @ str_opt "view" view
    @ (match text with
      | Some t ->
          (* updates travel in "u", everything else in "q" *)
          [ ((if op = "update" then "u" else "q"), Json.String t) ]
      | None -> [])
    @ str_opt "base" base
    @ str_opt "policy" policy
    @ int_opt "deadline_ms" deadline_ms
    @ int_opt "seq" seq
    @ int_opt "max" max
    @ int_opt "wait_ms" wait_ms
    @ str_opt "node" node
  in
  Json.to_string (Json.Obj fields)

let with_id id fields =
  match id with Some v -> ("id", v) :: fields | None -> fields

let ok_response ?id payload =
  Json.Obj (with_id id (("ok", Json.Bool true) :: payload))

let error_response ?id ?(data = []) code message =
  Json.Obj
    (with_id id
       [
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             ([
                ("code", Json.String (code_to_string code));
                ("message", Json.String message);
              ]
             @ data) );
       ])

let ok_line ?id payload = Json.to_string (ok_response ?id payload)

let error_line ?id ?data code message =
  Json.to_string (error_response ?id ?data code message)

let value_to_json = function
  | Instance.Value.Str s -> Json.String s
  | Instance.Value.Int i -> Json.Int i
  | Instance.Value.Real r -> Json.Float r
  | Instance.Value.Bool b -> Json.Bool b
  | Instance.Value.Date (y, m, d) ->
      Json.String (Instance.Value.date_to_string y m d)
  | Instance.Value.Null -> Json.Null

let row_to_json row =
  Json.Obj
    (Ecr.Name.Map.fold
       (fun name v acc -> (Ecr.Name.to_string name, value_to_json v) :: acc)
       row []
    |> List.rev)

let rows_to_json rows = Json.List (List.map row_to_json rows)
