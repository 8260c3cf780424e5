type directive =
  | Equiv of Ecr.Qname.Attr.t * Ecr.Qname.Attr.t
  | Object_assertion of Ecr.Qname.t * Assertion.t * Ecr.Qname.t
  | Rel_assertion of Ecr.Qname.t * Assertion.t * Ecr.Qname.t
  | Rename of Ecr.Qname.t * Ecr.Qname.t * string

exception Parse_error of { file : string; line : int; message : string }

let parse_error_to_string = function
  | Parse_error { file; line; message } ->
      Printf.sprintf "%s:%d: %s" file line message
  | e -> Printexc.to_string e

let parse_line ~file ~line text =
  let error fmt =
    Printf.ksprintf
      (fun message -> raise (Parse_error { file; line; message }))
      fmt
  in
  (* every identifier is validated here, so no [Ecr.Name.Invalid]
     escapes the parser or waits for the directive's replay *)
  let valid = List.for_all Ecr.Name.is_valid in
  let qattr s =
    match String.split_on_char '.' s with
    | [ a; b; c ] when valid [ a; b; c ] -> Ecr.Qname.Attr.v a b c
    | _ -> error "malformed qualified attribute: %s" s
  in
  let qname s =
    match String.split_on_char '.' s with
    | [ a; b ] when valid [ a; b ] -> Ecr.Qname.v a b
    | _ -> error "malformed qualified name: %s" s
  in
  let name s = if Ecr.Name.is_valid s then s else error "malformed name: %s" s in
  let code s =
    match Option.bind (int_of_string_opt s) Assertion.of_code with
    | Some a -> a
    | None -> error "unknown assertion code: %s" s
  in
  let text =
    match String.index_opt text '#' with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  match
    String.split_on_char ' ' (String.trim text)
    |> List.filter (fun s -> s <> "")
  with
  | [] -> None
  | [ "equiv"; a; b ] -> Some (Equiv (qattr a, qattr b))
  | [ "object"; a; c; b ] -> Some (Object_assertion (qname a, code c, qname b))
  | [ "rel"; a; c; b ] -> Some (Rel_assertion (qname a, code c, qname b))
  | [ "name"; a; b; forced ] -> Some (Rename (qname a, qname b, name forced))
  | _ -> error "unparseable directive: %s" (String.trim text)

let parse_file path =
  let ic = open_in path in
  (* [Fun.protect] so a [Parse_error] raised mid-file cannot leak the
     channel. *)
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let directives = ref [] in
      (try
         let line = ref 0 in
         while true do
           incr line;
           match parse_line ~file:path ~line:!line (input_line ic) with
           | Some d -> directives := d :: !directives
           | None -> ()
         done
       with End_of_file -> ());
      List.rev !directives)

type apply_error =
  | Object_conflict of Ecr.Qname.t * Ecr.Qname.t * Assertions.conflict
  | Rel_conflict of Ecr.Qname.t * Ecr.Qname.t * Assertions.conflict
  | Unknown_object of Ecr.Qname.t
  | Unknown_relationship of Ecr.Qname.t

let apply_error_to_string = function
  | Object_conflict (a, b, _) ->
      Printf.sprintf "conflicting assertion between %s and %s"
        (Ecr.Qname.to_string a) (Ecr.Qname.to_string b)
  | Rel_conflict (a, b, _) ->
      Printf.sprintf "conflicting relationship assertion between %s and %s"
        (Ecr.Qname.to_string a) (Ecr.Qname.to_string b)
  | Unknown_object q ->
      Printf.sprintf "assertion names an unknown object class %s"
        (Ecr.Qname.to_string q)
  | Unknown_relationship q ->
      Printf.sprintf
        "relationship assertion names an unknown relationship set %s"
        (Ecr.Qname.to_string q)

let apply_one d ws =
  match d with
  | Equiv (a, b) -> Ok (Workspace.declare_equivalent a b ws)
  | Object_assertion (a, assertion, b) -> (
      match Workspace.assert_object a assertion b ws with
      | Ok ws -> Ok ws
      | Error c -> Error (Object_conflict (a, b, c))
      | exception Assertions.Unknown_class q -> Error (Unknown_object q))
  | Rel_assertion (a, assertion, b) -> (
      match Workspace.assert_relationship a assertion b ws with
      | Ok ws -> Ok ws
      | Error c -> Error (Rel_conflict (a, b, c))
      | exception Assertions.Unknown_class q -> Error (Unknown_relationship q))
  | Rename (a, b, forced) ->
      Ok
        (Workspace.set_naming
           (Naming.with_override a b forced (Workspace.naming ws))
           ws)

let apply directives ws =
  List.fold_left
    (fun acc d -> match acc with Error _ -> acc | Ok ws -> apply_one d ws)
    (Ok ws) directives
