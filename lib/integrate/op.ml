type t =
  | Add_schema of Ecr.Schema.t
  | Remove_schema of Ecr.Name.t
  | Declare_equivalent of Ecr.Qname.Attr.t * Ecr.Qname.Attr.t
  | Separate_attribute of Ecr.Qname.Attr.t
  | Assert_object of Ecr.Qname.t * Assertion.t * Ecr.Qname.t
  | Assert_relationship of Ecr.Qname.t * Assertion.t * Ecr.Qname.t
  | Retract_object of Ecr.Qname.t * Ecr.Qname.t
  | Retract_relationship of Ecr.Qname.t * Ecr.Qname.t
  | Rename of Ecr.Qname.t * Ecr.Qname.t * string

let schema_header = "schema\n"

let to_string op =
  let qn = Ecr.Qname.to_string and qa = Ecr.Qname.Attr.to_string in
  let code c = string_of_int (Assertion.code c) in
  match op with
  | Add_schema s -> schema_header ^ Ddl.Printer.to_string s
  | Remove_schema n -> "rmschema " ^ Ecr.Name.to_string n
  | Declare_equivalent (a, b) -> String.concat " " [ "equiv"; qa a; qa b ]
  | Separate_attribute a -> "sep " ^ qa a
  | Assert_object (a, c, b) ->
      String.concat " " [ "object"; qn a; code c; qn b ]
  | Assert_relationship (a, c, b) ->
      String.concat " " [ "rel"; qn a; code c; qn b ]
  | Retract_object (a, b) -> String.concat " " [ "retract"; qn a; qn b ]
  | Retract_relationship (a, b) ->
      String.concat " " [ "retractrel"; qn a; qn b ]
  | Rename (a, b, forced) -> String.concat " " [ "name"; qn a; qn b; forced ]

(* The readers of [of_string]'s fields, at top level so that reading
   an op allocates no closures. *)
exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise_notrace (Malformed m)) fmt
let valid = Ecr.Name.is_valid
let name s = if valid s then s else malformed "malformed name: %s" s

let qname s =
  match String.split_on_char '.' s with
  | [ a; b ] when valid a && valid b -> Ecr.Qname.v a b
  | _ -> malformed "malformed qualified name: %s" s

let qattr s =
  match String.split_on_char '.' s with
  | [ a; b; c ] when valid a && valid b && valid c -> Ecr.Qname.Attr.v a b c
  | _ -> malformed "malformed qualified attribute: %s" s

let code s =
  match Option.bind (int_of_string_opt s) Assertion.of_code with
  | Some c -> c
  | None -> malformed "unknown assertion code: %s" s

let schema s =
  match Ddl.Parser.schemas_of_string s with
  | [ s ] -> Add_schema s
  | schemas ->
      malformed "a schema op holds one schema, not %d" (List.length schemas)
  | exception Ddl.Parser.Error (msg, line, col) ->
      malformed "schema %d:%d: %s" line col msg

let of_string text =
  let header = String.length schema_header in
  match
    if String.starts_with ~prefix:schema_header text then
      schema (String.sub text header (String.length text - header))
    else
      match String.split_on_char ' ' text |> List.filter (fun s -> s <> "") with
      | [ "rmschema"; n ] -> Remove_schema (Ecr.Name.v (name n))
      | [ "equiv"; a; b ] -> Declare_equivalent (qattr a, qattr b)
      | [ "sep"; a ] -> Separate_attribute (qattr a)
      | [ "object"; a; c; b ] -> Assert_object (qname a, code c, qname b)
      | [ "rel"; a; c; b ] -> Assert_relationship (qname a, code c, qname b)
      | [ "retract"; a; b ] -> Retract_object (qname a, qname b)
      | [ "retractrel"; a; b ] -> Retract_relationship (qname a, qname b)
      | [ "name"; a; b; forced ] -> Rename (qname a, qname b, name forced)
      | _ -> malformed "unparseable directive: %s" text
  with
  | op -> Ok op
  | exception Malformed message -> Error message

type error =
  | Object_conflict of Ecr.Qname.t * Ecr.Qname.t * Assertions.conflict
  | Rel_conflict of Ecr.Qname.t * Ecr.Qname.t * Assertions.conflict
  | Unknown_object of Ecr.Qname.t
  | Unknown_relationship of Ecr.Qname.t
  | Invalid_schema of Ecr.Name.t * Ecr.Schema.error list

let error_to_string = function
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
  | Invalid_schema (n, errors) ->
      Printf.sprintf "invalid schema %s: %s" (Ecr.Name.to_string n)
        (String.concat "; " (List.map Ecr.Schema.error_to_string errors))

let try_apply op ws =
  match op with
  | Add_schema s -> (
      match Ecr.Schema.validate s with
      | [] -> Ok (Workspace.add_schema s ws)
      | errors -> Error (Invalid_schema (Ecr.Schema.name s, errors)))
  | Remove_schema n -> Ok (Workspace.remove_schema n ws)
  | Declare_equivalent (a, b) -> Ok (Workspace.declare_equivalent a b ws)
  | Separate_attribute a -> Ok (Workspace.separate_attribute a ws)
  | Assert_object (a, c, b) -> (
      match Workspace.assert_object a c b ws with
      | Ok ws -> Ok ws
      | Error conflict -> Error (Object_conflict (a, b, conflict))
      | exception Assertions.Unknown_class q -> Error (Unknown_object q))
  | Assert_relationship (a, c, b) -> (
      match Workspace.assert_relationship a c b ws with
      | Ok ws -> Ok ws
      | Error conflict -> Error (Rel_conflict (a, b, conflict))
      | exception Assertions.Unknown_class q -> Error (Unknown_relationship q))
  | Retract_object (a, b) -> Ok (Workspace.retract_object a b ws)
  | Retract_relationship (a, b) -> Ok (Workspace.retract_relationship a b ws)
  | Rename (a, b, forced) ->
      Ok
        (Workspace.set_naming
           (Naming.with_override a b forced (Workspace.naming ws))
           ws)

let apply op ws = Stdlib.Result.value (try_apply op ws) ~default:ws

let of_workspace ws =
  let declarations = function
    | first :: rest ->
        List.map (fun other -> Declare_equivalent (first, other)) rest
    | [] -> []
  in
  List.concat_map declarations
    (Equivalence.nontrivial_classes (Workspace.equivalence ws))
  @ List.map
      (fun (a, c, b) -> Assert_object (a, c, b))
      (Workspace.object_facts ws)
  @ List.map
      (fun (a, c, b) -> Assert_relationship (a, c, b))
      (Workspace.relationship_facts ws)
  @ List.map
      (fun (a, b, forced) -> Rename (a, b, Ecr.Name.to_string forced))
      (Naming.overrides (Workspace.naming ws))
