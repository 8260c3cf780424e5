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

let of_directive = function
  | Script.Equiv (a, b) -> Declare_equivalent (a, b)
  | Script.Object_assertion (a, c, b) -> Assert_object (a, c, b)
  | Script.Rel_assertion (a, c, b) -> Assert_relationship (a, c, b)
  | Script.Rename (a, b, forced) -> Rename (a, b, forced)

let apply op ws =
  match op with
  | Add_schema s -> Workspace.add_schema s ws
  | Remove_schema n -> Workspace.remove_schema n ws
  | Declare_equivalent (a, b) -> Workspace.declare_equivalent a b ws
  | Separate_attribute a -> Workspace.separate_attribute a ws
  | Assert_object (a, c, b) -> (
      match Workspace.assert_object a c b ws with
      | Ok ws -> ws
      | Error _ | (exception Assertions.Unknown_class _) -> ws)
  | Assert_relationship (a, c, b) -> (
      match Workspace.assert_relationship a c b ws with
      | Ok ws -> ws
      | Error _ | (exception Assertions.Unknown_class _) -> ws)
  | Retract_object (a, b) -> Workspace.retract_object a b ws
  | Retract_relationship (a, b) -> Workspace.retract_relationship a b ws
  | Rename (a, b, forced) ->
      Workspace.set_naming
        (Naming.with_override a b forced (Workspace.naming ws))
        ws

let describe = function
  | Add_schema s ->
      Printf.sprintf "add schema %s" (Ecr.Name.to_string (Ecr.Schema.name s))
  | Remove_schema n -> Printf.sprintf "remove schema %s" (Ecr.Name.to_string n)
  | Declare_equivalent (a, b) ->
      Printf.sprintf "equiv %s %s" (Ecr.Qname.Attr.to_string a)
        (Ecr.Qname.Attr.to_string b)
  | Separate_attribute a ->
      Printf.sprintf "separate %s" (Ecr.Qname.Attr.to_string a)
  | Assert_object (a, c, b) ->
      Printf.sprintf "object %s %d %s" (Ecr.Qname.to_string a)
        (Assertion.code c) (Ecr.Qname.to_string b)
  | Assert_relationship (a, c, b) ->
      Printf.sprintf "rel %s %d %s" (Ecr.Qname.to_string a)
        (Assertion.code c) (Ecr.Qname.to_string b)
  | Retract_object (a, b) ->
      Printf.sprintf "retract object %s %s" (Ecr.Qname.to_string a)
        (Ecr.Qname.to_string b)
  | Retract_relationship (a, b) ->
      Printf.sprintf "retract rel %s %s" (Ecr.Qname.to_string a)
        (Ecr.Qname.to_string b)
  | Rename (a, b, forced) ->
      Printf.sprintf "name %s %s as %s" (Ecr.Qname.to_string a)
        (Ecr.Qname.to_string b) forced
