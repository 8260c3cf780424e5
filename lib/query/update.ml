open Ecr
module S = Instance.Store
module V = Instance.Value

type t =
  | Insert of Name.t * S.tuple
  | Delete of Name.t * Ast.pred option
  | Modify of Name.t * Ast.pred option * (Name.t * V.t) list

let insert cls bindings = Insert (Name.v cls, S.tuple bindings)
let delete ?where cls = Delete (Name.v cls, where)

let modify ?where cls assignments =
  Modify
    (Name.v cls, where, List.map (fun (k, v) -> (Name.v k, v)) assignments)

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let check_class schema cls =
  if Schema.find_object cls schema = None then
    error "unknown object class %s" (Name.to_string cls)

let check_attrs schema cls names =
  let attrs = Attribute.names (Schema.all_attributes schema cls) in
  List.iter
    (fun n ->
      if not (List.exists (Name.equal n) attrs) then
        error "class %s has no attribute %s" (Name.to_string cls)
          (Name.to_string n))
    names

(* the entities of [cls] a [where] selects, as [Eval.run] selects them *)
let matching store cls pred =
  let extent = S.Oid.Set.elements (S.extent cls store) in
  match pred with
  | None -> extent
  | Some p -> List.filter (fun oid -> Eval.matches (fun a -> S.value oid a store) p) extent

let apply op store =
  let schema = S.schema store in
  match op with
  | Insert (cls, tuple) ->
      check_class schema cls;
      check_attrs schema cls (List.map fst (Name.Map.bindings tuple));
      let store, _ = S.insert cls tuple store in
      (store, 1)
  | Delete (cls, pred) ->
      check_class schema cls;
      Option.iter (fun p -> check_attrs schema cls (Ast.attrs_of_pred p)) pred;
      let victims = matching store cls pred in
      ( List.fold_left (fun st oid -> S.remove_entity oid st) store victims,
        List.length victims )
  | Modify (cls, pred, assignments) ->
      check_class schema cls;
      Option.iter (fun p -> check_attrs schema cls (Ast.attrs_of_pred p)) pred;
      check_attrs schema cls (List.map fst assignments);
      let targets = matching store cls pred in
      ( List.fold_left
          (fun st oid ->
            List.fold_left
              (fun st (a, v) -> S.set_value oid a v st)
              st assignments)
          store targets,
        List.length targets )

let to_integrated mapping ~view op =
  let rename cls = Rewrite.rename_for_view mapping view cls in
  let target cls =
    match
      Integrate.Mapping.object_target (Qname.make (Schema.name view) cls) mapping
    with
    | Some t -> t
    | None ->
        raise
          (Rewrite.Unmapped
             ("object class " ^ Name.to_string cls ^ " has no mapping entry"))
  in
  match op with
  | Insert (cls, tuple) ->
      let rename = rename cls in
      Insert
        ( target cls,
          Name.Map.fold
            (fun a v acc -> Name.Map.add (rename a) v acc)
            tuple Name.Map.empty )
  | Delete (cls, pred) ->
      Delete (target cls, Option.map (Ast.rename_pred (rename cls)) pred)
  | Modify (cls, pred, assignments) ->
      let rename = rename cls in
      Modify
        ( target cls,
          Option.map (Ast.rename_pred rename) pred,
          List.map (fun (a, v) -> (rename a, v)) assignments )

let pp fmt = function
  | Insert (cls, tuple) ->
      Format.fprintf fmt "insert into %a {%s}" Name.pp cls
        (String.concat ", "
           (List.map
              (fun (k, v) -> Name.to_string k ^ "=" ^ V.to_string v)
              (Name.Map.bindings tuple)))
  | Delete (cls, pred) ->
      Format.fprintf fmt "delete from %a" Name.pp cls;
      Option.iter (fun p -> Format.fprintf fmt " where %a" Ast.pp_pred p) pred
  | Modify (cls, pred, assignments) ->
      Format.fprintf fmt "update %a set %s" Name.pp cls
        (String.concat ", "
           (List.map
              (fun (k, v) -> Name.to_string k ^ "=" ^ V.to_string v)
              assignments));
      Option.iter (fun p -> Format.fprintf fmt " where %a" Ast.pp_pred p) pred

let to_string op = Format.asprintf "%a" pp op
