open Ecr

exception Unmapped of string

let unmapped fmt = Printf.ksprintf (fun s -> raise (Unmapped s)) fmt

(* ------------------------------------------------------------------ *)
(* View -> integrated.                                                 *)

let expand_select schema cls = function
  | [] -> Attribute.names (Schema.all_attributes schema cls)
  | names -> names

let object_entry_exn mapping q =
  match Integrate.Mapping.object_entry q mapping with
  | Some e -> e
  | None -> unmapped "object class %s has no mapping entry" (Qname.to_string q)

let rel_entry_exn mapping q =
  match Integrate.Mapping.relationship_entry q mapping with
  | Some e -> e
  | None ->
      unmapped "relationship set %s has no mapping entry" (Qname.to_string q)

(* A view class may inherit attributes from its view ancestors; those
   are recorded on the ancestor's mapping entry, so renaming walks the
   view's IS-A chain to the declaring class. *)
let rename_for_view mapping view cls a =
  let declares c =
    match Schema.find_object c view with
    | Some oc -> Attribute.find a oc.Object_class.attributes <> None
    | None -> false
  in
  let chain = cls :: Schema.ancestors view cls in
  match List.find_opt declares chain with
  | Some owner -> (
      match
        Integrate.Mapping.attr_target (Qname.make (Schema.name view) owner) a
          mapping
      with
      | Some t -> t.Integrate.Mapping.as_attr
      | None -> a)
  | None -> a

let h_rewrite = Obs.Histogram.make "query.rewrite_seconds"
let h_unfold = Obs.Histogram.make "query.unfold_seconds"
let c_rewrites = Obs.Counter.make "query.rewrites"
let c_unfolds = Obs.Counter.make "query.unfolds"
let c_global = Obs.Counter.make "query.global_queries"

(* The rows of one answer all have the same columns, so the first row
   gives the column list once: each of the caller's columns is bound to
   the answer column it renames, and every row is built from that list
   in one pass.  When no column is renamed the rows are returned as
   they are. *)
let rename_rows back rows =
  match rows with
  | [] -> []
  | first :: _ ->
      let plan =
        Name.Map.fold (fun n _ acc -> Name.Map.add (back n) n acc) first
          Name.Map.empty
      in
      if Name.Map.for_all Name.equal plan then rows
      else
        List.map (fun row -> Name.Map.map (fun n -> Name.Map.find n row) plan) rows

let to_integrated mapping ~view q =
  Obs.Span.run "query.rewrite" @@ fun () ->
  Obs.Histogram.time h_rewrite @@ fun () ->
  Obs.Counter.incr c_rewrites;
  let schema_name = Schema.name view in
  let from_q = Qname.make schema_name q.Ast.from_class in
  let entry = object_entry_exn mapping from_q in
  let rename = rename_for_view mapping view q.Ast.from_class in
  let select = expand_select view q.Ast.from_class q.Ast.select in
  let select' = List.map rename select in
  let where' = Option.map (Ast.rename_pred rename) q.Ast.where in
  let via', back_target =
    match q.Ast.via with
    | None -> (None, fun _ -> None)
    | Some j ->
        let rel_entry = rel_entry_exn mapping (Qname.make schema_name j.Ast.rel) in
        let target_entry =
          object_entry_exn mapping (Qname.make schema_name j.Ast.target)
        in
        let trename = rename_for_view mapping view j.Ast.target in
        let tselect = expand_select view j.Ast.target j.Ast.target_select in
        let tselect' = List.map trename tselect in
        let rel_rename a =
          match
            Integrate.Mapping.relationship_attr_target
              (Qname.make schema_name j.Ast.rel) a mapping
          with
          | Some t -> t.Integrate.Mapping.as_attr
          | None -> a
        in
        let rel_select' = List.map rel_rename j.Ast.rel_select in
        let back =
          List.fold_left
            (fun acc a ->
              Name.Map.add
                (Eval.prefixed target_entry.Integrate.Mapping.target (trename a))
                (Eval.prefixed j.Ast.target a) acc)
            Name.Map.empty tselect
        in
        let back =
          List.fold_left
            (fun acc a ->
              Name.Map.add
                (Eval.prefixed rel_entry.Integrate.Mapping.target (rel_rename a))
                (Eval.prefixed j.Ast.rel a) acc)
            back j.Ast.rel_select
        in
        ( Some
            {
              Ast.rel = rel_entry.Integrate.Mapping.target;
              rel_select = rel_select';
              target = target_entry.Integrate.Mapping.target;
              target_where =
                Option.map (Ast.rename_pred trename) j.Ast.target_where;
              target_select = tselect';
            },
          fun n -> Name.Map.find_opt n back )
  in
  let back_map =
    List.fold_left2
      (fun acc original renamed -> Name.Map.add renamed original acc)
      Name.Map.empty select select'
  in
  let back n =
    match Name.Map.find_opt n back_map with
    | Some o -> o
    | None -> ( match back_target n with Some o -> o | None -> n)
  in
  let q' =
    {
      Ast.from_class = entry.Integrate.Mapping.target;
      where = where';
      select = select';
      via = via';
    }
  in
  (q', rename_rows back)

(* ------------------------------------------------------------------ *)
(* Integrated -> components.                                           *)

type component_query = {
  component : Name.t;
  query : Ast.t;
  columns : Eval.columns;
}

(* Component object classes whose extent contributes to [cls]: mapped to
   [cls] itself or to any of its descendants in the integrated schema. *)
let contributing_entries mapping integrated cls =
  let targets = cls :: Schema.descendants integrated cls in
  List.concat_map
    (fun t -> Integrate.Mapping.objects_into t mapping)
    targets

(* integrated attribute name -> component attribute name, for an entry *)
let reverse_attr_map (e : Integrate.Mapping.entry) =
  Name.Map.fold
    (fun comp_attr target acc ->
      Name.Map.add target.Integrate.Mapping.as_attr comp_attr acc)
    e.Integrate.Mapping.attrs Name.Map.empty

let rewrite_pred_back reverse p =
  let rec walk = function
    | Ast.Atom (a, cmp, v) -> (
        match Name.Map.find_opt a reverse with
        | Some comp -> Ast.Atom (comp, cmp, v)
        | None ->
            (* attribute absent in this component: its value there is
               Null, compared as the evaluator compares it *)
            Ast.Const (Eval.matches (fun _ -> Instance.Value.Null) (Ast.Atom (a, cmp, v))))
    | Ast.And (p, q) -> Ast.And (walk p, walk q)
    | Ast.Or (p, q) -> Ast.Or (walk p, walk q)
    | Ast.Not p -> Ast.Not (walk p)
    | Ast.Const b -> Ast.Const b
  in
  walk p

(* A global query names structures of the integrated schema; one it
   lacks is refused by name, whatever the select list.  An object
   class's attributes are those of the classes whose extents its answer
   reads: the class, its ancestors and its descendants. *)
let require_integrated integrated q =
  let require what find n =
    if find n integrated = None then
      unmapped "%s %s is not in the integrated schema" what (Name.to_string n)
  in
  require "object class" Schema.find_object q.Ast.from_class;
  Option.iter
    (fun j ->
      require "relationship set" Schema.find_relationship j.Ast.rel;
      require "object class" Schema.find_object j.Ast.target)
    q.Ast.via;
  let require_attrs what owner attrs names =
    List.iter
      (fun a ->
        if not (List.exists (Name.equal a) attrs) then
          unmapped "attribute %s is not in the integrated %s %s"
            (Name.to_string a) what (Name.to_string owner))
      names
  in
  let class_attrs cls =
    List.concat_map
      (fun c -> Attribute.names (Schema.all_attributes integrated c))
      (cls :: Schema.descendants integrated cls)
  in
  let pred_attrs = Option.fold ~none:[] ~some:Ast.attrs_of_pred in
  let from_attrs = class_attrs q.Ast.from_class in
  require_attrs "object class" q.Ast.from_class from_attrs q.Ast.select;
  require_attrs "object class" q.Ast.from_class from_attrs (pred_attrs q.Ast.where);
  Option.iter
    (fun j ->
      let target_attrs = class_attrs j.Ast.target in
      require_attrs "object class" j.Ast.target target_attrs j.Ast.target_select;
      require_attrs "object class" j.Ast.target target_attrs
        (pred_attrs j.Ast.target_where);
      let rel_attrs =
        match Schema.find_relationship j.Ast.rel integrated with
        | Some r -> Attribute.names r.Relationship.attributes
        | None -> []
      in
      require_attrs "relationship set" j.Ast.rel rel_attrs j.Ast.rel_select)
    q.Ast.via

(* Binds the answer column [name] (the integrated attribute [a], or a
   prefixed one) to the component attribute [a] maps from, or to Null. *)
let bind reverse source ~name a cols =
  Name.Map.add name
    (match Name.Map.find_opt a reverse with
    | Some comp -> source comp
    | None -> Eval.Absent)
    cols

let mapped reverse names = List.filter_map (fun a -> Name.Map.find_opt a reverse) names

let from_schema schema_name entries =
  List.filter
    (fun (e : Integrate.Mapping.entry) ->
      Name.equal e.Integrate.Mapping.source.Qname.schema schema_name)
    entries

let to_components mapping ~integrated q =
  Obs.Span.run "query.unfold" @@ fun () ->
  Obs.Histogram.time h_unfold @@ fun () ->
  Obs.Counter.incr c_unfolds;
  require_integrated integrated q;
  let wanted = expand_select integrated q.Ast.from_class q.Ast.select in
  let entries = contributing_entries mapping integrated q.Ast.from_class in
  List.filter_map
    (fun (entry : Integrate.Mapping.entry) ->
      let reverse = reverse_attr_map entry in
      let entity_columns =
        List.fold_left
          (fun cols a -> bind reverse (fun c -> Eval.Entity c) ~name:a a cols)
          Name.Map.empty wanted
      in
      let joined =
        match q.Ast.via with
        | None -> Some (None, entity_columns)
        | Some j -> (
            (* both the relationship and the target class must be mapped
               from this same component schema *)
            let schema_name = entry.Integrate.Mapping.source.Qname.schema in
            match
              ( from_schema schema_name
                  (Integrate.Mapping.relationships_into j.Ast.rel mapping),
                from_schema schema_name
                  (contributing_entries mapping integrated j.Ast.target) )
            with
            | rel_e :: _, tgt_e :: _ ->
                let treverse = reverse_attr_map tgt_e
                and rreverse = reverse_attr_map rel_e in
                let twanted =
                  expand_select integrated j.Ast.target j.Ast.target_select
                in
                let with_target =
                  List.fold_left
                    (fun cols a ->
                      bind treverse
                        (fun c -> Eval.Target c)
                        ~name:(Eval.prefixed j.Ast.target a) a cols)
                    entity_columns twanted
                in
                let columns =
                  List.fold_left
                    (fun cols a ->
                      bind rreverse
                        (fun c -> Eval.Link c)
                        ~name:(Eval.prefixed j.Ast.rel a) a cols)
                    with_target j.Ast.rel_select
                in
                Some
                  ( Some
                      {
                        Ast.rel = rel_e.Integrate.Mapping.source.Qname.obj;
                        rel_select = mapped rreverse j.Ast.rel_select;
                        target = tgt_e.Integrate.Mapping.source.Qname.obj;
                        target_where =
                          Option.map (rewrite_pred_back treverse)
                            j.Ast.target_where;
                        target_select = mapped treverse twanted;
                      },
                    columns )
            | _ -> None)
      in
      Option.map
        (fun (via, columns) ->
          {
            component = entry.Integrate.Mapping.source.Qname.schema;
            query =
              {
                Ast.from_class = entry.Integrate.Mapping.source.Qname.obj;
                where = Option.map (rewrite_pred_back reverse) q.Ast.where;
                select = mapped reverse wanted;
                via;
              };
            columns;
          })
        joined)
    entries

(* The outer union drops a row equal to one already kept: the same
   columns, with [Instance.Value.equal] values (an [Int] and an equal
   [Real] are one value).  The hash agrees with that equality. *)
module Answer_set = Hashtbl.Make (struct
  type t = Eval.row

  let hash row =
    Name.Map.fold (fun _ v h -> (h * 31) + Instance.Value.hash v) row 0

  let equal a b =
    Name.Map.cardinal a = Name.Map.cardinal b
    && Name.Map.for_all
         (fun n v ->
           match Name.Map.find n b with
           | v' -> Instance.Value.equal v v'
           | exception Not_found -> false)
         a
end)

let run_components parts ~stores =
  (* Within one component, a class whose extent is already covered by a
     broader contributing class of the same schema (e.g. a category under
     an entity set that also contributes) would only duplicate answers:
     the ECR extent of the broader class includes its descendants. *)
  let redundant part =
    match List.assoc_opt part.component stores with
    | None -> true
    | Some store ->
        let schema = Instance.Store.schema store in
        List.exists
          (fun other ->
            Name.equal other.component part.component
            && (not (Name.equal other.query.Ast.from_class part.query.Ast.from_class))
            && Schema.is_ancestor schema
                 ~ancestor:other.query.Ast.from_class
                 part.query.Ast.from_class)
          parts
  in
  let seen = Answer_set.create 64 in
  let keep rows row =
    if Answer_set.mem seen row then rows
    else begin
      Answer_set.add seen row ();
      row :: rows
    end
  in
  List.fold_left
    (fun rows part ->
      if redundant part then rows
      else
        match List.assoc_opt part.component stores with
        | None -> rows
        | Some store -> Eval.fold part.columns part.query store keep rows)
    [] parts
  |> List.rev

let run_global mapping ~integrated ~stores q =
  Obs.Counter.incr c_global;
  run_components (to_components mapping ~integrated q) ~stores

let covers supers subs =
  let matches sub super =
    Name.Map.for_all
      (fun k v ->
        Instance.Value.equal v Instance.Value.Null
        ||
        match Name.Map.find_opt k super with
        | Some v' ->
            Instance.Value.equal v v'
            || Instance.Value.equal v' Instance.Value.Null
        | None -> false)
      sub
  in
  List.for_all (fun sub -> List.exists (matches sub) supers) subs
