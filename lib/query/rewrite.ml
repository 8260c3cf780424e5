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
        let old_prefix a =
          Name.v (Name.to_string j.Ast.target ^ "_" ^ Name.to_string a)
        in
        let new_prefix a =
          Name.v
            (Name.to_string target_entry.Integrate.Mapping.target
            ^ "_" ^ Name.to_string a)
        in
        let old_rel_prefix a =
          Name.v (Name.to_string j.Ast.rel ^ "_" ^ Name.to_string a)
        in
        let new_rel_prefix a =
          Name.v
            (Name.to_string rel_entry.Integrate.Mapping.target
            ^ "_" ^ Name.to_string a)
        in
        let back =
          List.fold_left
            (fun acc a ->
              Name.Map.add (new_prefix (trename a)) (old_prefix a) acc)
            Name.Map.empty tselect
        in
        let back =
          List.fold_left
            (fun acc a ->
              Name.Map.add (new_rel_prefix (rel_rename a)) (old_rel_prefix a) acc)
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
  (q', Eval.rename_columns back)

(* ------------------------------------------------------------------ *)
(* Integrated -> components.                                           *)

type component_query = {
  component : Name.t;
  query : Ast.t;
  post : Eval.row list -> Eval.row list;
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
               Null, and Null comparisons are false *)
            Ast.Const false)
    | Ast.And (p, q) -> Ast.And (walk p, walk q)
    | Ast.Or (p, q) -> Ast.Or (walk p, walk q)
    | Ast.Not p -> Ast.Not (walk p)
    | Ast.Const b -> Ast.Const b
  in
  walk p

(* A global query names structures of the integrated schema; one it
   lacks is refused by name, whatever the select list. *)
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
    q.Ast.via

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
      let available, missing =
        List.partition (fun a -> Name.Map.mem a reverse) wanted
      in
      let comp_select =
        List.map (fun a -> Name.Map.find a reverse) available
      in
      let comp_where = Option.map (rewrite_pred_back reverse) q.Ast.where in
      let via_result =
        match q.Ast.via with
        | None -> Some (None, fun rows -> rows)
        | Some j -> (
            (* both the relationship and the target class must be mapped
               from this same component schema *)
            let schema_name = entry.Integrate.Mapping.source.Qname.schema in
            let rel_sources =
              Integrate.Mapping.relationships_into j.Ast.rel mapping
              |> List.filter (fun (e : Integrate.Mapping.entry) ->
                     Name.equal e.Integrate.Mapping.source.Qname.schema
                       schema_name)
            in
            let target_sources =
              contributing_entries mapping integrated j.Ast.target
              |> List.filter (fun (e : Integrate.Mapping.entry) ->
                     Name.equal e.Integrate.Mapping.source.Qname.schema
                       schema_name)
            in
            match (rel_sources, target_sources) with
            | rel_e :: _, tgt_e :: _ ->
                let treverse = reverse_attr_map tgt_e in
                let twanted =
                  expand_select integrated j.Ast.target j.Ast.target_select
                in
                let tavailable, tmissing =
                  List.partition (fun a -> Name.Map.mem a treverse) twanted
                in
                let tselect =
                  List.map (fun a -> Name.Map.find a treverse) tavailable
                in
                let comp_target = tgt_e.Integrate.Mapping.source.Qname.obj in
                let int_prefix a =
                  Name.v
                    (Name.to_string j.Ast.target ^ "_" ^ Name.to_string a)
                in
                let comp_prefix a =
                  Name.v (Name.to_string comp_target ^ "_" ^ Name.to_string a)
                in
                let rename_back =
                  List.fold_left2
                    (fun acc int_a comp_a ->
                      Name.Map.add (comp_prefix comp_a) (int_prefix int_a) acc)
                    Name.Map.empty tavailable tselect
                in
                let post rows =
                  rows
                  |> Eval.rename_columns (fun n ->
                         Option.value ~default:n (Name.Map.find_opt n rename_back))
                  |> List.map (fun r ->
                         List.fold_left
                           (fun r a ->
                             Name.Map.add (int_prefix a) Instance.Value.Null r)
                           r tmissing)
                in
                let rreverse = reverse_attr_map rel_e in
                let ravailable, rmissing =
                  List.partition
                    (fun a -> Name.Map.mem a rreverse)
                    j.Ast.rel_select
                in
                let rselect =
                  List.map (fun a -> Name.Map.find a rreverse) ravailable
                in
                let int_rel_prefix a =
                  Name.v (Name.to_string j.Ast.rel ^ "_" ^ Name.to_string a)
                in
                let comp_rel_prefix a =
                  Name.v
                    (Name.to_string rel_e.Integrate.Mapping.source.Qname.obj
                    ^ "_" ^ Name.to_string a)
                in
                let rel_rename_back =
                  List.fold_left2
                    (fun acc int_a comp_a ->
                      Name.Map.add (comp_rel_prefix comp_a)
                        (int_rel_prefix int_a) acc)
                    Name.Map.empty ravailable rselect
                in
                let post rows =
                  rows |> post
                  |> Eval.rename_columns (fun n ->
                         Option.value ~default:n
                           (Name.Map.find_opt n rel_rename_back))
                  |> List.map (fun r ->
                         List.fold_left
                           (fun r a ->
                             Name.Map.add (int_rel_prefix a)
                               Instance.Value.Null r)
                           r rmissing)
                in
                Some
                  ( Some
                      {
                        Ast.rel = rel_e.Integrate.Mapping.source.Qname.obj;
                        rel_select = rselect;
                        target = comp_target;
                        target_where =
                          Option.map (rewrite_pred_back treverse)
                            j.Ast.target_where;
                        target_select = tselect;
                      },
                    post )
            | _ -> None)
      in
      match via_result with
      | None -> None
      | Some (via, via_post) ->
          let rename_back =
            List.fold_left2
              (fun acc int_a comp_a -> Name.Map.add comp_a int_a acc)
              Name.Map.empty available comp_select
          in
          (* the columns the caller expects: the wanted attributes plus,
             for joined queries, the prefixed target/relationship ones *)
          let expected =
            wanted
            @ (match q.Ast.via with
              | None -> []
              | Some j ->
                  let twanted =
                    expand_select integrated j.Ast.target j.Ast.target_select
                  in
                  List.map
                    (fun a ->
                      Name.v (Name.to_string j.Ast.target ^ "_" ^ Name.to_string a))
                    twanted
                  @ List.map
                      (fun a ->
                        Name.v (Name.to_string j.Ast.rel ^ "_" ^ Name.to_string a))
                      j.Ast.rel_select)
          in
          let post rows =
            rows |> via_post
            |> Eval.rename_columns (fun n ->
                   Option.value ~default:n (Name.Map.find_opt n rename_back))
            |> List.map (fun r ->
                   List.fold_left
                     (fun r a -> Name.Map.add a Instance.Value.Null r)
                     r missing)
            |> Eval.project_rows expected
          in
          Some
            {
              component = entry.Integrate.Mapping.source.Qname.schema;
              query =
                {
                  Ast.from_class = entry.Integrate.Mapping.source.Qname.obj;
                  where = comp_where;
                  select = comp_select;
                  via;
                };
              post;
            })
    entries

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
  let all =
    List.concat_map
      (fun part ->
        if redundant part then []
        else
          match List.assoc_opt part.component stores with
          | None -> []
          | Some store -> part.post (Eval.run part.query store))
      parts
  in
  (* outer-union: exact duplicates collapse *)
  let seen = Hashtbl.create 64 in
  List.filter
    (fun r ->
      let key = Eval.row_to_string r in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    all

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
