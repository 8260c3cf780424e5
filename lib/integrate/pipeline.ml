open Ecr

type input = {
  schemas : Schema.t list;
  equivalence : Equivalence.t;
  object_assertions : Assertions.t;
  relationship_assertions : Assertions.t;
  naming : Naming.t;
  integrated_name : Name.t;
}

let input ?(naming = Naming.default) ?(name = "INTEGRATED") schemas equivalence
    object_assertions relationship_assertions =
  {
    schemas;
    equivalence;
    object_assertions;
    relationship_assertions;
    naming;
    integrated_name = Name.v name;
  }

let c_objects_out = Obs.Counter.make "integrate.objects_out"
let c_rels_out = Obs.Counter.make "integrate.relationships_out"
let c_warnings = Obs.Counter.make "integrate.warnings"

(* An integrated object class or relationship set, as the lattice or
   Rel_merge built it. *)
type structure = {
  id : Name.t;
  members : Qname.t list;
  generalises : Name.t list;
  attributes : Merge.placed list;
}

let origins structures =
  List.fold_left
    (fun acc s ->
      let origin =
        match (s.members, s.generalises) with
        | [ only ], _ -> Result.Original only
        | [], gen -> Result.Derived gen
        | several, _ -> Result.Equivalent several
      in
      Name.Map.add s.id origin acc)
    Name.Map.empty structures

let attr_components structures =
  List.fold_left
    (fun acc s ->
      Name.Map.add s.id
        (List.fold_left
           (fun acc p -> Name.Map.add p.Merge.attr.Attribute.name p.Merge.components acc)
           Name.Map.empty s.attributes)
        acc)
    Name.Map.empty structures

(* component attribute -> where the integrated schema holds it *)
let attr_locations structures =
  let table = Hashtbl.create 64 in
  List.iter
    (fun s ->
      List.iter
        (fun p ->
          List.iter
            (fun comp ->
              Hashtbl.replace table comp
                { Mapping.in_class = s.id; as_attr = p.Merge.attr.Attribute.name })
            p.Merge.components)
        s.attributes)
    structures;
  table

let entry locations source target attributes =
  let attrs =
    List.fold_left
      (fun acc a ->
        match Hashtbl.find_opt locations (Qname.Attr.make source a.Attribute.name) with
        | Some loc -> Name.Map.add a.Attribute.name loc acc
        | None -> acc)
      Name.Map.empty attributes
  in
  { Mapping.source; target; attrs }

let integrate inp =
  Obs.Span.run "integrate" @@ fun () ->
  let lattice =
    Obs.Span.run "integrate.lattice" @@ fun () ->
    Lattice.build ~naming:inp.naming ~schemas:inp.schemas
      ~equivalence:inp.equivalence ~matrix:inp.object_assertions ()
  in
  let used_names =
    List.fold_left
      (fun acc n -> Name.Set.add n.Lattice.id acc)
      Name.Set.empty lattice.Lattice.nodes
  in
  let rels =
    Obs.Span.run "integrate.rel_merge" @@ fun () ->
    Rel_merge.build ~naming:inp.naming ~used_names ~schemas:inp.schemas
      ~equivalence:inp.equivalence ~matrix:inp.relationship_assertions ~lattice
      ()
  in
  let objects =
    List.map
      (fun n ->
        {
          id = n.Lattice.id;
          members = n.Lattice.members;
          generalises = n.Lattice.derived_children;
          attributes = n.Lattice.attributes;
        })
      lattice.Lattice.nodes
  and relationships =
    List.map
      (fun m ->
        {
          id = m.Rel_merge.rel.Relationship.name;
          members = m.Rel_merge.members;
          generalises = m.Rel_merge.generalises;
          attributes = m.Rel_merge.attributes;
        })
      rels.Rel_merge.rels
  in
  let schema =
    Schema.make inp.integrated_name
      ~objects:
        (List.map
           (fun n ->
             let attrs = List.map (fun p -> p.Merge.attr) n.Lattice.attributes in
             match n.Lattice.parents with
             | [] -> Object_class.entity ~attrs n.Lattice.id
             | parents -> Object_class.category ~attrs ~parents n.Lattice.id)
           lattice.Lattice.nodes)
      ~relationships:(List.map (fun m -> m.Rel_merge.rel) rels.Rel_merge.rels)
  in
  let mapping =
    Obs.Span.run "integrate.mapping" @@ fun () ->
    let locations = attr_locations (objects @ relationships) in
    List.fold_left
      (fun m s ->
        let m =
          List.fold_left
            (fun m oc ->
              let source = Schema.qname s oc.Object_class.name in
              let target =
                Option.value ~default:oc.Object_class.name
                  (Lattice.node_of lattice source)
              in
              Mapping.add_object
                (entry locations source target oc.Object_class.attributes)
                m)
            m (Schema.objects s)
        in
        List.fold_left
          (fun m r ->
            let source = Schema.qname s r.Relationship.name in
            match Qname.Map.find_opt source rels.Rel_merge.rel_of with
            | None -> m
            | Some target ->
                Mapping.add_relationship
                  (entry locations source target r.Relationship.attributes)
                  m)
          m (Schema.relationships s))
      Mapping.empty inp.schemas
  in
  let warnings = lattice.Lattice.warnings @ rels.Rel_merge.warnings in
  Obs.Counter.add c_objects_out (List.length objects);
  Obs.Counter.add c_rels_out (List.length relationships);
  Obs.Counter.add c_warnings (List.length warnings);
  {
    Result.schema;
    object_origin = origins objects;
    relationship_origin = origins relationships;
    attr_components = attr_components (objects @ relationships);
    mapping;
    warnings;
  }

let quick ?naming ?name s1 s2 ~equivalences ~object_assertions
    ?(relationship_assertions = []) () =
  let equivalence =
    List.fold_left
      (fun eq (a, b) -> Equivalence.declare a b eq)
      (Equivalence.register_schema s2 (Equivalence.register_schema s1 Equivalence.empty))
      equivalences
  in
  let feed matrix facts =
    List.fold_left
      (fun acc (l, a, r) ->
        match acc with
        | Error _ as e -> e
        | Ok m -> Assertions.add l a r m)
      (Ok matrix) facts
  in
  match feed (Assertions.create [ s1; s2 ]) object_assertions with
  | Error c -> Error c
  | Ok objs -> (
      match
        feed (Assertions.create_for_relationships [ s1; s2 ]) relationship_assertions
      with
      | Error c -> Error c
      | Ok rels ->
          Ok (integrate (input ?naming ?name [ s1; s2 ] equivalence objs rels)))
