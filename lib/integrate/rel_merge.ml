open Ecr

type merged = {
  rel : Relationship.t;
  members : Qname.t list;
  generalises : Name.t list;
  attributes : Merge.placed list;
}

type t = {
  rels : merged list;
  rel_of : Name.t Qname.Map.t;
  warnings : string list;
}

type slot = { node : Name.t; card : Cardinality.t; role : Name.t option }

let build ?(naming = Naming.default) ?(used_names = Name.Set.empty) ~schemas
    ~equivalence ~matrix ~lattice () =
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun s -> warnings := s :: !warnings) fmt in

  let universe =
    List.concat_map
      (fun s ->
        List.map
          (fun r -> (Schema.qname s r.Relationship.name, r))
          (Schema.relationships s))
      schemas
  in
  let rels = List.map fst universe in
  let order = Merge.order rels in
  let def q =
    match List.assoc_opt q universe with
    | Some r -> r
    | None -> invalid_arg ("Rel_merge: unknown relationship " ^ Qname.to_string q)
  in

  (* Participants as lattice slots. *)
  let slot node p = { node; card = p.Relationship.card; role = p.Relationship.role } in
  let slots_of q =
    List.map
      (fun p ->
        (* a participant object class missing from the lattice can only
           happen on malformed input; keep the raw name *)
        slot
          (Option.value ~default:p.Relationship.obj
             (Lattice.node_of lattice (Qname.make q.Qname.schema p.Relationship.obj)))
          p)
      (def q).Relationship.participants
  in

  (* Match the participants of [slots2] against merged [slots1]; returns
     the widened slot list or None when some participant has no related
     counterpart. *)
  let match_slots slots1 slots2 =
    if List.length slots1 <> List.length slots2 then None
    else begin
      let remaining = ref (List.mapi (fun i s -> (i, s)) slots2) in
      let matched =
        List.filter_map
          (fun s1 ->
            let candidate =
              List.find_opt
                (fun (_, s2) -> Lattice.related lattice s1.node s2.node <> None)
                !remaining
            in
            match candidate with
            | None -> None
            | Some (i, s2) ->
                remaining := List.filter (fun (j, _) -> j <> i) !remaining;
                let node =
                  match Lattice.related lattice s1.node s2.node with
                  | Some general -> general
                  | None -> s1.node
                in
                Some
                  {
                    node;
                    card = Cardinality.union s1.card s2.card;
                    role = (match s1.role with Some _ -> s1.role | None -> s2.role);
                  })
          slots1
      in
      if List.length matched = List.length slots1 then Some matched else None
    end
  in

  (* Slots on one class must carry distinct roles to be told apart —
     the rule [Schema.validate] enforces on every relationship. *)
  let ambiguous slots =
    List.exists
      (fun s ->
        let same = List.filter (fun s' -> Name.equal s'.node s.node) slots in
        List.length same > 1
        &&
        let roles = List.filter_map (fun s' -> s'.role) same in
        List.length (List.sort_uniq Name.compare roles) <> List.length same)
      slots
  in

  (* --- equals-merge groups ---------------------------------------- *)
  let edges = Assertions.integration_edges matrix in
  let groups = Merge.groups ~order rels edges in

  (* split a group whose participants cannot be matched *)
  let groups =
    List.concat_map
      (fun group ->
        match group with
        | [] | [ _ ] -> [ group ]
        | first :: rest ->
            let ok, bad =
              List.fold_left
                (fun (slots, ok, bad) q ->
                  match match_slots slots (slots_of q) with
                  | Some widened -> (widened, q :: ok, bad)
                  | None -> (slots, ok, q :: bad))
                (slots_of first, [ first ], [])
                rest
              |> fun (_, ok, bad) -> (List.rev ok, List.rev bad)
            in
            List.iter
              (fun q ->
                warn
                  "relationship %s asserted equal but participants do not \
                   correspond; kept separate"
                  (Qname.to_string q))
              bad;
            ok :: List.map (fun q -> [ q ]) bad)
      groups
  in

  (* --- attributes: placed on the merged set itself ------------------ *)
  let attributes =
    Merge.attributes ~order
      (List.map (fun (q, r) -> (q, r.Relationship.attributes)) universe)
  in
  let classes =
    Equivalence.classes equivalence
    |> List.map (List.filter (fun qa -> order qa.Qname.Attr.owner < max_int))
    |> List.filter (fun cls -> cls <> [])
  in
  let merge_attrs members =
    let in_members qa = List.exists (Qname.equal qa.Qname.Attr.owner) members in
    List.filter_map
      (fun cls ->
        match List.filter in_members cls with
        | [] -> None
        | cls -> Merge.merged_attribute ~warn:(warn "%s") attributes cls)
      classes
    |> Merge.unique_attributes
    |> List.sort (fun a b ->
           compare
             (Merge.position attributes (List.hd a.Merge.components))
             (Merge.position attributes (List.hd b.Merge.components)))
  in
  let names = Merge.names used_names in
  (* [owners] are the component sets whose attributes it merges *)
  let merged id ~owners ~members ~generalises slots =
    let attributes = merge_attrs owners in
    {
      rel =
        Relationship.make
          ~attrs:(List.map (fun p -> p.Merge.attr) attributes)
          id
          (List.map
             (fun s -> Relationship.participant ?role:s.role s.node s.card)
             slots);
      members;
      generalises;
      attributes;
    }
  in

  (* A participant slot's minimum cardinality only binds the extents the
     component schemas governed.  When the integrated node also carries
     members contributed by schemas that do not have this relationship,
     total participation cannot be guaranteed any more and the minimum
     relaxes to 0 (the maximum is unaffected). *)
  let carrier_schemas node =
    let descendant_of target n =
      Lattice.is_ancestor_or_self lattice ~ancestor:target n.Lattice.id
    in
    List.concat_map
      (fun n ->
        if descendant_of node n then
          List.map (fun m -> m.Qname.schema) n.Lattice.members
        else [])
      lattice.Lattice.nodes
    |> List.sort_uniq Name.compare
  in
  let relax_slots members slots =
    let rel_schemas =
      List.map (fun m -> m.Qname.schema) members |> List.sort_uniq Name.compare
    in
    List.map
      (fun s ->
        let foreign =
          List.exists
            (fun carrier -> not (List.exists (Name.equal carrier) rel_schemas))
            (carrier_schemas s.node)
        in
        if foreign && Cardinality.total s.card then
          { s with card = Cardinality.make 0 s.card.Cardinality.max }
        else s)
      slots
  in

  (* --- build merged groups ----------------------------------------- *)
  let merged_groups =
    List.filter_map
      (fun group ->
        match group with
        | [] -> None
        | first :: rest ->
            let slots =
              List.fold_left
                (fun slots q ->
                  match match_slots slots (slots_of q) with
                  | Some widened -> widened
                  | None -> slots (* cannot happen: groups were split *))
                (slots_of first) rest
              |> relax_slots group
            in
            let id = Merge.group_name naming names group in
            Some (merged id ~owners:group ~members:group ~generalises:[] slots))
      groups
  in
  let rel_of =
    List.fold_left
      (fun acc m ->
        List.fold_left
          (fun acc q -> Qname.Map.add q m.rel.Relationship.name acc)
          acc m.members)
      Qname.Map.empty merged_groups
  in
  let group_of q =
    List.find_opt (fun m -> List.exists (Qname.equal q) m.members) merged_groups
  in

  (* --- derived generalisations ------------------------------------- *)
  let gen_pairs =
    List.filter_map
      (fun (a, b, assertion) ->
        match assertion with
        | Assertion.Contained_in | Assertion.Contains | Assertion.May_be
        | Assertion.Disjoint_integrable -> (
            match (group_of a, group_of b) with
            | Some ga, Some gb
              when not (Name.equal ga.rel.Relationship.name gb.rel.Relationship.name)
              ->
                Some (a, b, ga, gb)
            | _ -> None)
        | Assertion.Equal | Assertion.Disjoint_nonintegrable -> None)
      edges
    |> Merge.first_pairs (fun (_, _, ga, gb) ->
           (ga.rel.Relationship.name, gb.rel.Relationship.name))
  in
  let rel_slots m =
    List.map (fun p -> slot p.Relationship.obj p) m.rel.Relationship.participants
  in
  let derived =
    List.filter_map
      (fun (a, b, ga, gb) ->
        match match_slots (rel_slots ga) (rel_slots gb) with
        | None ->
            warn
              "relationship sets %s and %s related but participants do not \
               correspond; no derived set generated"
              (Qname.to_string a) (Qname.to_string b);
            None
        | Some slots when ambiguous slots ->
            (* a class paired with its own subclass widens both slots to
               one ancestor, leaving twin participants *)
            warn
              "relationship sets %s and %s related but participants widen to \
               one class without distinct roles; no derived set generated"
              (Qname.to_string a) (Qname.to_string b);
            None
        | Some slots ->
            let id = Merge.claim names (Naming.derived_name naming a b) in
            Some
              (merged id ~owners:(ga.members @ gb.members) ~members:[]
                 ~generalises:[ ga.rel.Relationship.name; gb.rel.Relationship.name ]
                 slots))
      gen_pairs
  in
  {
    rels = merged_groups @ derived;
    rel_of;
    warnings = List.rev !warnings;
  }
