open Ecr

type merged = {
  rel : Relationship.t;
  members : Qname.t list;
  generalises : Name.t list;
  attr_components : (Name.t * Qname.Attr.t list) list;
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
  let index_of =
    List.fold_left
      (fun (i, m) (q, _) -> (i + 1, Qname.Map.add q i m))
      (0, Qname.Map.empty) universe
    |> snd
  in
  let order q = Option.value ~default:max_int (Qname.Map.find_opt q index_of) in
  let def_of q = List.assoc_opt q (List.map (fun (q, r) -> (q, r)) universe) in
  let def q =
    match def_of q with
    | Some r -> r
    | None -> invalid_arg ("Rel_merge: unknown relationship " ^ Qname.to_string q)
  in

  (* Participants as lattice slots. *)
  let slots_of q =
    let r = def q in
    List.map
      (fun p ->
        let pq = Qname.make q.Qname.schema p.Relationship.obj in
        match Lattice.node_of lattice pq with
        | Some node -> { node; card = p.Relationship.card; role = p.Relationship.role }
        | None ->
            (* participant object class missing from the lattice can only
               happen on malformed input; keep the raw name *)
            { node = p.Relationship.obj; card = p.Relationship.card; role = p.Relationship.role })
      r.Relationship.participants
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
            | Some ((i, s2) as hit) ->
                ignore hit;
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
  let uf = Hashtbl.create 16 in
  let rec find q =
    match Hashtbl.find_opt uf (Qname.to_string q) with
    | None -> q
    | Some p -> if Qname.equal p q then q else find p
  in
  let union a b =
    let ra = find a and rb = find b in
    if not (Qname.equal ra rb) then begin
      let keep, absorb = if order ra <= order rb then (ra, rb) else (rb, ra) in
      Hashtbl.replace uf (Qname.to_string absorb) keep
    end
  in
  List.iter
    (fun (a, b, assertion) ->
      if assertion = Assertion.Equal then union a b)
    edges;
  let groups_tbl = Hashtbl.create 16 in
  List.iter
    (fun (q, _) ->
      let r = find q in
      let key = Qname.to_string r in
      let cur = Option.value ~default:[] (Hashtbl.find_opt groups_tbl key) in
      Hashtbl.replace groups_tbl key (q :: cur))
    universe;
  let groups =
    Hashtbl.fold
      (fun _ members acc ->
        List.sort (fun a b -> Int.compare (order a) (order b)) members :: acc)
      groups_tbl []
    |> List.sort (fun a b ->
           match (a, b) with
           | x :: _, y :: _ -> Int.compare (order x) (order y)
           | _ -> 0)
  in

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

  (* --- naming ------------------------------------------------------ *)
  let used = ref used_names in
  let claim n =
    let n' = Naming.uniquify !used n in
    used := Name.Set.add n' !used;
    n'
  in

  (* --- attribute merge for a member list --------------------------- *)
  let attr_def =
    let table = Hashtbl.create 32 in
    List.iter
      (fun (q, r) ->
        List.iteri
          (fun i a ->
            Hashtbl.replace table
              (Qname.Attr.to_string (Qname.Attr.make q a.Attribute.name))
              (a, i))
          r.Relationship.attributes)
      universe;
    table
  in
  let find_attr qa = Hashtbl.find_opt attr_def (Qname.Attr.to_string qa) in
  let merge_attrs members =
    let in_members qa = List.exists (Qname.equal qa.Qname.Attr.owner) members in
    let classes =
      Equivalence.classes equivalence
      |> List.map (List.filter in_members)
      |> List.filter (fun cls -> cls <> [])
    in
    let attr_key qa =
      match find_attr qa with
      | Some (_, pos) -> (order qa.Qname.Attr.owner, pos)
      | None -> (max_int, max_int)
    in
    let used_attrs = ref Name.Set.empty in
    List.filter_map
      (fun cls ->
        let cls = List.sort (fun a b -> compare (attr_key a) (attr_key b)) cls in
        let defs = List.filter_map (fun c -> Option.map fst (find_attr c)) cls in
        match (cls, defs) with
        | [], _ | _, [] -> None
        | first :: _, d0 :: drest ->
            let domain =
              List.fold_left
                (fun acc d ->
                  match Domain.join acc d.Attribute.domain with
                  | Some j -> j
                  | None ->
                      warn "incompatible domains merged for %s"
                        (Qname.Attr.to_string first);
                      acc)
                d0.Attribute.domain drest
            in
            let key = List.for_all (fun d -> d.Attribute.key) defs in
            let base =
              if List.length cls > 1 then
                Naming.merged_attribute_name first.Qname.Attr.attr
              else first.Qname.Attr.attr
            in
            let name = Naming.uniquify !used_attrs base in
            used_attrs := Name.Set.add name !used_attrs;
            Some (Attribute.make ~key name domain, cls))
      classes
    |> List.sort (fun (_, c1) (_, c2) ->
           compare (attr_key (List.hd c1)) (attr_key (List.hd c2)))
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
            let id =
              match group with
              | [ only ] ->
                  if Name.Set.mem only.Qname.obj !used then
                    claim (Naming.qualified only)
                  else claim only.Qname.obj
              | _ -> claim (Naming.equivalent_name naming group)
            in
            let attrs = merge_attrs group in
            let participants =
              List.map
                (fun s -> Relationship.participant ?role:s.role s.node s.card)
                slots
            in
            Some
              {
                rel =
                  Relationship.make
                    ~attrs:(List.map fst attrs)
                    id participants;
                members = group;
                generalises = [];
                attr_components =
                  List.map (fun (a, cls) -> (a.Attribute.name, cls)) attrs;
              })
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
  let gen_edges =
    List.filter_map
      (fun (a, b, assertion) ->
        match assertion with
        | Assertion.Contained_in | Assertion.Contains | Assertion.May_be
        | Assertion.Disjoint_integrable ->
            Some (a, b)
        | Assertion.Equal | Assertion.Disjoint_nonintegrable -> None)
      edges
  in
  let seen_gen = Hashtbl.create 8 in
  let derived =
    List.filter_map
      (fun (a, b) ->
        match (group_of a, group_of b) with
        | Some ga, Some gb
          when not (Name.equal ga.rel.Relationship.name gb.rel.Relationship.name)
          -> (
            let key =
              let na = Name.to_string ga.rel.Relationship.name
              and nb = Name.to_string gb.rel.Relationship.name in
              if na <= nb then na ^ "/" ^ nb else nb ^ "/" ^ na
            in
            if Hashtbl.mem seen_gen key then None
            else begin
              Hashtbl.add seen_gen key ();
              match
                match_slots
                  (List.map
                     (fun p ->
                       {
                         node = p.Relationship.obj;
                         card = p.Relationship.card;
                         role = p.Relationship.role;
                       })
                     ga.rel.Relationship.participants)
                  (List.map
                     (fun p ->
                       {
                         node = p.Relationship.obj;
                         card = p.Relationship.card;
                         role = p.Relationship.role;
                       })
                     gb.rel.Relationship.participants)
              with
              | None ->
                  warn
                    "relationship sets %s and %s related but participants do \
                     not correspond; no derived set generated"
                    (Qname.to_string a) (Qname.to_string b);
                  None
              | Some slots when ambiguous slots ->
                  (* a class paired with its own subclass widens both
                     slots to one ancestor, leaving twin participants *)
                  warn
                    "relationship sets %s and %s related but participants \
                     widen to one class without distinct roles; no derived \
                     set generated"
                    (Qname.to_string a) (Qname.to_string b);
                  None
              | Some slots ->
                  let id = claim (Naming.derived_name naming a b) in
                  let attrs = merge_attrs (ga.members @ gb.members) in
                  let participants =
                    List.map
                      (fun s ->
                        Relationship.participant ?role:s.role s.node s.card)
                      slots
                  in
                  Some
                    {
                      rel =
                        Relationship.make
                          ~attrs:(List.map fst attrs)
                          id participants;
                      members = [];
                      generalises =
                        [ ga.rel.Relationship.name; gb.rel.Relationship.name ];
                      attr_components =
                        List.map
                          (fun (at, cls) -> (at.Attribute.name, cls))
                          attrs;
                    }
            end)
        | _ -> None)
      gen_edges
  in
  {
    rels = merged_groups @ derived;
    rel_of;
    warnings = List.rev !warnings;
  }
