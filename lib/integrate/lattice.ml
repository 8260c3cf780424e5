open Ecr

type placed_attr = Merge.placed = {
  attr : Attribute.t;
  components : Qname.Attr.t list;
}

type node = {
  id : Name.t;
  members : Qname.t list;
  derived_children : Name.t list;
  parents : Name.t list;
  attributes : placed_attr list;
}

type t = {
  nodes : node list;
  node_of_class : Name.t Qname.Map.t;
  warnings : string list;
}

let build ?(naming = Naming.default) ~schemas ~equivalence ~matrix () =
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun s -> warnings := s :: !warnings) fmt in

  (* Universe of object classes, in (schema, declaration) order. *)
  let universe =
    List.concat_map
      (fun s -> List.map (fun oc -> (Schema.qname s oc.Object_class.name, oc)) (Schema.objects s))
      schemas
  in
  let objects = List.map fst universe in
  let order = Merge.order objects in
  let attributes =
    Merge.attributes ~order
      (List.map (fun (q, oc) -> (q, oc.Object_class.attributes)) universe)
  in
  let edges = Assertions.integration_edges matrix in

  (* --- 1. equals-merge and 2. the group nodes' names --------------- *)
  let names = Merge.names Name.Set.empty in
  let group_names =
    List.map
      (fun members -> (members, Merge.group_name naming names members))
      (Merge.groups ~order objects edges)
  in
  let node_of_class =
    List.fold_left
      (fun acc (members, final) ->
        List.fold_left (fun acc m -> Qname.Map.add m final acc) acc members)
      Qname.Map.empty group_names
  in
  let group_id q = Qname.Map.find q node_of_class in

  (* --- 3. IS-A edges and derived nodes ---------------------------- *)
  let lt_edges =
    List.filter_map
      (fun (a, b, assertion) ->
        match assertion with
        | Assertion.Contained_in -> Some (group_id a, group_id b)
        | Assertion.Contains -> Some (group_id b, group_id a)
        | _ -> None)
      edges
    |> List.filter (fun (c, p) -> not (Name.equal c p))
    |> List.sort_uniq compare
  in
  let gen_pairs =
    List.filter_map
      (fun (a, b, assertion) ->
        match assertion with
        | Assertion.May_be | Assertion.Disjoint_integrable ->
            let ga = group_id a and gb = group_id b in
            if Name.equal ga gb then begin
              warn "generalisation of %s and %s collapsed into one node"
                (Qname.to_string a) (Qname.to_string b);
              None
            end
            else Some (a, b, ga, gb)
        | _ -> None)
      edges
  in
  let derived_nodes =
    List.map
      (fun (qa, qb, ga, gb) ->
        (Merge.claim names (Naming.derived_name naming qa qb), ga, gb))
      (Merge.first_pairs (fun (_, _, ga, gb) -> (ga, gb)) gen_pairs)
  in

  (* --- 4. parent map and transitive reduction --------------------- *)
  let parents_raw =
    let add child parent m =
      let cur = Option.value ~default:Name.Set.empty (Name.Map.find_opt child m) in
      Name.Map.add child (Name.Set.add parent cur) m
    in
    let m =
      List.fold_left (fun m (c, p) -> add c p m) Name.Map.empty lt_edges
    in
    List.fold_left
      (fun m (d, ga, gb) -> add ga d (add gb d m))
      m derived_nodes
  in
  let parents_of id =
    Option.value ~default:Name.Set.empty (Name.Map.find_opt id parents_raw)
    |> Name.Set.elements
  in
  let rec ancestors_of ?(seen = Name.Set.empty) id =
    List.fold_left
      (fun seen p ->
        if Name.Set.mem p seen then seen
        else ancestors_of ~seen:(Name.Set.add p seen) p)
      seen (parents_of id)
  in
  let reduced_parents id =
    let ps = parents_of id in
    List.filter
      (fun p ->
        not
          (List.exists
             (fun p' ->
               (not (Name.equal p p')) && Name.Set.mem p (ancestors_of p'))
             ps))
      ps
  in

  (* --- 5. attribute placement ------------------------------------ *)
  let node_order =
    (* creation order of all node ids, for deterministic tie-breaks *)
    let ids =
      List.map snd group_names @ List.map (fun (id, _, _) -> id) derived_nodes
    in
    List.fold_left
      (fun (i, m) id -> (i + 1, Name.Map.add id i m))
      (0, Name.Map.empty) ids
    |> snd
  in
  (* each node's placed attributes, last placed first *)
  let attrs_at : (Name.t, placed_attr list) Hashtbl.t = Hashtbl.create 32 in
  let attrs_of_node id =
    List.rev (Option.value ~default:[] (Hashtbl.find_opt attrs_at id))
  in
  let place id comps =
    match Merge.merged_attribute ~warn:(warn "%s") attributes comps with
    | Some pa ->
        Hashtbl.replace attrs_at id
          (pa :: Option.value ~default:[] (Hashtbl.find_opt attrs_at id))
    | None -> ()
  in
  let classes =
    (* keep only attributes of object classes in our universe *)
    Equivalence.classes equivalence
    |> List.map (List.filter (fun qa -> order qa.Qname.Attr.owner < max_int))
    |> List.filter (fun cls -> cls <> [])
  in
  List.iter
    (fun cls ->
      let owner_nodes =
        List.map (fun qa -> group_id qa.Qname.Attr.owner) cls
        |> List.sort_uniq Name.compare
      in
      match owner_nodes with
      | [] -> ()
      | [ single ] -> place single cls
      | several ->
          let anc_or_self n = Name.Set.add n (ancestors_of n) in
          let common =
            List.fold_left
              (fun acc n -> Name.Set.inter acc (anc_or_self n))
              (anc_or_self (List.hd several))
              (List.tl several)
          in
          if Name.Set.is_empty common then begin
            warn
              "attribute equivalence class of %s spans unrelated classes; \
               kept separate"
              (Qname.Attr.to_string (List.hd cls));
            List.iter
              (fun n ->
                place n
                  (List.filter (fun qa -> Name.equal (group_id qa.Qname.Attr.owner) n) cls))
              several
          end
          else begin
            (* lowest common dominator: common nodes that are not an
               ancestor of another common node *)
            let lowest =
              Name.Set.filter
                (fun l ->
                  not
                    (Name.Set.exists
                       (fun c ->
                         (not (Name.equal c l)) && Name.Set.mem l (ancestors_of c))
                       common))
                common
            in
            let pick =
              Name.Set.elements lowest
              |> List.sort (fun a b ->
                     Int.compare
                       (Option.value ~default:max_int (Name.Map.find_opt a node_order))
                       (Option.value ~default:max_int (Name.Map.find_opt b node_order)))
              |> List.hd
            in
            place pick cls
          end)
    classes;

  (* --- 6. assemble nodes ------------------------------------------ *)
  let node id ~members ~derived_children =
    {
      id;
      members;
      derived_children;
      parents = reduced_parents id;
      attributes = Merge.unique_attributes (attrs_of_node id);
    }
  in
  let group_nodes =
    List.map
      (fun (members, id) -> node id ~members ~derived_children:[])
      group_names
  in
  let derived =
    List.map
      (fun (id, ga, gb) -> node id ~members:[] ~derived_children:[ ga; gb ])
      derived_nodes
  in
  {
    nodes = group_nodes @ derived;
    node_of_class;
    warnings = List.rev !warnings;
  }

(* ------------------------------------------------------------------ *)
(* Queries.                                                            *)

let node t id = List.find_opt (fun n -> Name.equal n.id id) t.nodes
let node_of t q = Qname.Map.find_opt q t.node_of_class

let parents t id =
  match node t id with Some n -> n.parents | None -> []

let ancestors t id =
  let rec walk queued = function
    | [] -> []
    | n :: queue ->
        let ps = List.filter (fun p -> not (Name.Set.mem p queued)) (parents t n) in
        let queued = List.fold_left (fun set p -> Name.Set.add p set) queued ps in
        ps @ walk queued (queue @ ps)
  in
  walk (Name.Set.singleton id) [ id ]

let is_ancestor_or_self t ~ancestor id =
  Name.equal ancestor id || List.exists (Name.equal ancestor) (ancestors t id)

let related t a b =
  if Name.equal a b then Some a
  else if is_ancestor_or_self t ~ancestor:a b then Some a
  else if is_ancestor_or_self t ~ancestor:b a then Some b
  else None

let entity_nodes t = List.filter (fun n -> n.parents = []) t.nodes
let category_nodes t = List.filter (fun n -> n.parents <> []) t.nodes

let all_attributes t id =
  let chain = id :: ancestors t id in
  let seen = ref Name.Set.empty in
  List.concat_map
    (fun n ->
      match node t n with
      | None -> []
      | Some nd ->
          List.filter
            (fun pa ->
              let name = pa.attr.Attribute.name in
              if Name.Set.mem name !seen then false
              else begin
                seen := Name.Set.add name !seen;
                true
              end)
            nd.attributes)
    chain
