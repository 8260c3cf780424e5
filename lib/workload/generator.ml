open Ecr

type params = {
  seed : int;
  schemas : int;
  concepts : int;
  attrs_per_concept : int;
  coverage : float;
  attr_coverage : float;
  naming_noise : float;
  relationship_concepts : int;
  population : int;
  subset_fraction : float;
  overlap_fraction : float;
}

let default_params =
  {
    seed = 42;
    schemas = 2;
    concepts = 12;
    attrs_per_concept = 4;
    coverage = 0.8;
    attr_coverage = 0.8;
    naming_noise = 0.3;
    relationship_concepts = 4;
    population = 400;
    subset_fraction = 0.25;
    overlap_fraction = 0.15;
  }

type t = {
  params : params;
  schemas : Schema.t list;
  oracle : Integrate.Dda.t;
  register : Integrate.Result.t -> unit;
  true_pairs : (Qname.t * Qname.t) list;
  related_pairs : (Qname.t * Qname.t * Integrate.Assertion.t) list;
  extent_of : Qname.t -> int list;
  link_pairs : Qname.t -> (int * int) list;
  attr_id : Qname.Attr.t -> int option;
}

(* ------------------------------------------------------------------ *)
(* Vocabulary: concept base names with their synonym variants.          *)

let class_vocab =
  [|
    ("employee", [ "worker"; "staff"; "emp" ]);
    ("department", [ "dept"; "division" ]);
    ("student", [ "pupil"; "stud" ]);
    ("course", [ "class_offering"; "subject" ]);
    ("project", [ "proj"; "initiative" ]);
    ("customer", [ "client"; "patron" ]);
    ("supplier", [ "vendor"; "provider" ]);
    ("product", [ "item"; "article" ]);
    ("invoice", [ "bill"; "receipt" ]);
    ("account", [ "acct"; "ledger" ]);
    ("building", [ "facility"; "site" ]);
    ("vehicle", [ "car"; "fleet_unit" ]);
    ("machine", [ "device"; "equipment" ]);
    ("order", [ "purchase"; "requisition" ]);
    ("warehouse", [ "depot"; "storehouse" ]);
    ("patient", [ "case"; "admittee" ]);
    ("doctor", [ "physician"; "clinician" ]);
    ("book", [ "volume"; "publication" ]);
    ("author", [ "writer"; "creator" ]);
    ("city", [ "town"; "municipality" ]);
  |]

let attr_vocab =
  [|
    ("name", [ "title"; "label" ]);
    ("number", [ "id"; "num" ]);
    ("salary", [ "pay"; "wage" ]);
    ("address", [ "location"; "addr" ]);
    ("phone", [ "telephone"; "tel" ]);
    ("budget", [ "funds"; "allocation" ]);
    ("status", [ "state"; "condition" ]);
    ("grade", [ "score"; "mark" ]);
    ("weight", [ "mass"; "heft" ]);
    ("color", [ "shade"; "hue" ]);
    ("price", [ "cost"; "amount" ]);
    ("capacity", [ "size"; "volume" ]);
  |]

let rel_vocab =
  [|
    ("works_in", [ "employed_by"; "assigned_to" ]);
    ("manages", [ "supervises"; "leads" ]);
    ("enrolled_in", [ "takes"; "registered_for" ]);
    ("supplies", [ "provides"; "delivers" ]);
    ("owns", [ "possesses"; "holds" ]);
    ("located_at", [ "sited_at"; "found_in" ]);
    ("orders", [ "requests"; "buys" ]);
    ("treats", [ "cares_for"; "attends" ]);
  |]

let capitalize s = String.capitalize_ascii s

let vocab_name vocab idx =
  let base, variants = vocab.(idx mod Array.length vocab) in
  let suffix = if idx < Array.length vocab then "" else string_of_int (idx / Array.length vocab + 1) in
  (base ^ suffix, List.map (fun v -> v ^ suffix) variants)

let noised g noise (base, variants) =
  if variants <> [] && Prng.bool g noise then Prng.pick g variants else base

(* ------------------------------------------------------------------ *)

module IntSet = Set.Make (Int)

type concept = {
  cid : int;
  c_names : string * string list;
  c_attrs : (int * (string * string list) * bool * Domain.t) list;
      (** attr id, name pool, key flag, domain *)
  extent : IntSet.t;
  parent : int option;
}

type rel_concept = {
  rid : int;
  r_names : string * string list;
  r_attrs : (int * (string * string list) * Domain.t) list;
  from_c : int;
  to_c : int;
  pairs : (int * int) list;
}

let attr_domain attr_id =
  match attr_id mod 3 with
  | 0 -> Domain.Char_string
  | 1 -> Domain.Integer
  | _ -> Domain.Real

let build_universe g p =
  let n_sub =
    Int.max 0 (int_of_float (p.subset_fraction *. float_of_int p.concepts))
  in
  let n_ov =
    Int.max 0 (int_of_float (p.overlap_fraction *. float_of_int p.concepts))
  in
  let n_roots = Int.max 1 (p.concepts - n_sub - n_ov) in
  let tags = List.init p.population Fun.id in
  let shuffled = Prng.shuffle g tags in
  (* partition the population across the roots *)
  let chunk = Int.max 1 (p.population / n_roots) in
  let root_extents =
    List.init n_roots (fun i ->
        let start = i * chunk in
        let stop = if i = n_roots - 1 then p.population else Int.min p.population (start + chunk) in
        List.filteri (fun j _ -> j >= start && j < stop) shuffled |> IntSet.of_list)
  in
  let next_attr = ref 0 in
  let make_attrs count =
    List.init count (fun slot ->
        let id = !next_attr in
        incr next_attr;
        ( id,
          vocab_name attr_vocab id,
          slot = 0,
          if slot = 0 then Domain.Char_string else attr_domain id ))
  in
  let roots =
    List.mapi
      (fun i extent ->
        {
          cid = i;
          c_names = vocab_name class_vocab i;
          c_attrs = make_attrs p.attrs_per_concept;
          extent;
          parent = None;
        })
      root_extents
  in
  let concepts = ref (List.rev roots) in
  let fresh_cid = ref (List.length roots) in
  let add c = concepts := c :: !concepts in
  (* subset children *)
  for _ = 1 to n_sub do
    let pool = List.filter (fun c -> IntSet.cardinal c.extent >= 4) !concepts in
    match pool with
    | [] -> ()
    | _ ->
        let parent = Prng.pick g pool in
        let members =
          IntSet.elements parent.extent
          |> Prng.sample g 0.5
          |> fun l -> if l = [] then [ IntSet.min_elt parent.extent ] else l
        in
        let members =
          (* proper subset: drop one element if we took everything *)
          if List.length members = IntSet.cardinal parent.extent then List.tl members
          else members
        in
        if members <> [] then begin
          let cid = !fresh_cid in
          incr fresh_cid;
          add
            {
              cid;
              c_names = vocab_name class_vocab cid;
              c_attrs = make_attrs p.attrs_per_concept;
              extent = IntSet.of_list members;
              parent = Some parent.cid;
            }
        end
  done;
  (* overlapping concepts *)
  for _ = 1 to n_ov do
    let pool = List.filter (fun c -> IntSet.cardinal c.extent >= 4) !concepts in
    match pool with
    | [] -> ()
    | _ ->
        let victim = Prng.pick g pool in
        let inside =
          Prng.sample g 0.4 (IntSet.elements victim.extent)
          |> fun l -> if l = [] then [ IntSet.min_elt victim.extent ] else l
        in
        (* the part outside the victim comes from a single sibling
           concept, so an overlap concept straddles exactly two concepts
           instead of poisoning the whole universe *)
        let siblings =
          List.filter
            (fun c ->
              c.cid <> victim.cid
              && IntSet.is_empty (IntSet.inter c.extent victim.extent))
            !concepts
        in
        let outside_pool =
          match siblings with
          | [] -> []
          | _ -> IntSet.elements (Prng.pick g siblings).extent
        in
        let outside =
          Prng.sample g 0.3 outside_pool
          |> fun l ->
          if l = [] && outside_pool <> [] then [ List.hd outside_pool ] else l
        in
        if outside <> [] then begin
          let cid = !fresh_cid in
          incr fresh_cid;
          add
            {
              cid;
              c_names = vocab_name class_vocab cid;
              c_attrs = make_attrs p.attrs_per_concept;
              extent = IntSet.of_list (inside @ outside);
              parent = victim.parent;
            }
        end
  done;
  let concepts = List.rev !concepts in
  (* relationship concepts *)
  let rels =
    if List.length concepts < 2 then []
    else
      List.init p.relationship_concepts (fun i ->
          let from_c = Prng.pick g concepts in
          let to_c = Prng.pick g (List.filter (fun c -> c.cid <> from_c.cid) concepts) in
          let from_tags = IntSet.elements from_c.extent
          and to_tags = IntSet.elements to_c.extent in
          let pairs =
            List.filter_map
              (fun a ->
                if Prng.bool g 0.5 then Some (a, Prng.pick g to_tags) else None)
              from_tags
            |> List.sort_uniq compare
          in
          let id0 = !next_attr in
          incr next_attr;
          {
            rid = i;
            r_names = vocab_name rel_vocab i;
            r_attrs = [ (id0, vocab_name attr_vocab id0, attr_domain id0) ];
            from_c = from_c.cid;
            to_c = to_c.cid;
            pairs;
          })
  in
  (concepts, rels)

(* ------------------------------------------------------------------ *)

let c_generated = Obs.Counter.make "workload.schemas_generated"

let generate (p : params) =
  Obs.Span.run "workload.generate" @@ fun () ->
  Obs.Counter.add c_generated p.schemas;
  let g = Prng.create p.seed in
  let concepts, rel_concepts = build_universe g p in
  let concept_by_id cid = List.find (fun c -> c.cid = cid) concepts in

  (* truth tables, keyed by string forms *)
  let extents : (string, IntSet.t) Hashtbl.t = Hashtbl.create 64 in
  let pair_extents : (string, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  let attr_concept : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let concept_of : (string, int) Hashtbl.t = Hashtbl.create 64 in

  let views =
    List.init p.schemas (fun vi ->
        let sname = Printf.sprintf "v%d" (vi + 1) in
        let gv = Prng.split g in
        (* choose concepts for this view, at least two *)
        (* Candidate concepts, then enforce ECR consistency: two classes
           may coexist as sibling entity sets only when their extents are
           disjoint; a proper subset of an included concept becomes a
           category of it; overlapping or equal extents force the
           candidate out.  Candidates are processed by decreasing extent
           size so a superset is always included before its subsets. *)
        let candidates = Prng.sample gv p.coverage concepts in
        let candidates =
          if List.length candidates >= 2 then candidates
          else List.filteri (fun i _ -> i < 2) (Prng.shuffle gv concepts)
        in
        let candidates =
          List.sort
            (fun c1 c2 ->
              Int.compare (IntSet.cardinal c2.extent) (IntSet.cardinal c1.extent))
            candidates
        in
        let chosen, view_parent =
          List.fold_left
            (fun (included, parent_of) c ->
              let rel_to d =
                Integrate.Rel.basic_of_extents Int.equal
                  (IntSet.elements c.extent) (IntSet.elements d.extent)
              in
              let rels = List.map (fun d -> (d, rel_to d)) included in
              if
                not
                  (List.for_all
                     (fun (_, r) -> r = Integrate.Rel.Dj || r = Integrate.Rel.Lt)
                     rels)
              then (included, parent_of)
              else begin
                (* smallest included superset, if any, becomes the parent *)
                let supersets =
                  List.filter_map
                    (fun (d, r) -> if r = Integrate.Rel.Lt then Some d else None)
                    rels
                in
                let parent =
                  List.fold_left
                    (fun best d ->
                      match best with
                      | None -> Some d
                      | Some b ->
                          if IntSet.cardinal d.extent < IntSet.cardinal b.extent
                          then Some d
                          else best)
                    None supersets
                in
                match parent with
                | Some d -> (included @ [ c ], (c.cid, d.cid) :: parent_of)
                | None -> (included @ [ c ], parent_of)
              end)
            ([], []) candidates
        in
        let chosen =
          (* keep a stable, declaration-like order: by concept id *)
          List.sort (fun a b -> Int.compare a.cid b.cid) chosen
        in
        let chosen_ids = List.map (fun c -> c.cid) chosen in
        let class_name_of = Hashtbl.create 16 in
        let objects =
          List.map
            (fun c ->
              let cname = capitalize (noised gv p.naming_noise c.c_names) in
              Hashtbl.replace class_name_of c.cid cname;
              c)
            chosen
          |> List.map (fun c ->
                 let cname = Hashtbl.find class_name_of c.cid in
                 let attrs =
                   List.filter_map
                     (fun (aid, names, key, dom) ->
                       if key || Prng.bool gv p.attr_coverage then begin
                         let aname = noised gv p.naming_noise names in
                         Some (aid, aname, key, dom)
                       end
                       else None)
                     c.c_attrs
                 in
                 (* record truth *)
                 let q = sname ^ "." ^ cname in
                 Hashtbl.replace extents q c.extent;
                 Hashtbl.replace concept_of q c.cid;
                 List.iter
                   (fun (aid, aname, _, _) ->
                     Hashtbl.replace attr_concept (q ^ "." ^ aname) aid)
                   attrs;
                 let parents =
                   match List.assoc_opt c.cid view_parent with
                   | Some pid -> [ Name.v (Hashtbl.find class_name_of pid) ]
                   | None -> []
                 in
                 let attr_list =
                   List.map
                     (fun (_, aname, key, dom) ->
                       Attribute.make ~key (Name.v aname) dom)
                     attrs
                 in
                 if parents = [] then
                   Object_class.entity ~attrs:attr_list (Name.v cname)
                 else
                   Object_class.category ~attrs:attr_list ~parents (Name.v cname))
        in
        let relationships =
          List.filter_map
            (fun rc ->
              if
                List.mem rc.from_c chosen_ids
                && List.mem rc.to_c chosen_ids
                && Prng.bool gv p.coverage
              then begin
                let rname = capitalize (noised gv p.naming_noise rc.r_names) in
                let q = sname ^ "." ^ rname in
                Hashtbl.replace pair_extents q rc.pairs;
                let attrs =
                  List.map
                    (fun (aid, names, dom) ->
                      let aname = noised gv p.naming_noise names in
                      Hashtbl.replace attr_concept (q ^ "." ^ aname) aid;
                      Attribute.make (Name.v aname) dom)
                    rc.r_attrs
                in
                Some
                  (Relationship.binary ~attrs (Name.v rname)
                     ( Name.v (Hashtbl.find class_name_of rc.from_c),
                       Cardinality.any )
                     (Name.v (Hashtbl.find class_name_of rc.to_c), Cardinality.any))
              end
              else None)
            rel_concepts
        in
        Schema.make (Name.v sname) ~objects ~relationships)
  in

  (* ---- oracle ----------------------------------------------------- *)
  let lookup_extent q = Hashtbl.find_opt extents (Qname.to_string q) in
  let lookup_pairs q = Hashtbl.find_opt pair_extents (Qname.to_string q) in
  let basic_to_assertion a b = function
    | Integrate.Rel.Eq -> Integrate.Assertion.Equal
    | Integrate.Rel.Lt -> Integrate.Assertion.Contained_in
    | Integrate.Rel.Gt -> Integrate.Assertion.Contains
    | Integrate.Rel.Ov -> Integrate.Assertion.May_be
    | Integrate.Rel.Dj ->
        (* integrable iff sibling concepts (a meaningful generalisation
           exists); unknown concepts default to nonintegrable *)
        let parent q =
          Option.map
            (fun cid -> (concept_by_id cid).parent)
            (Hashtbl.find_opt concept_of (Qname.to_string q))
        in
        if
          (match (parent a, parent b) with
          | Some (Some x), Some (Some y) -> x = y
          | _ -> false)
        then Integrate.Assertion.Disjoint_integrable
        else Integrate.Assertion.Disjoint_nonintegrable
  in
  let object_assertion a b =
    match (lookup_extent a, lookup_extent b) with
    | Some ea, Some eb when not (IntSet.is_empty ea || IntSet.is_empty eb) ->
        let basic =
          Integrate.Rel.basic_of_extents Int.equal (IntSet.elements ea)
            (IntSet.elements eb)
        in
        Some (basic_to_assertion a b basic)
    | _ -> None
  in
  let relationship_assertion a b =
    match (lookup_pairs a, lookup_pairs b) with
    | Some pa, Some pb when pa <> [] && pb <> [] ->
        let basic = Integrate.Rel.basic_of_extents ( = ) pa pb in
        Some
          (match basic with
          | Integrate.Rel.Eq -> Integrate.Assertion.Equal
          | Integrate.Rel.Lt -> Integrate.Assertion.Contained_in
          | Integrate.Rel.Gt -> Integrate.Assertion.Contains
          | Integrate.Rel.Ov -> Integrate.Assertion.May_be
          | Integrate.Rel.Dj -> Integrate.Assertion.Disjoint_nonintegrable)
    | _ -> None
  in
  let oracle =
    {
      Integrate.Dda.label = "ground-truth";
      attr_equivalent =
        (fun (qa, _) (qb, _) ->
          match
            ( Hashtbl.find_opt attr_concept (Qname.Attr.to_string qa),
              Hashtbl.find_opt attr_concept (Qname.Attr.to_string qb) )
          with
          | Some x, Some y -> x = y
          | _ -> false);
      object_assertion;
      relationship_assertion;
      resolve_conflict = (fun _ -> Integrate.Dda.Withdraw);
    }
  in
  let register (result : Integrate.Result.t) =
    let rname = Schema.name result.Integrate.Result.schema in
    List.iter
      (fun oc ->
        let id = oc.Object_class.name in
        let comps = Integrate.Result.component_structures result id in
        let ext =
          List.fold_left
            (fun acc c ->
              match Hashtbl.find_opt extents (Qname.to_string c) with
              | Some e -> IntSet.union acc e
              | None -> acc)
            IntSet.empty comps
        in
        if not (IntSet.is_empty ext) then
          Hashtbl.replace extents
            (Qname.to_string (Qname.make rname id))
            ext;
        (* attribute concepts propagate through provenance *)
        Name.Map.iter
          (fun attr comps ->
            match comps with
            | first :: _ -> (
                match
                  Hashtbl.find_opt attr_concept (Qname.Attr.to_string first)
                with
                | Some cid ->
                    Hashtbl.replace attr_concept
                      (Qname.to_string (Qname.make rname id)
                      ^ "." ^ Name.to_string attr)
                      cid
                | None -> ())
            | [] -> ())
          (Option.value ~default:Name.Map.empty
             (Name.Map.find_opt id result.Integrate.Result.attr_components)))
      (Schema.objects result.Integrate.Result.schema);
    List.iter
      (fun r ->
        let id = r.Relationship.name in
        let comps = Integrate.Result.component_structures result id in
        let pairs =
          List.concat_map
            (fun c ->
              Option.value ~default:[]
                (Hashtbl.find_opt pair_extents (Qname.to_string c)))
            comps
          |> List.sort_uniq compare
        in
        if pairs <> [] then
          Hashtbl.replace pair_extents
            (Qname.to_string (Qname.make rname id))
            pairs)
      (Schema.relationships result.Integrate.Result.schema)
  in

  (* ---- true pairs -------------------------------------------------- *)
  let classes_of_view s =
    List.map (fun oc -> Schema.qname s oc.Object_class.name) (Schema.objects s)
  in
  let rec view_pairs = function
    | [] -> []
    | s :: rest -> List.map (fun s' -> (s, s')) rest @ view_pairs rest
  in
  let true_pairs = ref [] and related_pairs = ref [] in
  List.iter
    (fun (s1, s2) ->
      List.iter
        (fun q1 ->
          List.iter
            (fun q2 ->
              let c1 = Hashtbl.find_opt concept_of (Qname.to_string q1)
              and c2 = Hashtbl.find_opt concept_of (Qname.to_string q2) in
              (match (c1, c2) with
              | Some x, Some y when x = y -> true_pairs := (q1, q2) :: !true_pairs
              | _ -> ());
              match object_assertion q1 q2 with
              | Some a when Integrate.Assertion.integrable a ->
                  related_pairs := (q1, q2, a) :: !related_pairs
              | _ -> ())
            (classes_of_view s2))
        (classes_of_view s1))
    (view_pairs views);

  let extent_of q =
    match lookup_extent q with Some e -> IntSet.elements e | None -> []
  in
  let link_pairs q = Option.value ~default:[] (lookup_pairs q) in
  let attr_id qa = Hashtbl.find_opt attr_concept (Qname.Attr.to_string qa) in
  {
    params = p;
    schemas = views;
    oracle;
    register;
    true_pairs = List.rev !true_pairs;
    related_pairs = List.rev !related_pairs;
    extent_of;
    link_pairs;
    attr_id;
  }

let noisy_oracle t ~error_rate ~seed =
  let g = Prng.create seed in
  let all_assertions =
    [
      Integrate.Assertion.Equal;
      Integrate.Assertion.Contained_in;
      Integrate.Assertion.Contains;
      Integrate.Assertion.Disjoint_integrable;
      Integrate.Assertion.May_be;
      Integrate.Assertion.Disjoint_nonintegrable;
    ]
  in
  {
    t.oracle with
    Integrate.Dda.label = Printf.sprintf "noisy(%.2f)" error_rate;
    object_assertion =
      (fun a b ->
        match t.oracle.Integrate.Dda.object_assertion a b with
        | Some truth when Prng.bool g error_rate ->
            let wrong =
              List.filter
                (fun x -> not (Integrate.Assertion.equal x truth))
                all_assertions
            in
            Some (Prng.pick g wrong)
        | answer -> answer);
  }

(* ------------------------------------------------------------------ *)
(* Instances.                                                          *)

let value_for ~attr_id ~tag dom =
  match dom with
  | Domain.Char_string -> Instance.Value.Str (Printf.sprintf "s%d_%d" attr_id tag)
  | Domain.Integer -> Instance.Value.Int ((tag * 31) + attr_id)
  | Domain.Real -> Instance.Value.Real (float_of_int ((tag * 7) + attr_id) /. 4.0)
  | Domain.Boolean -> Instance.Value.Bool ((tag + attr_id) mod 2 = 0)
  | Domain.Date ->
      Instance.Value.Date (1980 + (tag mod 40), 1 + (attr_id mod 12), 1 + (tag mod 28))
  | Domain.Enum values -> (
      match values with
      | [] -> Instance.Value.Null
      | vs -> Instance.Value.Str (List.nth vs (tag mod List.length vs)))
  | Domain.Named _ -> Instance.Value.Str (Printf.sprintf "n%d_%d" attr_id tag)

(* Per-schema population only reads the truth tables built by
   [generate] (never writes them); each schema gets its own store, in
   schema order. *)
let populate ?schemas t =
  let schemas = Option.value ~default:t.schemas schemas in
  List.map
    (fun s ->
      let store = ref (Instance.Store.create s) in
      let tag_oid = Hashtbl.create 256 in
      let qname cls = Qname.make (Schema.name s) cls in
      let classes = Schema.objects s in
      let tags_of cls = t.extent_of (qname cls.Object_class.name) in
      let all_tags =
        List.concat_map tags_of classes |> List.sort_uniq Int.compare
      in
      List.iter
        (fun tag ->
          let containing =
            List.filter (fun c -> List.mem tag (tags_of c)) classes
            |> List.map (fun c -> c.Object_class.name)
          in
          (* place at the most specific classes; membership propagates
             to ancestors *)
          let specific =
            List.filter
              (fun c ->
                not
                  (List.exists
                     (fun c' ->
                       (not (Name.equal c c'))
                       && Schema.is_ancestor s ~ancestor:c c')
                     containing))
              containing
          in
          match specific with
          | [] -> ()
          | first :: others ->
              let tuple =
                List.fold_left
                  (fun acc cls ->
                    let owner = qname cls in
                    match Schema.find_object cls s with
                    | None -> acc
                    | Some oc ->
                        List.fold_left
                          (fun acc (a : Attribute.t) ->
                            let v =
                              if a.Attribute.key then
                                Instance.Value.Str (Printf.sprintf "e%d" tag)
                              else
                                match
                                  t.attr_id (Qname.Attr.make owner a.Attribute.name)
                                with
                                | Some attr_id ->
                                    value_for ~attr_id ~tag a.Attribute.domain
                                | None ->
                                    value_for ~attr_id:0 ~tag a.Attribute.domain
                            in
                            Name.Map.add a.Attribute.name v acc)
                          acc oc.Object_class.attributes)
                  Name.Map.empty containing
              in
              let st, oid = Instance.Store.insert first tuple !store in
              store := st;
              List.iter
                (fun c -> store := Instance.Store.classify oid c !store)
                others;
              Hashtbl.replace tag_oid tag oid)
        all_tags;
      (* relationship instances from the pair extents *)
      List.iter
        (fun r ->
          let rq = qname r.Relationship.name in
          List.iter
            (fun (tag1, tag2) ->
              match (Hashtbl.find_opt tag_oid tag1, Hashtbl.find_opt tag_oid tag2) with
              | Some o1, Some o2 ->
                  let values =
                    List.fold_left
                      (fun acc (a : Attribute.t) ->
                        match t.attr_id (Qname.Attr.make rq a.Attribute.name) with
                        | Some attr_id ->
                            Name.Map.add a.Attribute.name
                              (value_for ~attr_id ~tag:((tag1 * 131) + tag2)
                                 a.Attribute.domain)
                              acc
                        | None -> acc)
                      Name.Map.empty r.Relationship.attributes
                  in
                  store :=
                    Instance.Store.relate r.Relationship.name [ o1; o2 ] values
                      !store
              | _ -> ())
            (t.link_pairs rq))
        (Schema.relationships s);
      (s, !store))
    schemas
