open Ecr
module Store = Instance.Store
module Value = Instance.Value

type report = {
  entities_in : int;
  entities_out : int;
  fused : int;
  links_in : int;
  links_out : int;
}

(* Rename a component tuple into integrated attribute names. *)
let rename_tuple (entry : Integrate.Mapping.entry) tuple =
  Name.Map.fold
    (fun attr v acc ->
      match Name.Map.find_opt attr entry.Integrate.Mapping.attrs with
      | Some t -> Name.Map.add t.Integrate.Mapping.as_attr v acc
      | None -> Name.Map.add attr v acc)
    tuple Name.Map.empty

(* What migrating an entity needs besides its tuple.  It depends only
   on the component schema and the classes the entity was placed in,
   so [run] resolves it once per distinct class set. *)
type plan = {
  entries : Integrate.Mapping.entry list;  (** one per mapped class *)
  targets : Name.t list;  (** their integrated classes, sorted *)
  insertion : Name.t;
      (** the most specific target (one that no other target is a
          descendant of) *)
  keys : (Name.t * string) list;
      (** each key attribute visible on [insertion], with its fusion-key
          prefix *)
}

(* Fusion keys: every key attribute visible on the insertion class with
   a non-null value on the tuple.  Two incoming entities fuse when they
   agree on any one of these, scoped by the root of the insertion
   class's IS-A chain so unrelated classes can never cross-fuse. *)
let resolve mapping ~integrated sname classes =
  match
    List.filter_map
      (fun c -> Integrate.Mapping.object_entry (Qname.make sname c) mapping)
      classes
  with
  | [] -> None
  | first :: _ as entries ->
      let targets =
        List.map (fun (e : Integrate.Mapping.entry) -> e.target) entries
        |> List.sort_uniq Name.compare
      in
      let insertion =
        match
          List.filter
            (fun t ->
              not
                (List.exists
                   (fun t' ->
                     (not (Name.equal t t'))
                     && Schema.is_ancestor integrated ~ancestor:t t')
                   targets))
            targets
        with
        | t :: _ -> t
        | [] -> first.Integrate.Mapping.target
      in
      let root =
        match Schema.ancestors integrated insertion with
        | [] -> insertion
        | ancestors -> List.nth ancestors (List.length ancestors - 1)
      in
      let keys =
        Attribute.keys (Schema.all_attributes integrated insertion)
        |> Attribute.names
        |> List.map (fun k ->
               (k, Name.to_string root ^ "|" ^ Name.to_string k ^ "="))
      in
      Some { entries; targets; insertion; keys }

let key_pairs plan tuple =
  List.filter_map
    (fun (k, prefix) ->
      match Name.Map.find_opt k tuple with
      | Some v when not (Value.equal v Value.Null) ->
          Some (prefix ^ Value.to_string v)
      | _ -> None)
    plan.keys

let run mapping ~integrated components =
  Obs.Span.run "migrate" @@ fun () ->
  let store = ref (Store.create integrated) in
  let entities_in = ref 0
  and fused = ref 0
  and links_in = ref 0
  and links_out = ref 0 in
  (* (component schema, old oid) -> new oid *)
  let correspondence = Hashtbl.create 256 in
  (* (integrated class, key signature) -> oid, for fusion *)
  let by_key = Hashtbl.create 256 in

  (* ---- entities -------------------------------------------------- *)
  List.iter
    (fun (schema, comp_store) ->
      let sname = Schema.name schema in
      let plans = Hashtbl.create 16 in
      List.iter
        (fun old_oid ->
          incr entities_in;
          let classes = Store.classes_of old_oid comp_store in
          let plan =
            match Hashtbl.find_opt plans classes with
            | Some p -> p
            | None ->
                let p = resolve mapping ~integrated sname classes in
                Hashtbl.add plans classes p;
                p
          in
          match plan with
          | None -> ()
          | Some plan ->
              let comp_tuple = Store.tuple_of old_oid comp_store in
              let tuple =
                List.fold_left
                  (fun acc e ->
                    Name.Map.union
                      (fun _ v _ -> Some v)
                      acc (rename_tuple e comp_tuple))
                  Name.Map.empty plan.entries
              in
              let pairs = key_pairs plan tuple in
              let existing =
                List.find_map (Hashtbl.find_opt by_key) pairs
              in
              let new_oid =
                match existing with
                | Some oid ->
                    incr fused;
                    (* add class memberships and missing values *)
                    List.iter
                      (fun t -> store := Store.classify oid t !store)
                      plan.targets;
                    Name.Map.iter
                      (fun a v ->
                        if
                          Value.equal (Store.value oid a !store) Value.Null
                          && not (Value.equal v Value.Null)
                        then store := Store.set_value oid a v !store)
                      tuple;
                    List.iter (fun p -> Hashtbl.replace by_key p oid) pairs;
                    oid
                | None ->
                    let st, oid = Store.insert plan.insertion tuple !store in
                    store := st;
                    List.iter
                      (fun t ->
                        if not (Name.equal t plan.insertion) then
                          store := Store.classify oid t !store)
                      plan.targets;
                    List.iter (fun p -> Hashtbl.replace by_key p oid) pairs;
                    oid
              in
              Hashtbl.replace correspondence
                (Name.to_string sname, Store.Oid.to_int old_oid)
                new_oid)
        (Store.entities comp_store))
    components;

  (* ---- relationship instances ------------------------------------ *)
  let seen_links = Hashtbl.create 256 in
  List.iter
    (fun (schema, comp_store) ->
      let sname = Schema.name schema in
      List.iter
        (fun r ->
          let rel = r.Relationship.name in
          match
            Integrate.Mapping.relationship_entry (Qname.make sname rel) mapping
          with
          | None -> ()
          | Some entry ->
              List.iter
                (fun { Store.participants; values } ->
                  incr links_in;
                  let translated =
                    List.filter_map
                      (fun oid ->
                        Hashtbl.find_opt correspondence
                          (Name.to_string sname, Store.Oid.to_int oid))
                      participants
                  in
                  if List.length translated = List.length participants then begin
                    let values' = rename_tuple entry values in
                    let key =
                      Name.to_string entry.Integrate.Mapping.target
                      ^ "|"
                      ^ String.concat ","
                          (List.map
                             (fun o -> string_of_int (Store.Oid.to_int o))
                             translated)
                      ^ "|"
                      ^ String.concat ","
                          (List.map
                             (fun (k, v) ->
                               Name.to_string k ^ "=" ^ Value.to_string v)
                             (Name.Map.bindings values'))
                    in
                    if not (Hashtbl.mem seen_links key) then begin
                      Hashtbl.add seen_links key ();
                      incr links_out;
                      store :=
                        Store.relate entry.Integrate.Mapping.target translated
                          values' !store
                    end
                  end)
                (Store.links rel comp_store))
        (Schema.relationships schema))
    components;

  ( !store,
    {
      entities_in = !entities_in;
      entities_out = List.length (Store.entities !store);
      fused = !fused;
      links_in = !links_in;
      links_out = !links_out;
    } )
