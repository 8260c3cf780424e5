(* The reference instance migration: every entity resolves its mapping
   entries, target classes, insertion class and fusion keys from the
   integrated schema on its own, and reads its component tuple once per
   mapping entry.  It is the per-entity implementation the per-class-set
   plans of [Query.Migrate] replaced, kept here so the tests can check
   that the plans change nothing observable: same merged store, same
   report. *)

open Ecr
module Store = Instance.Store
module Value = Instance.Value

let rename_tuple (entry : Integrate.Mapping.entry) tuple =
  Name.Map.fold
    (fun attr v acc ->
      match Name.Map.find_opt attr entry.Integrate.Mapping.attrs with
      | Some t -> Name.Map.add t.Integrate.Mapping.as_attr v acc
      | None -> Name.Map.add attr v acc)
    tuple Name.Map.empty

let key_pairs integrated insertion tuple =
  let root =
    match Schema.ancestors integrated insertion with
    | [] -> insertion
    | ancestors -> List.nth ancestors (List.length ancestors - 1)
  in
  Attribute.keys (Schema.all_attributes integrated insertion)
  |> Attribute.names
  |> List.filter_map (fun k ->
         match Name.Map.find_opt k tuple with
         | Some v when not (Value.equal v Value.Null) ->
             Some
               (Name.to_string root ^ "|" ^ Name.to_string k ^ "="
              ^ Value.to_string v)
         | _ -> None)

let run mapping ~integrated components =
  let store = ref (Store.create integrated) in
  let entities_in = ref 0
  and fused = ref 0
  and links_in = ref 0
  and links_out = ref 0 in
  let correspondence = Hashtbl.create 256 in
  let by_key = Hashtbl.create 256 in
  List.iter
    (fun (schema, comp_store) ->
      let sname = Schema.name schema in
      List.iter
        (fun old_oid ->
          incr entities_in;
          let classes = Store.classes_of old_oid comp_store in
          let entries =
            List.filter_map
              (fun c ->
                Integrate.Mapping.object_entry (Qname.make sname c) mapping)
              classes
          in
          match entries with
          | [] -> ()
          | first :: _ ->
              let tuple =
                List.fold_left
                  (fun acc (e : Integrate.Mapping.entry) ->
                    Name.Map.union
                      (fun _ v _ -> Some v)
                      acc
                      (rename_tuple e (Store.tuple_of old_oid comp_store)))
                  Name.Map.empty entries
              in
              let target_classes =
                List.map
                  (fun (e : Integrate.Mapping.entry) -> e.Integrate.Mapping.target)
                  entries
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
                           target_classes))
                    target_classes
                with
                | t :: _ -> t
                | [] -> first.Integrate.Mapping.target
              in
              let pairs = key_pairs integrated insertion tuple in
              let existing = List.find_map (Hashtbl.find_opt by_key) pairs in
              let new_oid =
                match existing with
                | Some oid ->
                    incr fused;
                    List.iter
                      (fun t -> store := Store.classify oid t !store)
                      target_classes;
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
                    let st, oid = Store.insert insertion tuple !store in
                    store := st;
                    List.iter
                      (fun t ->
                        if not (Name.equal t insertion) then
                          store := Store.classify oid t !store)
                      target_classes;
                    List.iter (fun p -> Hashtbl.replace by_key p oid) pairs;
                    oid
              in
              Hashtbl.replace correspondence
                (Name.to_string sname, Store.Oid.to_int old_oid)
                new_oid)
        (Store.entities comp_store))
    components;
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
      Query.Migrate.entities_in = !entities_in;
      entities_out = List.length (Store.entities !store);
      fused = !fused;
      links_in = !links_in;
      links_out = !links_out;
    } )
