open Ecr
module Store = Instance.Store
module Value = Instance.Value
module Mapping = Integrate.Mapping

type report = {
  entities_in : int;
  entities_out : int;
  fused : int;
  links_in : int;
  links_out : int;
}

(* Rename a component tuple into integrated attribute names.  An
   attribute the entry does not map is dropped: no integrated class
   declares it, so no query, update or view could read it. *)
let rename (entry : Mapping.entry) tuple =
  Name.Map.fold
    (fun attr v acc ->
      match Name.Map.find_opt attr entry.Mapping.attrs with
      | Some t -> Name.Map.add t.Mapping.as_attr v acc
      | None -> acc)
    tuple Name.Map.empty

(* The component columns that feed one integrated attribute, in
   precedence order: the first that holds a value for an entity gives
   the entity's value (which may be a stored [Null]). *)
type feed = { attr : Name.t; sources : Store.column list }

let rec read oid = function
  | [] -> Value.Null
  | col :: cols -> (
      match Store.find col oid with Some v -> v | None -> read oid cols)

(* What migrating an entity of one component store needs.  It depends
   only on the classes the entity was placed in, so [run] compiles it
   once per component store and class set. *)
type plan = {
  targets : Name.t list;  (** the mapped classes' integrated classes *)
  insertion : Name.t;
      (** the most specific target (one that no other target is a
          descendant of) *)
  root : Name.t;  (** the root of [insertion]'s IS-A chain *)
  feeds : feed list;  (** one per integrated attribute the classes map *)
  keys : feed list;
      (** each key attribute visible on [insertion] that some class
          maps, in declaration order *)
}

(* Which component attributes feed each integrated attribute.  Of two
   mapping entries the first wins; within one entry, of two attributes
   mapped to one name the later in name order wins. *)
let sources entries =
  let of_entry (e : Mapping.entry) =
    Name.Map.fold
      (fun a (t : Mapping.attr_target) m ->
        Name.Map.update t.Mapping.as_attr
          (fun later -> Some (a :: Option.value ~default:[] later))
          m)
      e.Mapping.attrs Name.Map.empty
  in
  let first_wins _ first later = Some (first @ later) in
  List.fold_left
    (fun acc e -> Name.Map.union first_wins acc (of_entry e))
    Name.Map.empty entries

let compile mapping ~integrated sname comp_store classes =
  match
    List.filter_map
      (fun c -> Mapping.object_entry (Qname.make sname c) mapping)
      classes
  with
  | [] -> None
  | first :: _ as entries ->
      let targets =
        List.map (fun (e : Mapping.entry) -> e.target) entries
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
        | [] -> first.Mapping.target
      in
      let root =
        match Schema.ancestors integrated insertion with
        | [] -> insertion
        | ancestors -> List.nth ancestors (List.length ancestors - 1)
      in
      let sources = sources entries in
      let feed attr attrs =
        { attr; sources = List.map (fun a -> Store.column a comp_store) attrs }
      in
      let keys =
        Attribute.keys (Schema.all_attributes integrated insertion)
        |> Attribute.names
        |> List.filter_map (fun k ->
               Option.map (feed k) (Name.Map.find_opt k sources))
      in
      let feeds =
        Name.Map.fold (fun a attrs acc -> feed a attrs :: acc) sources []
      in
      Some { targets; insertion; root; feeds; keys }

(* A fusion key: a key attribute's value, scoped by the root of the
   insertion class's IS-A chain so unrelated classes never cross-fuse.
   Values compare as [Value.equal] does. *)
module Fusion_key = Hashtbl.Make (struct
  type t = Name.t * Name.t * Value.t

  let equal (r, k, v) (r', k', v') =
    Name.equal r r' && Name.equal k k' && Value.equal v v'

  let hash (r, k, v) =
    (((Name.hash r * 31) + Name.hash k) * 31) + Value.hash v
end)

(* A link of the merged store: its relationship set, participants and
   values.  Exact duplicates collapse. *)
module Link_key = Hashtbl.Make (struct
  type t = Name.t * Store.Oid.t list * Store.tuple

  let equal (r, ps, vs) (r', ps', vs') =
    Name.equal r r'
    && List.equal Store.Oid.equal ps ps'
    && Name.Map.equal Value.equal vs vs'

  let hash (r, ps, vs) =
    let mix h x = (h * 31) + x in
    let h =
      List.fold_left (fun h p -> mix h (Store.Oid.to_int p)) (Name.hash r) ps
    in
    Name.Map.fold (fun a v h -> mix (mix h (Name.hash a)) (Value.hash v)) vs h
end)

(* One entity of the merged store, gathered from the component entities
   that fuse into it before it is written. *)
type slot = {
  index : int;  (** its position in the merged store's insertion order *)
  insertion : Name.t;  (** its first constituent's insertion class *)
  mutable targets : Name.t list list;  (** each constituent plan's targets *)
  mutable values : Store.tuple;  (** each attribute's first non-null value *)
}

let run mapping ~integrated components =
  Obs.Span.run "migrate" @@ fun () ->
  let entities_in = ref 0 and fused = ref 0 in
  let by_key = Fusion_key.create 256 in
  let slots = ref [] and n_slots = ref 0 in

  (* ---- each entity's merged slot, in one pass ---------------------- *)
  let place entries (schema, comp_store) =
    let sname = Schema.name schema in
    let plans = Hashtbl.create 16 in
    (* component oid -> slot index *)
    let placed = Hashtbl.create 256 in
    List.iter
      (fun (oid, classes) ->
        incr entities_in;
        let plan =
          match Hashtbl.find_opt plans classes with
          | Some p -> p
          | None ->
              let p = compile mapping ~integrated sname comp_store classes in
              Hashtbl.add plans classes p;
              p
        in
        match plan with
        | None -> ()
        | Some plan ->
            let keys =
              List.filter_map
                (fun { attr; sources } ->
                  match read oid sources with
                  | Value.Null -> None
                  | v -> Some (plan.root, attr, v))
                plan.keys
            in
            let slot =
              match List.find_map (Fusion_key.find_opt by_key) keys with
              | Some slot ->
                  incr fused;
                  if not (List.memq plan.targets slot.targets) then
                    slot.targets <- plan.targets :: slot.targets;
                  slot
              | None ->
                  let slot =
                    {
                      index = !n_slots;
                      insertion = plan.insertion;
                      targets = [ plan.targets ];
                      values = Name.Map.empty;
                    }
                  in
                  incr n_slots;
                  slots := slot :: !slots;
                  slot
            in
            List.iter
              (fun { attr; sources } ->
                if not (Name.Map.mem attr slot.values) then
                  match read oid sources with
                  | Value.Null -> ()
                  | v -> slot.values <- Name.Map.add attr v slot.values)
              plan.feeds;
            List.iter (fun k -> Fusion_key.replace by_key k slot) keys;
            Hashtbl.replace placed oid slot.index)
      (Store.placements comp_store);
    placed :: entries
  in
  let placed = List.rev (List.fold_left place [] components) in

  (* ---- each merged entity, written once ---------------------------- *)
  let store, oids =
    List.fold_left
      (fun (store, oids) slot ->
        let store, oid = Store.insert slot.insertion slot.values store in
        let store =
          List.fold_left
            (fun store t ->
              if Name.equal t slot.insertion then store
              else Store.classify oid t store)
            store
            (List.sort_uniq Name.compare (List.concat slot.targets))
        in
        (store, oid :: oids))
      (Store.create integrated, [])
      (List.rev !slots)
  in
  let oids = Array.of_list (List.rev oids) in

  (* ---- relationship instances -------------------------------------- *)
  let links_in = ref 0 in
  let seen = Link_key.create 64 in
  let relate_all store (schema, comp_store) placed =
    let sname = Schema.name schema in
    List.fold_left
      (fun store r ->
        let rel = r.Relationship.name in
        match Mapping.relationship_entry (Qname.make sname rel) mapping with
        | None -> store
        | Some entry ->
            List.fold_left
              (fun store { Store.participants; values } ->
                incr links_in;
                match
                  List.map (fun p -> oids.(Hashtbl.find placed p)) participants
                with
                | exception Not_found -> store
                | translated ->
                    let target = entry.Mapping.target in
                    let values = rename entry values in
                    let link = (target, translated, values) in
                    if Link_key.mem seen link then store
                    else begin
                      Link_key.add seen link ();
                      Store.relate target translated values store
                    end)
              store (Store.links rel comp_store))
      store
      (Schema.relationships schema)
  in
  let store = List.fold_left2 relate_all store components placed in
  ( store,
    {
      entities_in = !entities_in;
      entities_out = !n_slots;
      fused = !fused;
      links_in = !links_in;
      links_out = Link_key.length seen;
    } )
