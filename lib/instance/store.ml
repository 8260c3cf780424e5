open Ecr

module Oid = struct
  type t = int

  let equal = Int.equal
  let compare = Int.compare
  let to_int oid = oid
  let pp fmt oid = Format.fprintf fmt "#%d" oid

  module Set = Stdlib.Set.Make (Int)
  module Map = Stdlib.Map.Make (Int)
end

(* Internal layout is column-oriented and keyed by intern id: one
   [Value.t Oid.Map.t] column per attribute, membership sets per class
   id, link lists per relationship id.  [value] — the hot call of query
   evaluation — is then two int-keyed lookups with no string compares.
   Ids never leak through the interface: everything exposed still
   speaks [Name.t] / [tuple], and the few functions whose output order
   is observable ([classes_of], [tuple_of], [entities]) re-sort into the
   name order the row layout produced. *)
module Imap = Stdlib.Map.Make (Int)

type tuple = Value.t Name.Map.t

let tuple bindings =
  List.fold_left
    (fun m (k, v) -> Name.Map.add (Name.v k) v m)
    Name.Map.empty bindings

type link = { participants : Oid.t list; values : tuple }

type t = {
  schema : Schema.t;
  next_oid : int;
  (* Direct membership: class id -> oids placed in the class itself
     (extent queries add the members of descendants). *)
  members : Oid.Set.t Imap.t;
  present : Oid.Set.t;  (** every live entity, valued or not *)
  cols : Value.t Oid.Map.t Imap.t;  (** attribute id -> column *)
  links : link list Imap.t;
}

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

let create schema =
  {
    schema;
    next_oid = 1;
    members = Imap.empty;
    present = Oid.Set.empty;
    cols = Imap.empty;
    links = Imap.empty;
  }

let schema store = store.schema

let require_class store cls =
  match Schema.find_object cls store.schema with
  | Some oc -> oc
  | None -> violation "unknown object class %s" (Name.to_string cls)

let direct_members store cls =
  Option.value ~default:Oid.Set.empty (Imap.find_opt (Name.id cls) store.members)

let add_member cls oid store =
  let set = Oid.Set.add oid (direct_members store cls) in
  { store with members = Imap.add (Name.id cls) set store.members }

(* Membership propagates up the IS-A chain: an entity placed in a
   category belongs to every ancestor class. *)
let place oid cls store =
  let ancestors = Schema.ancestors store.schema cls in
  List.fold_left (fun st c -> add_member c oid st) (add_member cls oid store)
    ancestors

let write_column oid attr v cols =
  let aid = Name.id attr in
  let col = Option.value ~default:Oid.Map.empty (Imap.find_opt aid cols) in
  Imap.add aid (Oid.Map.add oid v col) cols

let insert cls values store =
  ignore (require_class store cls);
  let oid = store.next_oid in
  let store = { store with next_oid = oid + 1 } in
  let store = place oid cls store in
  let cols = Name.Map.fold (write_column oid) values store.cols in
  ({ store with present = Oid.Set.add oid store.present; cols }, oid)

let classify oid cls store =
  ignore (require_class store cls);
  if not (Oid.Set.mem oid store.present) then violation "unknown entity #%d" oid
  else place oid cls store

let set_value oid attr v store =
  if not (Oid.Set.mem oid store.present) then violation "unknown entity #%d" oid
  else { store with cols = write_column oid attr v store.cols }

let relate rel oids values store =
  match Schema.find_relationship rel store.schema with
  | None -> violation "unknown relationship %s" (Name.to_string rel)
  | Some r ->
      let arity = Relationship.arity r in
      if List.length oids <> arity then
        violation "relationship %s expects %d participants, got %d"
          (Name.to_string rel) arity (List.length oids)
      else
        let rid = Name.id rel in
        let existing =
          Option.value ~default:[] (Imap.find_opt rid store.links)
        in
        let entry = { participants = oids; values } in
        { store with links = Imap.add rid (entry :: existing) store.links }

let remove_entity oid store =
  if not (Oid.Set.mem oid store.present) then store
  else
    {
      store with
      members = Imap.map (Oid.Set.remove oid) store.members;
      present = Oid.Set.remove oid store.present;
      cols = Imap.map (Oid.Map.remove oid) store.cols;
      links =
        Imap.map
          (List.filter (fun l -> not (List.exists (Oid.equal oid) l.participants)))
          store.links;
    }

let remove_links rel keep store =
  if Schema.find_relationship rel store.schema = None then
    violation "unknown relationship %s" (Name.to_string rel)
  else
    {
      store with
      links =
        Imap.update (Name.id rel)
          (Option.map (List.filter keep))
          store.links;
    }

let extent cls store =
  ignore (require_class store cls);
  let below = cls :: Schema.descendants store.schema cls in
  List.fold_left
    (fun acc c -> Oid.Set.union acc (direct_members store c))
    Oid.Set.empty below

let tuple_of oid store =
  (* Name.Map.add re-sorts the id-ordered columns into name order, so
     the rebuilt tuple iterates exactly as the row layout did. *)
  Imap.fold
    (fun aid col acc ->
      match Oid.Map.find_opt oid col with
      | None -> acc
      | Some v -> Name.Map.add (Name.of_id aid) v acc)
    store.cols Name.Map.empty

type column = Value.t Oid.Map.t

(* [find] rather than [find_opt]: a read allocates no option. *)
let column attr store =
  match Imap.find (Name.id attr) store.cols with
  | col -> col
  | exception Not_found -> Oid.Map.empty

let get col oid =
  match Oid.Map.find oid col with v -> v | exception Not_found -> Value.Null

let value oid attr store = get (column attr store) oid

let links rel store =
  if Schema.find_relationship rel store.schema = None then
    violation "unknown relationship %s" (Name.to_string rel)
  else List.rev (Option.value ~default:[] (Imap.find_opt (Name.id rel) store.links))

let entities store = Oid.Set.elements store.present

let classes_of oid store =
  Imap.fold
    (fun cid members acc ->
      if Oid.Set.mem oid members then Name.of_id cid :: acc else acc)
    store.members []
  |> List.sort Name.compare
let cardinality_of cls store = Oid.Set.cardinal (extent cls store)

type violation =
  | Bad_domain of Oid.t * Name.t * Value.t
  | Duplicate_key of Name.t * Name.t * Value.t
  | Not_in_parent of Oid.t * Name.t * Name.t
  | Cardinality_violation of Name.t * Name.t * Oid.t * int
  | Dangling_participant of Name.t * Oid.t

let check_domains store =
  List.concat_map
    (fun oc ->
      let cls = oc.Object_class.name in
      let attrs = Schema.all_attributes store.schema cls in
      Oid.Set.fold
        (fun oid acc ->
          List.fold_left
            (fun acc a ->
              let v = value oid a.Attribute.name store in
              if Value.conforms v a.Attribute.domain then acc
              else Bad_domain (oid, a.Attribute.name, v) :: acc)
            acc attrs)
        (direct_members store cls)
        [])
    (Schema.objects store.schema)

let check_keys store =
  List.concat_map
    (fun oc ->
      let cls = oc.Object_class.name in
      let keys = Attribute.keys (Schema.all_attributes store.schema cls) in
      List.concat_map
        (fun key ->
          let attr = key.Attribute.name in
          let seen = Hashtbl.create 16 in
          Oid.Set.fold
            (fun oid acc ->
              let v = value oid attr store in
              if Value.equal v Value.Null then acc
              else
                let repr = Value.to_string v in
                if Hashtbl.mem seen repr then
                  Duplicate_key (cls, attr, v) :: acc
                else begin
                  Hashtbl.add seen repr ();
                  acc
                end)
            (extent cls store) [])
        keys)
    (Schema.entities store.schema)

let check_category_subset store =
  List.concat_map
    (fun oc ->
      let cls = oc.Object_class.name in
      List.concat_map
        (fun parent ->
          match Schema.find_object parent store.schema with
          | None -> []
          | Some _ ->
              Oid.Set.fold
                (fun oid acc ->
                  if Oid.Set.mem oid (extent parent store) then acc
                  else Not_in_parent (oid, cls, parent) :: acc)
                (extent cls store) [])
        (Object_class.parents oc))
    (Schema.categories store.schema)

let check_links store =
  List.concat_map
    (fun r ->
      let rel = r.Relationship.name in
      let instances = links rel store in
      (* Dangling participants. *)
      let dangling =
        List.concat_map
          (fun { participants; _ } ->
            List.concat
              (List.map2
                 (fun p oid ->
                   if Oid.Set.mem oid (extent p.Relationship.obj store) then []
                   else [ Dangling_participant (rel, oid) ])
                 r.Relationship.participants participants))
          instances
      in
      (* Per-participant cardinality: every member of the class must
         appear in between min and max instances. *)
      let cardinality =
        List.concat
          (List.mapi
             (fun pos p ->
               let counts = Hashtbl.create 64 in
               List.iter
                 (fun { participants; _ } ->
                   let oid = List.nth participants pos in
                   Hashtbl.replace counts oid
                     (1 + Option.value ~default:0 (Hashtbl.find_opt counts oid)))
                 instances;
               Oid.Set.fold
                 (fun oid acc ->
                   let k = Option.value ~default:0 (Hashtbl.find_opt counts oid) in
                   if Cardinality.satisfied k p.Relationship.card then acc
                   else
                     Cardinality_violation (rel, p.Relationship.obj, oid, k)
                     :: acc)
                 (extent p.Relationship.obj store)
                 [])
             r.Relationship.participants)
      in
      dangling @ cardinality)
    (Schema.relationships store.schema)

let check store =
  check_domains store @ check_keys store @ check_category_subset store
  @ check_links store

let violation_to_string = function
  | Bad_domain (oid, attr, v) ->
      Printf.sprintf "entity #%d: value %s outside domain of %s"
        (Oid.to_int oid) (Value.to_string v) (Name.to_string attr)
  | Duplicate_key (cls, attr, v) ->
      Printf.sprintf "entity set %s: duplicate key %s = %s"
        (Name.to_string cls) (Name.to_string attr) (Value.to_string v)
  | Not_in_parent (oid, cat, parent) ->
      Printf.sprintf "entity #%d in category %s but not in parent %s"
        (Oid.to_int oid) (Name.to_string cat) (Name.to_string parent)
  | Cardinality_violation (rel, cls, oid, k) ->
      Printf.sprintf
        "relationship %s: entity #%d of %s participates %d times, outside its \
         structural constraint"
        (Name.to_string rel) (Oid.to_int oid) (Name.to_string cls) k
  | Dangling_participant (rel, oid) ->
      Printf.sprintf "relationship %s references #%d outside participant class"
        (Name.to_string rel) (Oid.to_int oid)
