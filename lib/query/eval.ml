open Ecr

type row = Instance.Value.t Name.Map.t

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let compare_values cmp a b =
  let open Instance.Value in
  match (a, b) with
  | Null, Null -> cmp = Ast.Eq
  | Null, _ | _, Null -> false
  | _ ->
      let c = compare a b in
      (match cmp with
      | Ast.Eq -> c = 0
      | Ast.Ne -> c <> 0
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0)

let rec eval_pred lookup = function
  | Ast.Atom (a, cmp, v) -> compare_values cmp (lookup a) v
  | Ast.And (p, q) -> eval_pred lookup p && eval_pred lookup q
  | Ast.Or (p, q) -> eval_pred lookup p || eval_pred lookup q
  | Ast.Not p -> not (eval_pred lookup p)
  | Ast.Const b -> b

let check_attrs schema cls names context =
  let attrs = Attribute.names (Schema.all_attributes schema cls) in
  List.iter
    (fun n ->
      if not (List.exists (Name.equal n) attrs) then
        error "%s: class %s has no attribute %s" context (Name.to_string cls)
          (Name.to_string n))
    names

let require_class schema cls =
  match Schema.find_object cls schema with
  | Some _ -> ()
  | None -> error "unknown object class %s" (Name.to_string cls)

(* The participant position a class can play in a relationship: the
   class itself, an ancestor (its entities participate via the broader
   class) or a descendant. *)
let position_for schema rel cls ~exclude =
  let viable i p =
    (not (List.mem i exclude))
    && (Name.equal p.Relationship.obj cls
       || Schema.is_ancestor schema ~ancestor:p.Relationship.obj cls
       || Schema.is_ancestor schema ~ancestor:cls p.Relationship.obj)
  in
  let rec look i = function
    | [] -> None
    | p :: rest -> if viable i p then Some i else look (i + 1) rest
  in
  look 0 rel.Relationship.participants

(* ---- answer columns ---------------------------------------------- *)

type source = Entity of Name.t | Target of Name.t | Link of Name.t | Absent
type columns = source Name.Map.t

let prefixed cls a = Name.v (Name.to_string cls ^ "_" ^ Name.to_string a)

let select_or_all schema cls = function
  | [] -> Attribute.names (Schema.all_attributes schema cls)
  | names -> names

let entity_columns schema cls select =
  List.fold_left
    (fun acc a -> Name.Map.add a (Entity a) acc)
    Name.Map.empty
    (select_or_all schema cls select)

(* Later columns win a name clash: the target's over the from-class's,
   the relationship's over both. *)
let columns schema q =
  let base = entity_columns schema q.Ast.from_class q.Ast.select in
  match q.Ast.via with
  | None -> base
  | Some j ->
      let with_target =
        List.fold_left
          (fun acc a -> Name.Map.add (prefixed j.Ast.target a) (Target a) acc)
          base
          (select_or_all schema j.Ast.target j.Ast.target_select)
      in
      List.fold_left
        (fun acc a -> Name.Map.add (prefixed j.Ast.rel a) (Link a) acc)
        with_target j.Ast.rel_select

(* A column with its store column looked up, once per evaluation. *)
type resolved =
  | R_entity of Instance.Store.column
  | R_target of Instance.Store.column
  | R_link of Name.t
  | R_absent

let resolve store cols =
  Name.Map.map
    (function
      | Entity a -> R_entity (Instance.Store.column a store)
      | Target a -> R_target (Instance.Store.column a store)
      | Link a -> R_link a
      | Absent -> R_absent)
    cols

(* [Name.Map.map] copies the plan's tree: one node per column, no
   rebalancing, no option per cell. *)
let build plan oid target values =
  Name.Map.map
    (function
      | R_entity col -> Instance.Store.get col oid
      | R_target col -> Instance.Store.get col target
      | R_link a -> (
          match Name.Map.find a values with
          | v -> v
          | exception Not_found -> Instance.Value.Null)
      | R_absent -> Instance.Value.Null)
    plan

let project schema cls oid store select =
  build (resolve store (entity_columns schema cls select)) oid oid Name.Map.empty

(* Observability: per-query latency and answer volume — the numbers a
   serving deployment watches first. *)
let h_eval = Obs.Histogram.make "query.eval_seconds"
let c_evaluated = Obs.Counter.make "query.evaluated"
let c_rows = Obs.Counter.make "query.rows_returned"

(* Checks [q] against the store's schema, then folds [f] over the
   answer rows in answer order, each built from [cols schema]. *)
let fold_unobserved cols q store f init =
  let schema = Instance.Store.schema store in
  require_class schema q.Ast.from_class;
  check_attrs schema q.Ast.from_class q.Ast.select "select";
  Option.iter
    (fun p -> check_attrs schema q.Ast.from_class (Ast.attrs_of_pred p) "where")
    q.Ast.where;
  let extent = Instance.Store.extent q.Ast.from_class store in
  let passes oid = function
    | None -> true
    | Some p -> eval_pred (fun a -> Instance.Store.value oid a store) p
  in
  match q.Ast.via with
  | None ->
      let plan = resolve store (cols schema) in
      Instance.Store.Oid.Set.fold
        (fun oid acc ->
          if passes oid q.Ast.where then f acc (build plan oid oid Name.Map.empty)
          else acc)
        extent init
  | Some j ->
      let rel =
        match Schema.find_relationship j.Ast.rel schema with
        | Some r -> r
        | None -> error "unknown relationship %s" (Name.to_string j.Ast.rel)
      in
      require_class schema j.Ast.target;
      check_attrs schema j.Ast.target j.Ast.target_select "target select";
      Option.iter
        (fun p -> check_attrs schema j.Ast.target (Ast.attrs_of_pred p) "target where")
        j.Ast.target_where;
      let from_pos =
        match position_for schema rel q.Ast.from_class ~exclude:[] with
        | Some i -> i
        | None ->
            error "class %s does not participate in %s"
              (Name.to_string q.Ast.from_class)
              (Name.to_string j.Ast.rel)
      in
      let target_pos =
        match position_for schema rel j.Ast.target ~exclude:[ from_pos ] with
        | Some i -> i
        | None ->
            error "class %s does not participate in %s"
              (Name.to_string j.Ast.target)
              (Name.to_string j.Ast.rel)
      in
      (* relationship attributes must exist on the relationship set *)
      List.iter
        (fun n ->
          if Attribute.find n rel.Relationship.attributes = None then
            error "relationship %s has no attribute %s"
              (Name.to_string j.Ast.rel) (Name.to_string n))
        j.Ast.rel_select;
      let target_extent = Instance.Store.extent j.Ast.target store in
      let plan = resolve store (cols schema) in
      List.fold_left
        (fun acc { Instance.Store.participants; values } ->
          let oid_f = List.nth participants from_pos
          and oid_t = List.nth participants target_pos in
          if
            Instance.Store.Oid.Set.mem oid_f extent
            && Instance.Store.Oid.Set.mem oid_t target_extent
            && passes oid_f q.Ast.where
            && passes oid_t j.Ast.target_where
          then f acc (build plan oid_f oid_t values)
          else acc)
        init
        (Instance.Store.links j.Ast.rel store)

let fold_observed cols q store f init =
  Obs.Span.run "query.eval" @@ fun () ->
  Obs.Histogram.time h_eval @@ fun () ->
  Obs.Counter.incr c_evaluated;
  let n = ref 0 in
  let acc =
    fold_unobserved cols q store
      (fun acc row ->
        incr n;
        f acc row)
      init
  in
  Obs.Counter.add c_rows !n;
  acc

let run q store =
  List.rev
    (fold_observed (fun schema -> columns schema q) q store
       (fun acc row -> row :: acc)
       [])

let fold cols q store f init = fold_observed (fun _ -> cols) q store f init

let row bindings =
  List.fold_left
    (fun m (k, v) -> Name.Map.add (Name.v k) v m)
    Name.Map.empty bindings

let row_to_string r =
  Name.Map.bindings r
  |> List.map (fun (k, v) ->
         Name.to_string k ^ "=" ^ Instance.Value.to_string v)
  |> String.concat ", "
  |> fun s -> "{" ^ s ^ "}"

let pp_row fmt r = Format.pp_print_string fmt (row_to_string r)

let same_answers a b =
  let sort rows = List.sort compare (List.map Name.Map.bindings rows) in
  sort a = sort b

let matches = eval_pred
let project_entity = project
