open Ecr

type fact = Qname.t * Assertion.t * Qname.t

type t = {
  schemas : Schema.t list;
  equivalence : Equivalence.t;
  object_facts : fact list;
      (** in entry order; exactly the facts [obj_matrix] was built from *)
  relationship_facts : fact list;
  obj_matrix : Assertions.t;
      (** in lockstep with [schemas]+[object_facts]: each accepted
          assertion extends it incrementally; rebuilt by replay on
          structural edits and retractions.  Without the cache every
          assertion replays the whole fact list — quadratic in session
          length, which federation-scale scenario scripts (hundreds of
          directives) cannot afford. *)
  rel_matrix : Assertions.t;  (** likewise, for relationship facts *)
  naming : Naming.t;
}

let empty =
  {
    schemas = [];
    equivalence = Equivalence.empty;
    object_facts = [];
    relationship_facts = [];
    obj_matrix = Assertions.create [];
    rel_matrix = Assertions.create_for_relationships [];
    naming = Naming.default;
  }

let schemas t = t.schemas
let find_schema n t = List.find_opt (fun s -> Name.equal (Schema.name s) n) t.schemas

(* Replays [facts] over a fresh matrix, keeping the ones it accepts. *)
let replay create facts schemas =
  let m, kept =
    List.fold_left
      (fun (m, kept) ((a, assertion, b) as fact) ->
        match Assertions.add a assertion b m with
        | Ok m -> (m, fact :: kept)
        | Error _ | (exception Assertions.Unknown_class _) ->
            (* Recorded facts were consistent when entered; a schema edit
               may have invalidated one, or removed a class it names. *)
            (m, kept))
      (create schemas, []) facts
  in
  (m, List.rev kept)

(* After a structural edit the matrices' structure universe changed:
   replay the recorded facts against it and forget the ones it refuses,
   so the recorded facts stay exactly those the matrices hold (and a
   dictionary written from the workspace replays without a refusal). *)
let rebuild_matrices t =
  let obj_matrix, object_facts =
    replay Assertions.create t.object_facts t.schemas
  in
  let rel_matrix, relationship_facts =
    replay Assertions.create_for_relationships t.relationship_facts t.schemas
  in
  { t with obj_matrix; rel_matrix; object_facts; relationship_facts }

let add_schema s t =
  let n = Schema.name s in
  let replaced = ref false in
  let schemas =
    List.map
      (fun s' ->
        if Name.equal (Schema.name s') n then begin
          replaced := true;
          s
        end
        else s')
      t.schemas
  in
  let schemas = if !replaced then schemas else schemas @ [ s ] in
  rebuild_matrices
    {
      t with
      schemas;
      equivalence = Equivalence.register_schema s t.equivalence;
    }

let remove_schema n t =
  let keeps_schema q = not (Name.equal q.Qname.schema n) in
  let equivalence =
    Equivalence.restrict (fun qa -> keeps_schema qa.Qname.Attr.owner) t.equivalence
  in
  rebuild_matrices
    {
      t with
      schemas =
        List.filter (fun s -> not (Name.equal (Schema.name s) n)) t.schemas;
      equivalence;
    }

let declare_equivalent a b t =
  { t with equivalence = Equivalence.declare a b t.equivalence }

let separate_attribute a t =
  { t with equivalence = Equivalence.separate a t.equivalence }

let equivalence t = t.equivalence

let object_matrix t = t.obj_matrix
let relationship_matrix t = t.rel_matrix

let assert_object a assertion b t =
  match Assertions.add a assertion b t.obj_matrix with
  | Ok m ->
      Ok
        {
          t with
          object_facts = t.object_facts @ [ (a, assertion, b) ];
          obj_matrix = m;
        }
  | Error c -> Error c

let assert_relationship a assertion b t =
  match Assertions.add a assertion b t.rel_matrix with
  | Ok m ->
      Ok
        {
          t with
          relationship_facts = t.relationship_facts @ [ (a, assertion, b) ];
          rel_matrix = m;
        }
  | Error c -> Error c

let same_pair a b (x, _, y) =
  (Qname.equal a x && Qname.equal b y) || (Qname.equal a y && Qname.equal b x)

let retract_object a b t =
  rebuild_matrices
    {
      t with
      object_facts = List.filter (fun f -> not (same_pair a b f)) t.object_facts;
    }

let retract_relationship a b t =
  rebuild_matrices
    {
      t with
      relationship_facts =
        List.filter (fun f -> not (same_pair a b f)) t.relationship_facts;
    }

let object_facts t = t.object_facts
let relationship_facts t = t.relationship_facts

let require_schema n t =
  match find_schema n t with Some s -> s | None -> raise Not_found

let ranked_pairs n1 n2 t =
  Similarity.ranked_object_pairs (require_schema n1 t) (require_schema n2 t)
    t.equivalence

let ranked_relationship_pairs n1 n2 t =
  Similarity.ranked_relationship_pairs (require_schema n1 t)
    (require_schema n2 t) t.equivalence

let set_naming naming t = { t with naming }
let naming t = t.naming

let integrate ?name t =
  Pipeline.integrate
    (Pipeline.input ~naming:t.naming ?name t.schemas t.equivalence
       (object_matrix t) (relationship_matrix t))

let integrate_pair ?name n1 n2 t =
  let s1 = require_schema n1 t and s2 = require_schema n2 t in
  (* the rebuild drops the facts that name a third schema *)
  let sub = rebuild_matrices { t with schemas = [ s1; s2 ] } in
  Pipeline.integrate
    (Pipeline.input ~naming:t.naming ?name [ s1; s2 ] t.equivalence
       (object_matrix sub) (relationship_matrix sub))
