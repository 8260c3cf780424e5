(* Tests for the assertion matrix: seeding, derivation (transitive
   composition) and conflict detection. *)

open Ecr
open Integrate

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check
let q = Qname.v

let assertion_opt =
  Alcotest.option (Alcotest.testable (Fmt.of_to_string Assertion.to_string) ( = ))

(* One schema with a category chain, one flat schema. *)
let s_people =
  Schema.make (Name.v "p")
    ~objects:
      [
        Object_class.entity (Name.v "Person");
        Object_class.category ~parents:[ Name.v "Person" ] (Name.v "Employee");
        Object_class.category ~parents:[ Name.v "Employee" ] (Name.v "Manager");
        Object_class.entity (Name.v "Building");
      ]
    ~relationships:[]

let s_other =
  Schema.make (Name.v "o")
    ~objects:
      [
        Object_class.entity (Name.v "Worker");
        Object_class.entity (Name.v "Site");
      ]
    ~relationships:[]

let seeding_tests =
  [
    tc "category edges seed contained-in" (fun () ->
        let m = Assertions.create [ s_people ] in
        check assertion_opt "Employee in Person" (Some Assertion.Contained_in)
          (Assertions.assertion_between m (q "p" "Employee") (q "p" "Person"));
        check assertion_opt "converse orientation" (Some Assertion.Contains)
          (Assertions.assertion_between m (q "p" "Person") (q "p" "Employee")));
    tc "chain is closed transitively at creation" (fun () ->
        let m = Assertions.create [ s_people ] in
        check assertion_opt "Manager in Person" (Some Assertion.Contained_in)
          (Assertions.assertion_between m (q "p" "Manager") (q "p" "Person")));
    tc "entity sets of one schema are disjoint" (fun () ->
        let m = Assertions.create [ s_people ] in
        check assertion_opt "Person # Building"
          (Some Assertion.Disjoint_nonintegrable)
          (Assertions.assertion_between m (q "p" "Person") (q "p" "Building"));
        (* and categories inherit the disjointness *)
        check assertion_opt "Manager # Building"
          (Some Assertion.Disjoint_nonintegrable)
          (Assertions.assertion_between m (q "p" "Manager") (q "p" "Building")));
    tc "cross-schema pairs start unknown" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        check assertion_opt "unknown" None
          (Assertions.assertion_between m (q "p" "Person") (q "o" "Worker"));
        check Alcotest.bool "rel all" true
          (Rel.equal Rel.all (Assertions.relation m (q "p" "Person") (q "o" "Worker"))));
  ]

let ok = function
  | Ok m -> m
  | Error _ -> Alcotest.fail "unexpected conflict"

let derivation_tests =
  [
    tc "the paper's transitive example" (fun () ->
        (* Worker subset of Employee and Employee subset of Person ==>
           Worker subset of Person. *)
        let m = Assertions.create [ s_people; s_other ] in
        let m = ok (Assertions.add (q "o" "Worker") Assertion.Contained_in (q "p" "Employee") m) in
        check assertion_opt "derived" (Some Assertion.Contained_in)
          (Assertions.assertion_between m (q "o" "Worker") (q "p" "Person"));
        check Alcotest.bool "marked derived" true
          (match Assertions.source_between m (q "o" "Worker") (q "p" "Person") with
          | Some (Assertions.Derived _) -> true
          | _ -> false));
    tc "derivation through equals" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        let m = ok (Assertions.add (q "o" "Worker") Assertion.Equal (q "p" "Employee") m) in
        check assertion_opt "worker in person" (Some Assertion.Contained_in)
          (Assertions.assertion_between m (q "o" "Worker") (q "p" "Person"));
        check assertion_opt "worker contains manager" (Some Assertion.Contains)
          (Assertions.assertion_between m (q "o" "Worker") (q "p" "Manager")));
    tc "disjointness propagates down the hierarchy" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        let m = ok (Assertions.add (q "o" "Site") Assertion.Equal (q "p" "Building") m) in
        check assertion_opt "site # manager" (Some Assertion.Disjoint_nonintegrable)
          (Assertions.assertion_between m (q "o" "Site") (q "p" "Manager")));
    tc "derived_assertions and counts" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        let m = ok (Assertions.add (q "o" "Worker") Assertion.Equal (q "p" "Employee") m) in
        check Alcotest.int "asserted" 1 (Assertions.asserted_count m);
        check Alcotest.bool "derived some" true (Assertions.derived_count m > 0);
        check Alcotest.bool "derived list nonempty" true
          (Assertions.derived_assertions m <> []));
    tc "explain produces asserted leaves" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        let m = ok (Assertions.add (q "o" "Worker") Assertion.Contained_in (q "p" "Employee") m) in
        let basis = Assertions.explain m (q "o" "Worker") (q "p" "Person") in
        check Alcotest.bool "has the user assertion" true
          (List.exists
             (fun (l, r, _) ->
               (Qname.equal l (q "o" "Worker") && Qname.equal r (q "p" "Employee"))
               || (Qname.equal r (q "o" "Worker") && Qname.equal l (q "p" "Employee")))
             basis);
        check Alcotest.bool "has the structural edge" true
          (List.exists
             (fun (l, r, _) ->
               (Qname.equal l (q "p" "Employee") && Qname.equal r (q "p" "Person"))
               || (Qname.equal r (q "p" "Employee") && Qname.equal l (q "p" "Person")))
             basis));
    tc "adding in flipped orientation stores the converse" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        let m = ok (Assertions.add (q "p" "Employee") Assertion.Contains (q "o" "Worker") m) in
        check assertion_opt "reads back" (Some Assertion.Contained_in)
          (Assertions.assertion_between m (q "o" "Worker") (q "p" "Employee")));
    tc "redundant re-assertion is a no-op" (fun () ->
        let m = Assertions.create [ s_people ] in
        let m' =
          ok (Assertions.add (q "p" "Employee") Assertion.Contained_in (q "p" "Person") m)
        in
        check Alcotest.int "no new asserted cell" (Assertions.asserted_count m)
          (Assertions.asserted_count m'));
  ]

let conflict_tests =
  [
    tc "the paper's introduction example" (fun () ->
        (* If Employee equals Person and Person equals Worker, then
           Worker cannot be a (proper) subset of Employee. *)
        let s1 =
          Schema.make (Name.v "a")
            ~objects:[ Object_class.entity (Name.v "Employee") ]
            ~relationships:[]
        and s2 =
          Schema.make (Name.v "b")
            ~objects:[ Object_class.entity (Name.v "Person") ]
            ~relationships:[]
        and s3 =
          Schema.make (Name.v "c")
            ~objects:[ Object_class.entity (Name.v "Worker") ]
            ~relationships:[]
        in
        let m = Assertions.create [ s1; s2; s3 ] in
        let m = ok (Assertions.add (q "a" "Employee") Assertion.Equal (q "b" "Person") m) in
        let m = ok (Assertions.add (q "b" "Person") Assertion.Equal (q "c" "Worker") m) in
        match Assertions.add (q "c" "Worker") Assertion.Contained_in (q "a" "Employee") m with
        | Ok _ -> Alcotest.fail "conflict missed"
        | Error c ->
            check Alcotest.bool "attempted recorded" true
              (c.Assertions.attempted = Some Assertion.Contained_in);
            check Alcotest.bool "basis mentions both equalities" true
              (List.length c.Assertions.basis >= 2));
    tc "the paper's Screen 9 scenario" (fun () ->
        let m = Assertions.create [ Workload.Paper.sc3; Workload.Paper.sc4 ] in
        let m =
          ok
            (Assertions.add (q "sc3" "Instructor") Assertion.Contained_in
               (q "sc4" "Grad_student") m)
        in
        match
          Assertions.add (q "sc3" "Instructor") Assertion.Disjoint_nonintegrable
            (q "sc4" "Student") m
        with
        | Ok _ -> Alcotest.fail "conflict missed"
        | Error c ->
            check Alcotest.bool "current is contained-in" true
              (Rel.equal c.Assertions.current (Rel.of_basic Rel.Lt)));
    tc "conflict leaves the matrix unchanged" (fun () ->
        let m = Assertions.create [ Workload.Paper.sc3; Workload.Paper.sc4 ] in
        let m =
          ok
            (Assertions.add (q "sc3" "Instructor") Assertion.Contained_in
               (q "sc4" "Grad_student") m)
        in
        (match
           Assertions.add (q "sc3" "Instructor") Assertion.Disjoint_nonintegrable
             (q "sc4" "Student") m
         with
        | Ok _ -> Alcotest.fail "conflict missed"
        | Error _ -> ());
        (* the original matrix still answers as before *)
        check assertion_opt "still contained-in" (Some Assertion.Contained_in)
          (Assertions.assertion_between m (q "sc3" "Instructor") (q "sc4" "Student")));
    tc "distant contradiction is caught by propagation" (fun () ->
        (* a = b, c = d consistent; then b subset c and d subset a close a
           cycle that forces everything equal — consistent; but then
           asserting b # d must fail. *)
        let mk n cls =
          Schema.make (Name.v n)
            ~objects:[ Object_class.entity (Name.v cls) ]
            ~relationships:[]
        in
        let m =
          Assertions.create [ mk "w" "A"; mk "x" "B"; mk "y" "C"; mk "z" "D" ]
        in
        let m = ok (Assertions.add (q "w" "A") Assertion.Equal (q "x" "B") m) in
        let m = ok (Assertions.add (q "y" "C") Assertion.Equal (q "z" "D") m) in
        let m = ok (Assertions.add (q "x" "B") Assertion.Contained_in (q "y" "C") m) in
        match Assertions.add (q "z" "D") Assertion.Disjoint_nonintegrable (q "w" "A") m with
        | Ok _ -> Alcotest.fail "conflict missed"
        | Error _ -> ());
  ]

let integration_edge_tests =
  [
    tc "nonintegrable disjoint excluded from edges" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        let m =
          ok
            (Assertions.add (q "o" "Worker") Assertion.Disjoint_nonintegrable
               (q "p" "Person") m)
        in
        check Alcotest.bool "no cross edge" true
          (not
             (List.exists
                (fun (a, b, _) -> Qname.Pair.mem (q "o" "Worker") (Qname.Pair.make a b))
                (Assertions.integration_edges m))));
    tc "integrable disjoint included with its flag" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        let m =
          ok
            (Assertions.add (q "o" "Worker") Assertion.Disjoint_integrable
               (q "p" "Building") m)
        in
        check Alcotest.bool "edge present" true
          (List.exists
             (fun (_, _, a) -> a = Assertion.Disjoint_integrable)
             (Assertions.integration_edges m)));
    tc "relationship matrices carry no structural seed" (fun () ->
        let m = Assertions.create_for_relationships [ Workload.Paper.sc1; Workload.Paper.sc2 ] in
        check Alcotest.int "no cells" 0 (List.length (Assertions.constrained_pairs m));
        check Alcotest.int "nodes are the relationship sets" 3
          (List.length (Assertions.nodes m)));
  ]

(* ------------------------------------------------------------------ *)
(* The dense matrix against the map-based reference ([Assertions_oracle]). *)

module type MATRIX = sig
  type t

  val nodes : t -> Qname.t list
  val relation : t -> Qname.t -> Qname.t -> Rel.t
  val assertion_between : t -> Qname.t -> Qname.t -> Assertion.t option
  val source_between : t -> Qname.t -> Qname.t -> Assertions.source option

  val explain :
    t -> Qname.t -> Qname.t -> (Qname.t * Qname.t * Assertion.t) list

  val constrained_pairs :
    t -> (Qname.t * Qname.t * Rel.t * Assertions.source) list

  val derived_assertions : t -> (Qname.t * Qname.t * Assertion.t) list
  val asserted_count : t -> int
  val derived_count : t -> int
  val integration_edges : t -> (Qname.t * Qname.t * Assertion.t) list

  val add :
    Qname.t -> Assertion.t -> Qname.t -> t -> (t, Assertions.conflict) result
end

let nowhere = q "zz" "Nowhere"

(* Everything a matrix answers, as text: two matrices agree when their
   renderings are equal.  [~explain:false] leaves out the per-pair
   explanations (the costly part on a large closed matrix). *)
let render (type m) (module M : MATRIX with type t = m) ?(explain = true)
    (m : m) =
  let b = Buffer.create 4096 in
  let fact (l, r, a) =
    Printf.bprintf b " [%s %s %s]" (Qname.to_string l) (Assertion.to_string a)
      (Qname.to_string r)
  in
  Buffer.add_string b "pairs:";
  List.iter
    (fun (l, r, rel, src) ->
      Printf.bprintf b " (%s %s %s %s)" (Qname.to_string l) (Qname.to_string r)
        (Rel.to_string rel)
        (Assertions.source_to_string src))
    (M.constrained_pairs m);
  Buffer.add_string b "\nderived:";
  List.iter fact (M.derived_assertions m);
  Buffer.add_string b "\nedges:";
  List.iter fact (M.integration_edges m);
  Printf.bprintf b "\ncounts: asserted %d derived %d\n" (M.asserted_count m)
    (M.derived_count m);
  let probes = M.nodes m @ [ nowhere ] in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          Printf.bprintf b "%s/%s %s %s %s" (Qname.to_string x)
            (Qname.to_string y)
            (Rel.to_string (M.relation m x y))
            (match M.assertion_between m x y with
            | Some a -> Assertion.to_string a
            | None -> "-")
            (match M.source_between m x y with
            | Some s -> Assertions.source_to_string s
            | None -> "-");
          if explain then List.iter fact (M.explain m x y);
          Buffer.add_char b '\n')
        probes)
    probes;
  Buffer.contents b

let dense = (module Assertions : MATRIX with type t = Assertions.t)
let oracle = (module Assertions_oracle : MATRIX with type t = Assertions_oracle.t)

let outcome (type m) (module M : MATRIX with type t = m) l a r (m : m) =
  match M.add l a r m with
  | Ok m' -> `Ok m'
  | Error c -> `Conflict (Assertions.conflict_to_string c)
  | exception Assertions.Unknown_class x -> `Unknown (Qname.to_string x)

let agree what d o =
  if not (String.equal d o) then
    failwith (Printf.sprintf "%s differ:\ndense:\n%s\noracle:\n%s" what d o)

(* Feeds [facts] to both matrices in lockstep.  Every outcome must
   agree (the same conflict text, the same unknown class); with
   [~each], so must the whole rendering after every step.  Returns the
   final pair and every (dense, oracle) version seen, so a caller can
   check that no later [add] changed an earlier matrix. *)
let lockstep ?(each = true) ?(explain = true) dense_m oracle_m facts =
  List.fold_left
    (fun ((d, o), versions) (l, a, r) ->
      let step =
        Printf.sprintf "%s %s %s" (Qname.to_string l) (Assertion.to_string a)
          (Qname.to_string r)
      in
      match (outcome dense l a r d, outcome oracle l a r o) with
      | `Ok d', `Ok o' ->
          if each then
            agree ("after " ^ step) (render dense ~explain d')
              (render oracle ~explain o');
          ((d', o'), (d', o') :: versions)
      | `Conflict cd, `Conflict co ->
          agree ("conflict of " ^ step) cd co;
          ((d, o), versions)
      | `Unknown xd, `Unknown xo ->
          agree ("refusal of " ^ step) xd xo;
          ((d, o), versions)
      | _ -> failwith ("outcomes of " ^ step ^ " differ"))
    ((dense_m, oracle_m), [ (dense_m, oracle_m) ])
    facts

let codes =
  Assertion.
    [
      Equal;
      Contained_in;
      Contains;
      Disjoint_integrable;
      May_be;
      Disjoint_nonintegrable;
    ]

(* A schema [s<idx>] of entities [E<j>] and categories [C<j>] whose
   parents are any of its objects: categories under two entities (which
   the seed's disjointness contradicts), cycles and self-parents all
   occur, and the seed, which closes in place, must drop them just as
   the copying oracle does. *)
let schema_gen idx =
  QCheck.Gen.(
    let* entities = int_range 1 4 in
    let* categories = int_range 0 3 in
    let* parents =
      flatten_l
        (List.init categories (fun _ ->
             list_size (int_range 1 2) (int_bound (entities + categories - 1))))
    in
    let name j =
      Name.v
        (if j < entities then Printf.sprintf "E%d" j
         else Printf.sprintf "C%d" (j - entities))
    in
    return
      (Schema.make
         (Name.v (Printf.sprintf "s%d" idx))
         ~objects:
           (List.init entities (fun j -> Object_class.entity (name j))
           @ List.mapi
               (fun c ps ->
                 Object_class.category
                   ~parents:(List.sort_uniq Name.compare (List.map name ps))
                   (name (entities + c)))
               parents)
         ~relationships:[]))

let session_gen =
  QCheck.Gen.(
    let* k = int_range 1 4 in
    let* schemas = flatten_l (List.init k schema_gen) in
    let nodes =
      Array.of_list
        (List.concat_map
           (fun s ->
             List.map
               (fun oc -> Schema.qname s oc.Object_class.name)
               (Schema.objects s))
           schemas)
    in
    (* one draw in twenty names a class outside the matrix *)
    let node =
      frequency
        [
          (19, map (fun i -> nodes.(i)) (int_bound (Array.length nodes - 1)));
          (1, return nowhere);
        ]
    in
    let* facts = list_size (int_range 0 24) (triple node (oneofl codes) node) in
    return (schemas, facts))

let session =
  QCheck.make
    ~print:(fun (schemas, facts) ->
      String.concat "\n" (List.map Ddl.Printer.to_string schemas)
      ^ "\n"
      ^ String.concat "\n"
          (List.map
             (fun (l, a, r) ->
               Printf.sprintf "object %s %d %s" (Qname.to_string l)
                 (Assertion.code a) (Qname.to_string r))
             facts))
    session_gen

let oracle_tests =
  [
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 14 |])
      (QCheck.Test.make ~count:300
         ~name:"random sessions match the map-based oracle" session
         (fun (schemas, facts) ->
           let _, versions =
             lockstep
               (Assertions.create schemas)
               (Assertions_oracle.create schemas)
               facts
           in
           (* persistence: no add changed a matrix handed out earlier *)
           List.iter
             (fun (d, o) ->
               agree "earlier matrices" (render dense d) (render oracle o))
             versions;
           true));
    tc "a category whose parents the seed makes disjoint" (fun () ->
        (* C under both entities contradicts their disjointness: the
           seed drops the disjointness, with nothing derived from it *)
        let s =
          Schema.make (Name.v "u")
            ~objects:
              [
                Object_class.entity (Name.v "A");
                Object_class.entity (Name.v "B");
                Object_class.category ~parents:[ Name.v "A" ] (Name.v "D");
                Object_class.category
                  ~parents:[ Name.v "A"; Name.v "B" ]
                  (Name.v "C");
              ]
            ~relationships:[]
        in
        check Alcotest.string "same seed"
          (render oracle (Assertions_oracle.create [ s ]))
          (render dense (Assertions.create [ s ])));
    tc "the scenario federation matches the oracle" (fun () ->
        (* the 8-schema federation the benchmark serves *)
        let scn =
          Workload.Scenario.generate
            {
              Workload.Scenario.default_params with
              seed = 42;
              schemas = 8;
              concepts = 16;
              population = 200;
              views = 6;
            }
        in
        let schemas = scn.Workload.Scenario.schemas in
        let directives = scn.Workload.Scenario.directives in
        let objects =
          List.filter_map
            (function Op.Assert_object (l, a, r) -> Some (l, a, r) | _ -> None)
            directives
        and relationships =
          List.filter_map
            (function Op.Assert_relationship (l, a, r) -> Some (l, a, r) | _ -> None)
            directives
        in
        check Alcotest.bool "a federation-sized matrix" true
          (List.length (Assertions.nodes (Assertions.create schemas)) >= 80);
        (* the seeds, then the script's facts with conflicts and
           refusals compared at every step, then the closed result *)
        let (d, o), _ =
          lockstep ~each:false
            (Assertions.create schemas)
            (Assertions_oracle.create schemas)
            objects
        in
        check Alcotest.string "object matrix" (render oracle o) (render dense d);
        let (d, o), _ =
          lockstep ~each:false
            (Assertions.create_for_relationships schemas)
            (Assertions_oracle.create_for_relationships schemas)
            relationships
        in
        check Alcotest.string "relationship matrix" (render oracle o)
          (render dense d);
        (* contradicting facts: the negation of every asserted cell *)
        let negations =
          List.map
            (fun (l, a, r) ->
              match a with
              | Assertion.Disjoint_nonintegrable | Assertion.Disjoint_integrable
                ->
                  (l, Assertion.Equal, r)
              | _ -> (l, Assertion.Disjoint_nonintegrable, r))
            objects
        in
        ignore
          (lockstep ~each:false ~explain:false
             (Assertions.create schemas)
             (Assertions_oracle.create schemas)
             (objects @ negations)));
  ]

let refusal_tests =
  [
    tc "an assertion about a class outside the matrix is refused" (fun () ->
        let m = Assertions.create [ s_people; s_other ] in
        Alcotest.check_raises "left" (Assertions.Unknown_class (q "p" "Persn"))
          (fun () ->
            ignore
              (Assertions.add (q "p" "Persn") Assertion.Equal (q "o" "Worker") m));
        Alcotest.check_raises "right" (Assertions.Unknown_class (q "x" "Worker"))
          (fun () ->
            ignore
              (Assertions.add (q "o" "Worker") Assertion.Equal (q "x" "Worker") m));
        check Alcotest.int "nothing recorded" 0 (Assertions.asserted_count m));
    tc "a class outside the matrix reads as unknown" (fun () ->
        let m = Assertions.create [ s_people ] in
        check Alcotest.bool "relation all" true
          (Rel.equal Rel.all (Assertions.relation m (q "p" "Person") nowhere));
        check assertion_opt "no assertion" None
          (Assertions.assertion_between m nowhere (q "p" "Person"));
        check Alcotest.int "no explanation" 0
          (List.length (Assertions.explain m nowhere nowhere)));
  ]

(* ------------------------------------------------------------------ *)
(* Copy-on-write rows: what an [add] copies, and who may read a matrix. *)

(* The inputs of "the scenario federation matches the oracle": the
   8-schema federation the benchmark serves and its script's object
   facts. *)
let federation () =
  let scn =
    Workload.Scenario.generate
      {
        Workload.Scenario.default_params with
        seed = 42;
        schemas = 8;
        concepts = 16;
        population = 200;
        views = 6;
      }
  in
  ( scn.Workload.Scenario.schemas,
    List.filter_map
      (function Op.Assert_object (l, a, r) -> Some (l, a, r) | _ -> None)
      scn.Workload.Scenario.directives )

(* [add] that keeps the matrix it was given on a conflict or a refusal *)
let add_or_keep m (l, a, r) =
  match Assertions.add l a r m with
  | Ok m -> m
  | Error _ | (exception Assertions.Unknown_class _) -> m

let sharing_tests =
  [
    tc "folding the federation's facts copies no whole matrix" (fun () ->
        let schemas, objects = federation () in
        let base = Assertions.create schemas in
        let n = List.length (Assertions.nodes base) in
        check Alcotest.bool "a federation-sized matrix" true (n >= 80);
        (* the default minor heap: a row of n words is a minor-heap
           block and dies there unless the fold's result keeps it,
           while a whole n*n array goes to the major heap at once *)
        Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144 };
        let before = (Gc.quick_stat ()).Gc.major_words in
        let m = List.fold_left add_or_keep base objects in
        let words = (Gc.quick_stat ()).Gc.major_words -. before in
        (* about 87 of the facts tighten a cell: copying the matrix for
           each of them costs 87 n^2 words, an eighth of that is the
           budget *)
        let budget = 87 * n * n / 8 in
        check Alcotest.bool
          (Printf.sprintf "%.0f major-heap words for %d facts (budget %d)"
             words (List.length objects) budget)
          true
          (words < float_of_int budget);
        check Alcotest.bool "the facts were recorded" true
          (Assertions.asserted_count m > 0));
    tc "parallel adds to one shared matrix match sequential ones" (fun () ->
        let schemas, objects = federation () in
        (* the facts that tighten a cell, in script order; the base
           takes half of them and shares rows with the matrices it came
           from, and four fact lists over it add the other half: the
           negations make some adds fail half-way through their closure *)
        let tightening =
          List.rev
            (snd
               (List.fold_left
                  (fun (m, acc) f ->
                    let m' = add_or_keep m f in
                    (m', if m' == m then acc else f :: acc))
                  (Assertions.create schemas, [])
                  objects))
        in
        let half = List.length tightening / 2 in
        let first = List.filteri (fun i _ -> i < half) tightening
        and second = List.filteri (fun i _ -> i >= half) tightening in
        check Alcotest.bool "facts left to tighten the base" true
          (List.length second >= 20);
        let base = List.fold_left add_or_keep (Assertions.create schemas) first in
        let negate (l, a, r) =
          match a with
          | Assertion.Disjoint_nonintegrable | Assertion.Disjoint_integrable ->
              (l, Assertion.Equal, r)
          | _ -> (l, Assertion.Disjoint_nonintegrable, r)
        in
        let lists =
          [
            second;
            List.rev second;
            List.concat_map (fun f -> [ negate f; f ]) second;
            List.filteri (fun i _ -> i mod 2 = 1) second @ List.map negate first;
          ]
        in
        let apply facts = List.fold_left add_or_keep base facts in
        let before = render dense ~explain:false base in
        let sequential = List.map apply lists in
        let parallel =
          Par.For_testing.with_domains 4 (fun () -> Par.map apply lists)
        in
        List.iteri
          (fun i (s, p) ->
            check Alcotest.string
              (Printf.sprintf "list %d" i)
              (render dense ~explain:false s)
              (render dense ~explain:false p))
          (List.combine sequential parallel);
        check Alcotest.string "the base is unchanged" before
          (render dense ~explain:false base));
  ]

let () =
  Alcotest.run "assertions"
    [
      ("seeding", seeding_tests);
      ("derivation", derivation_tests);
      ("conflicts", conflict_tests);
      ("refusals", refusal_tests);
      ("integration-edges", integration_edge_tests);
      ("oracle", oracle_tests);
      ("sharing", sharing_tests);
    ]
