(* Tests for the extensional (instance) substrate. *)

open Ecr
module S = Instance.Store
module V = Instance.Value

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* Person <- Student (category); Advises(Person 0..N, Student 1..1). *)
let schema =
  Schema.make (Name.v "s")
    ~objects:
      [
        Object_class.entity
          ~attrs:[ Attribute.v ~key:true "Ssn" "char"; Attribute.v "Age" "int" ]
          (Name.v "Person");
        Object_class.category
          ~attrs:[ Attribute.v "GPA" "real" ]
          ~parents:[ Name.v "Person" ] (Name.v "Student");
      ]
    ~relationships:
      [
        Relationship.binary (Name.v "Advises")
          (Name.v "Person", Cardinality.any)
          (Name.v "Student", Cardinality.exactly_one);
      ]

let value_tests =
  [
    tc "conformance" (fun () ->
        check Alcotest.bool "str/char" true (V.conforms (V.str "x") Domain.Char_string);
        check Alcotest.bool "int/real widen" true (V.conforms (V.int 3) Domain.Real);
        check Alcotest.bool "real/int no" false (V.conforms (V.real 3.5) Domain.Integer);
        check Alcotest.bool "null anywhere" true (V.conforms V.Null Domain.Date);
        check Alcotest.bool "enum member" true
          (V.conforms (V.str "RA") (Domain.Enum [ "RA"; "TA" ]));
        check Alcotest.bool "enum outsider" false
          (V.conforms (V.str "GSR") (Domain.Enum [ "RA"; "TA" ]));
        check Alcotest.bool "bad date" false (V.conforms (V.date 2000 13 1) Domain.Date));
    tc "coerce" (fun () ->
        check Alcotest.bool "int->real" true
          (V.coerce (V.int 2) Domain.Real = Some (V.real 2.));
        check Alcotest.bool "whole real->int" true
          (V.coerce (V.real 2.) Domain.Integer = Some (V.int 2));
        check Alcotest.bool "frac real->int" true
          (V.coerce (V.real 2.5) Domain.Integer = None));
    tc "numeric comparison crosses int/real" (fun () ->
        check Alcotest.bool "eq" true (V.equal (V.int 2) (V.real 2.));
        check Alcotest.int "lt" (-1) (V.compare (V.int 1) (V.real 1.5)));
    tc "to_string" (fun () ->
        check Alcotest.string "date" "2020-09-01" (V.to_string (V.date 2020 9 1));
        check Alcotest.string "null" "null" (V.to_string V.Null));
    tc "equal values hash alike" (fun () ->
        List.iter
          (fun (a, b) ->
            check Alcotest.bool "equal" true (V.equal a b);
            check Alcotest.int (V.to_string a) (V.hash a) (V.hash b))
          [
            (V.int 3, V.real 3.);
            (V.real 0., V.real (-0.));
            (V.real Float.nan, V.real (-.Float.nan));
            (V.int max_int, V.real (float_of_int max_int));
            (V.str "x", V.str "x");
            (V.date 2020 9 1, V.date 2020 9 1);
          ]);
  ]

let store_tests =
  [
    tc "insert into category propagates to ancestors" (fun () ->
        let st = S.create schema in
        let st, oid = S.insert (Name.v "Student") (S.tuple [ ("Ssn", V.str "1") ]) st in
        check Alcotest.bool "in Student" true
          (S.Oid.Set.mem oid (S.extent (Name.v "Student") st));
        check Alcotest.bool "in Person" true
          (S.Oid.Set.mem oid (S.extent (Name.v "Person") st)));
    tc "extent of parent includes descendants only" (fun () ->
        let st = S.create schema in
        let st, p = S.insert (Name.v "Person") (S.tuple [ ("Ssn", V.str "1") ]) st in
        let st, s = S.insert (Name.v "Student") (S.tuple [ ("Ssn", V.str "2") ]) st in
        check Alcotest.int "person extent" 2 (S.cardinality_of (Name.v "Person") st);
        check Alcotest.int "student extent" 1 (S.cardinality_of (Name.v "Student") st);
        check Alcotest.bool "p not student" false
          (S.Oid.Set.mem p (S.extent (Name.v "Student") st));
        ignore s);
    tc "classify adds membership" (fun () ->
        let st = S.create schema in
        let st, p = S.insert (Name.v "Person") (S.tuple [ ("Ssn", V.str "1") ]) st in
        let st = S.classify p (Name.v "Student") st in
        check Alcotest.bool "now student" true
          (S.Oid.Set.mem p (S.extent (Name.v "Student") st)));
    tc "unknown class raises" (fun () ->
        let st = S.create schema in
        match S.insert (Name.v "Ghost") Name.Map.empty st with
        | exception S.Violation _ -> ()
        | _ -> Alcotest.fail "expected violation");
    tc "set_value and value" (fun () ->
        let st = S.create schema in
        let st, p = S.insert (Name.v "Person") Name.Map.empty st in
        let st = S.set_value p (Name.v "Age") (V.int 30) st in
        check Alcotest.bool "age" true (V.equal (V.int 30) (S.value p (Name.v "Age") st));
        check Alcotest.bool "unset is null" true
          (V.equal V.Null (S.value p (Name.v "Ssn") st)));
    tc "relate arity mismatch raises" (fun () ->
        let st = S.create schema in
        let st, p = S.insert (Name.v "Person") Name.Map.empty st in
        match S.relate (Name.v "Advises") [ p ] Name.Map.empty st with
        | exception S.Violation _ -> ()
        | _ -> Alcotest.fail "expected violation");
    tc "classes_of reports placements" (fun () ->
        let st = S.create schema in
        let st, p = S.insert (Name.v "Student") Name.Map.empty st in
        check (Alcotest.slist Alcotest.string String.compare) "both"
          [ "Person"; "Student" ]
          (List.map Name.to_string (S.classes_of p st)));
    tc "placements lists every entity with its classes_of" (fun () ->
        let st = S.create schema in
        let st, p = S.insert (Name.v "Person") Name.Map.empty st in
        let st, gone = S.insert (Name.v "Student") Name.Map.empty st in
        let st, _ = S.insert (Name.v "Student") Name.Map.empty st in
        let st = S.classify p (Name.v "Student") (S.remove_entity gone st) in
        let show (oid, classes) =
          string_of_int (S.Oid.to_int oid)
          ^ ":" ^ String.concat "," (List.map Name.to_string classes)
        in
        check Alcotest.(list string) "one pass = per entity"
          (List.map (fun oid -> show (oid, S.classes_of oid st)) (S.entities st))
          (List.map show (S.placements st)));
  ]

let integrity_tests =
  [
    tc "clean store" (fun () ->
        let st = S.create schema in
        let st, p = S.insert (Name.v "Person") (S.tuple [ ("Ssn", V.str "1"); ("Age", V.int 20) ]) st in
        let st, s =
          S.insert (Name.v "Student")
            (S.tuple [ ("Ssn", V.str "2"); ("GPA", V.real 3.0) ])
            st
        in
        let st = S.relate (Name.v "Advises") [ p; s ] Name.Map.empty st in
        check Alcotest.int "no violations" 0 (List.length (S.check st)));
    tc "bad domain detected" (fun () ->
        let st = S.create schema in
        let st, _ = S.insert (Name.v "Person") (S.tuple [ ("Age", V.str "old") ]) st in
        check Alcotest.bool "bad domain" true
          (List.exists
             (function S.Bad_domain _ -> true | _ -> false)
             (S.check st)));
    tc "duplicate key detected across category" (fun () ->
        let st = S.create schema in
        let st, _ = S.insert (Name.v "Person") (S.tuple [ ("Ssn", V.str "1") ]) st in
        let st, _ = S.insert (Name.v "Student") (S.tuple [ ("Ssn", V.str "1") ]) st in
        check Alcotest.bool "dup key" true
          (List.exists
             (function S.Duplicate_key _ -> true | _ -> false)
             (S.check st)));
    tc "duplicate keys compare as values, not as printed" (fun () ->
        let dups ssns =
          let st =
            List.fold_left
              (fun st ssn ->
                fst (S.insert (Name.v "Person") (S.tuple [ ("Ssn", ssn) ]) st))
              (S.create schema) ssns
          in
          List.length
            (List.filter
               (function S.Duplicate_key _ -> true | _ -> false)
               (S.check st))
        in
        check Alcotest.int "7th digit" 0 (dups [ V.real 1.0000001; V.real 1.0000002 ]);
        check Alcotest.int "int and real" 1 (dups [ V.int 3; V.real 3. ]));
    tc "cardinality violation detected" (fun () ->
        (* every Student must be advised exactly once; an unadvised
           student violates (1,1) *)
        let st = S.create schema in
        let st, _ = S.insert (Name.v "Student") (S.tuple [ ("Ssn", V.str "1") ]) st in
        check Alcotest.bool "cardinality" true
          (List.exists
             (function S.Cardinality_violation _ -> true | _ -> false)
             (S.check st)));
    tc "dangling participant detected" (fun () ->
        let st = S.create schema in
        let st, p = S.insert (Name.v "Person") (S.tuple [ ("Ssn", V.str "1") ]) st in
        (* p is not a Student, yet used in the Student slot *)
        let st = S.relate (Name.v "Advises") [ p; p ] Name.Map.empty st in
        check Alcotest.bool "dangling" true
          (List.exists
             (function S.Dangling_participant _ -> true | _ -> false)
             (S.check st)));
    tc "violation messages are readable" (fun () ->
        let st = S.create schema in
        let st, _ = S.insert (Name.v "Person") (S.tuple [ ("Age", V.str "x") ]) st in
        match S.check st with
        | v :: _ ->
            check Alcotest.bool "mentions entity" true
              (Util.contains ~needle:"entity" (S.violation_to_string v))
        | [] -> Alcotest.fail "expected a violation");
  ]

let () =
  Alcotest.run "instance"
    [
      ("value", value_tests);
      ("store", store_tests);
      ("integrity", integrity_tests);
    ]
