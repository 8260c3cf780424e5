(* Tests for the basic-relation algebra behind assertion composition. *)

open Integrate

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check
let rel = Alcotest.testable (Fmt.of_to_string Rel.to_string) Rel.equal

let basics = [ Rel.Eq; Rel.Lt; Rel.Gt; Rel.Ov; Rel.Dj ]

let converse_basic b =
  match Rel.is_singleton (Rel.converse (Rel.of_basic b)) with
  | Some b' -> b'
  | None -> assert false

(* every subset of the five basic relations *)
let all_subsets =
  List.init 32 (fun mask ->
      List.filteri (fun i _ -> (mask lsr i) land 1 = 1) basics)

let set_tests =
  [
    tc "of_list / to_list round" (fun () ->
        check rel "all" Rel.all (Rel.of_list basics);
        check rel "empty" Rel.empty (Rel.of_list []);
        check Alcotest.int "cardinal" 5 (Rel.cardinal Rel.all));
    tc "mem" (fun () ->
        check Alcotest.bool "eq in all" true (Rel.mem Rel.Eq Rel.all);
        check Alcotest.bool "eq not in {lt}" false
          (Rel.mem Rel.Eq (Rel.of_basic Rel.Lt)));
    tc "singleton detection" (fun () ->
        check Alcotest.bool "lt" true
          (Rel.is_singleton (Rel.of_basic Rel.Lt) = Some Rel.Lt);
        check Alcotest.bool "pair" true
          (Rel.is_singleton (Rel.of_list [ Rel.Lt; Rel.Ov ]) = None));
    tc "inter union subset" (fun () ->
        let a = Rel.of_list [ Rel.Lt; Rel.Ov ]
        and b = Rel.of_list [ Rel.Ov; Rel.Dj ] in
        check rel "inter" (Rel.of_basic Rel.Ov) (Rel.inter a b);
        check rel "union" (Rel.of_list [ Rel.Lt; Rel.Ov; Rel.Dj ]) (Rel.union a b);
        check Alcotest.bool "subset" true (Rel.subset (Rel.of_basic Rel.Ov) a));
  ]

let converse_tests =
  [
    tc "converse swaps Lt/Gt" (fun () ->
        check rel "lt->gt" (Rel.of_basic Rel.Gt) (Rel.converse (Rel.of_basic Rel.Lt));
        check rel "set" (Rel.of_list [ Rel.Gt; Rel.Dj ])
          (Rel.converse (Rel.of_list [ Rel.Lt; Rel.Dj ])));
    tc "converse is an involution (all 32 subsets)" (fun () ->
        List.iter
          (fun subset ->
            let r = Rel.of_list subset in
            check rel "involution" r (Rel.converse (Rel.converse r)))
          all_subsets);
    tc "the converse table maps members one by one (all 32 sets)" (fun () ->
        List.iter
          (fun subset ->
            let r = Rel.of_list subset in
            check rel (Rel.to_string r) (Assertions_oracle.converse r)
              (Rel.converse r))
          all_subsets);
  ]

let composition_tests =
  [
    tc "Eq is the identity" (fun () ->
        List.iter
          (fun b ->
            check rel "left id" (Rel.of_basic b) (Rel.compose_basic Rel.Eq b);
            check rel "right id" (Rel.of_basic b) (Rel.compose_basic b Rel.Eq))
          basics);
    tc "subset chains compose" (fun () ->
        check rel "lt.lt" (Rel.of_basic Rel.Lt) (Rel.compose_basic Rel.Lt Rel.Lt);
        check rel "gt.gt" (Rel.of_basic Rel.Gt) (Rel.compose_basic Rel.Gt Rel.Gt));
    tc "subset of disjoint is disjoint" (fun () ->
        check rel "lt.dj" (Rel.of_basic Rel.Dj) (Rel.compose_basic Rel.Lt Rel.Dj);
        check rel "dj.gt" (Rel.of_basic Rel.Dj) (Rel.compose_basic Rel.Dj Rel.Gt));
    tc "uninformative entries are all" (fun () ->
        check rel "lt.gt" Rel.all (Rel.compose_basic Rel.Lt Rel.Gt);
        check rel "ov.ov" Rel.all (Rel.compose_basic Rel.Ov Rel.Ov);
        check rel "dj.dj" Rel.all (Rel.compose_basic Rel.Dj Rel.Dj));
    tc "gt.lt excludes disjoint" (fun () ->
        check rel "gt.lt"
          (Rel.of_list [ Rel.Eq; Rel.Lt; Rel.Gt; Rel.Ov ])
          (Rel.compose_basic Rel.Gt Rel.Lt));
    tc "compose distributes over sets" (fun () ->
        let a = Rel.of_list [ Rel.Lt; Rel.Eq ] in
        let b = Rel.of_basic Rel.Dj in
        check rel "set compose"
          (Rel.union
             (Rel.compose_basic Rel.Lt Rel.Dj)
             (Rel.compose_basic Rel.Eq Rel.Dj))
          (Rel.compose a b));
    tc "converse duality on the whole table" (fun () ->
        (* (r1 . r2)^ = r2^ . r1^ *)
        List.iter
          (fun r1 ->
            List.iter
              (fun r2 ->
                check rel
                  (Printf.sprintf "%s.%s" (Rel.basic_to_string r1)
                     (Rel.basic_to_string r2))
                  (Rel.converse (Rel.compose_basic r1 r2))
                  (Rel.compose_basic (converse_basic r2) (converse_basic r1)))
              basics)
          basics);
    tc "compose is monotone in both arguments" (fun () ->
        List.iter
          (fun sub ->
            let small = Rel.of_list sub in
            List.iter
              (fun b ->
                let other = Rel.of_basic b in
                check Alcotest.bool "left monotone" true
                  (Rel.subset (Rel.compose small other) (Rel.compose Rel.all other));
                check Alcotest.bool "right monotone" true
                  (Rel.subset (Rel.compose other small) (Rel.compose other Rel.all)))
              basics)
          all_subsets);
    tc "the compose table is the compose_basic fold (all 32x32 sets)"
      (fun () ->
        List.iter
          (fun s1 ->
            let r1 = Rel.of_list s1 in
            List.iter
              (fun s2 ->
                let r2 = Rel.of_list s2 in
                check rel
                  (Rel.to_string r1 ^ "." ^ Rel.to_string r2)
                  (Assertions_oracle.compose r1 r2)
                  (Rel.compose r1 r2))
              all_subsets)
          all_subsets);
  ]

let minimality_tests =
  [
    tc "composition table is minimal (every entry witnessed by extents)"
      (fun () ->
        (* enumerate every triple of non-empty subsets of {0..5} and
           record which (r_AB, r_BC, r_AC) combinations actually occur;
           every basic relation the table admits must occur, i.e. the
           table is not just sound but tight *)
        let subsets =
          List.init 63 (fun bits ->
              List.filter (fun i -> ((bits + 1) lsr i) land 1 = 1) [ 0; 1; 2; 3; 4; 5 ])
        in
        let seen = Hashtbl.create 256 in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let r_ab = Rel.basic_of_extents Int.equal a b in
                List.iter
                  (fun c ->
                    let r_bc = Rel.basic_of_extents Int.equal b c in
                    let r_ac = Rel.basic_of_extents Int.equal a c in
                    Hashtbl.replace seen (r_ab, r_bc, r_ac) ())
                  subsets)
              subsets)
          subsets;
        List.iter
          (fun r1 ->
            List.iter
              (fun r2 ->
                List.iter
                  (fun r3 ->
                    if Rel.mem r3 (Rel.compose_basic r1 r2) then
                      check Alcotest.bool
                        (Printf.sprintf "%s.%s admits %s"
                           (Rel.basic_to_string r1) (Rel.basic_to_string r2)
                           (Rel.basic_to_string r3))
                        true
                        (Hashtbl.mem seen (r1, r2, r3)))
                  basics)
              basics)
          basics);
  ]

let extent_tests =
  [
    tc "basic_of_extents all five cases" (fun () ->
        let basic = Alcotest.testable (Fmt.of_to_string Rel.basic_to_string) ( = ) in
        let f = Rel.basic_of_extents Int.equal in
        check basic "eq" Rel.Eq (f [ 1; 2 ] [ 2; 1 ]);
        check basic "lt" Rel.Lt (f [ 1 ] [ 1; 2 ]);
        check basic "gt" Rel.Gt (f [ 1; 2 ] [ 2 ]);
        check basic "ov" Rel.Ov (f [ 1; 2 ] [ 2; 3 ]);
        check basic "dj" Rel.Dj (f [ 1 ] [ 2 ]));
  ]

let assertion_tests =
  [
    tc "codes round-trip" (fun () ->
        List.iter
          (fun a ->
            check Alcotest.bool "round" true
              (Assertion.of_code (Assertion.code a) = Some a))
          [
            Assertion.Equal;
            Assertion.Contained_in;
            Assertion.Contains;
            Assertion.Disjoint_integrable;
            Assertion.May_be;
            Assertion.Disjoint_nonintegrable;
          ];
        check Alcotest.bool "bad code" true (Assertion.of_code 7 = None));
    tc "codes match the screens" (fun () ->
        check Alcotest.int "equals=1" 1 (Assertion.code Assertion.Equal);
        check Alcotest.int "contained=2" 2 (Assertion.code Assertion.Contained_in);
        check Alcotest.int "contains=3" 3 (Assertion.code Assertion.Contains);
        check Alcotest.int "dj-int=4" 4 (Assertion.code Assertion.Disjoint_integrable);
        check Alcotest.int "maybe=5" 5 (Assertion.code Assertion.May_be);
        check Alcotest.int "dj-non=0" 0 (Assertion.code Assertion.Disjoint_nonintegrable));
    tc "converse" (fun () ->
        check Alcotest.bool "contains" true
          (Assertion.converse Assertion.Contains = Assertion.Contained_in);
        check Alcotest.bool "equal fixed" true
          (Assertion.converse Assertion.Equal = Assertion.Equal));
    tc "integrable classification" (fun () ->
        check Alcotest.bool "dj-int" true
          (Assertion.integrable Assertion.Disjoint_integrable);
        check Alcotest.bool "dj-non" false
          (Assertion.integrable Assertion.Disjoint_nonintegrable);
        check Alcotest.bool "is_disjoint" true
          (Assertion.is_disjoint Assertion.Disjoint_integrable
          && Assertion.is_disjoint Assertion.Disjoint_nonintegrable
          && not (Assertion.is_disjoint Assertion.May_be)));
    tc "denotations" (fun () ->
        check rel "equal" (Rel.of_basic Rel.Eq) (Rel.of_assertion Assertion.Equal);
        check rel "both disjoints" (Rel.of_basic Rel.Dj)
          (Rel.of_assertion Assertion.Disjoint_integrable));
    tc "to_assertion respects integrability flag" (fun () ->
        check Alcotest.bool "integrable" true
          (Rel.to_assertion ~integrable:true (Rel.of_basic Rel.Dj)
          = Some Assertion.Disjoint_integrable);
        check Alcotest.bool "non" true
          (Rel.to_assertion ~integrable:false (Rel.of_basic Rel.Dj)
          = Some Assertion.Disjoint_nonintegrable);
        check Alcotest.bool "non-singleton" true
          (Rel.to_assertion ~integrable:false Rel.all = None));
  ]

let () =
  Alcotest.run "rel"
    [
      ("sets", set_tests);
      ("converse", converse_tests);
      ("composition", composition_tests);
      ("extents", extent_tests);
      ("minimality", minimality_tests);
      ("assertions", assertion_tests);
    ]
