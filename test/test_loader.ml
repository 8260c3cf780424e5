(* Tests for the instance-data text format. *)

open Ecr
module S = Instance.Store
module V = Instance.Value

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let sample =
  {|
-- the paper's sc1 data
instance sc1 {
  Student { Name = "Ann", GPA = 3.9 } as ann
  Student { Name = "Ben", GPA = 2.5 } as ben
  Department { Name = "CS" } as cs
  Majors (ann, cs) { Since = 2020-09-01 }
  Majors (ben, cs)
}
|}

let load () =
  Instance.Loader.load_string ~schemas:[ Workload.Paper.sc1; Workload.Paper.sc2 ]
    sample

let tests =
  [
    tc "entities and links load" (fun () ->
        match load () with
        | [ (_, st1); (_, st2) ] ->
            check Alcotest.int "students" 2 (S.cardinality_of (Name.v "Student") st1);
            check Alcotest.int "departments" 1
              (S.cardinality_of (Name.v "Department") st1);
            check Alcotest.int "links" 2 (List.length (S.links (Name.v "Majors") st1));
            check Alcotest.int "sc2 empty" 0 (List.length (S.entities st2))
        | _ -> Alcotest.fail "expected two stores");
    tc "values land with types" (fun () ->
        let _, st1 = List.hd (load ()) in
        let anns =
          Query.Eval.run
            Query.Ast.(query "Student" ~where:(atom "Name" Eq (V.str "Ann")))
            st1
        in
        match anns with
        | [ row ] ->
            check Alcotest.bool "gpa real" true
              (V.equal (Name.Map.find (Name.v "GPA") row) (V.real 3.9))
        | _ -> Alcotest.fail "expected one Ann");
    tc "dates parse" (fun () ->
        let _, st1 = List.hd (load ()) in
        match S.links (Name.v "Majors") st1 with
        | { S.values; _ } :: _ ->
            check Alcotest.bool "date" true
              (V.equal
                 (Option.value ~default:V.Null (Name.Map.find_opt (Name.v "Since") values))
                 (V.date 2020 9 1))
        | [] -> Alcotest.fail "no links");
    tc "category classification via 'in'" (fun () ->
        let text =
          "instance sc4 {\n  Student { Name = \"Zoe\" } as zoe\n  in \
           Grad_student: zoe\n}"
        in
        match Instance.Loader.load_string ~schemas:[ Workload.Paper.sc4 ] text with
        | [ (_, st) ] ->
            check Alcotest.int "grad extent" 1
              (S.cardinality_of (Name.v "Grad_student") st)
        | _ -> Alcotest.fail "expected one store");
    tc "round trip through to_string" (fun () ->
        let schema, st = List.hd (load ()) in
        let text = Instance.Loader.to_string schema st in
        match Instance.Loader.load_string ~schemas:[ schema ] text with
        | [ (_, st') ] ->
            check Alcotest.int "same students"
              (S.cardinality_of (Name.v "Student") st)
              (S.cardinality_of (Name.v "Student") st');
            check Alcotest.int "same links"
              (List.length (S.links (Name.v "Majors") st))
              (List.length (S.links (Name.v "Majors") st'));
            (* and answers agree *)
            let q = Query.Ast.query "Student" in
            check Alcotest.bool "same answers" true
              (Query.Eval.same_answers (Query.Eval.run q st) (Query.Eval.run q st'))
        | _ -> Alcotest.fail "expected one store");
    tc "loaded stores satisfy integrity" (fun () ->
        List.iter
          (fun (_, st) ->
            check Alcotest.int "clean" 0 (List.length (S.check st)))
          (load ()));
    tc "errors carry file:line positions and the offending token" (fun () ->
        List.iter
          (fun (text, line, needle) ->
            match
              Instance.Loader.load_string ~file:"bad.ecd"
                ~schemas:[ Workload.Paper.sc1 ] text
            with
            | exception (Instance.Loader.Error { file; line = l; _ } as e) ->
                let msg = Instance.Loader.error_to_string e in
                check Alcotest.string "file" "bad.ecd" file;
                check Alcotest.int ("line of " ^ msg) line l;
                check Alcotest.bool (needle ^ " in " ^ msg) true
                  (Util.contains ~needle msg);
                check Alcotest.bool ("position prefix in " ^ msg) true
                  (Util.contains ~needle:(Printf.sprintf "bad.ecd:%d:" line) msg)
            | _ -> Alcotest.failf "accepted %S" text)
          [
            ("instance nope { }", 1, "unknown schema");
            ("instance sc1 {\n  Ghost { }\n}", 2, "unknown structure");
            ("instance sc1 {\n  Majors (a, b)\n}", 2, "unknown label");
            ("instance sc1 {\n  Student { Name = }\n}", 2, "found '}'");
            ("instance sc1 {\n  Student { Name = 1.2.3 }\n}", 2,
             "malformed number '1.2.3'");
            ("instance sc1 {\n  Student ? { }\n}", 2, "illegal character");
            (* a literal past the largest double is refused, not read as inf *)
            ( "instance sc1 {\n  Student { GPA = 1" ^ String.make 400 '0' ^ ".0 }\n}",
              2,
              "is out of range" );
            (* newlines inside a string count towards later lines *)
            ("instance sc1 {\n  Student { Name = \"A\nB\" }\n  Ghost { }\n}", 4,
             "unknown structure Ghost");
            ("instance sc1 {\n  Student { Name = \"A\nB }\n}", 2,
             "unterminated string");
            (* the first error in file order wins *)
            ("instance sc1 {\n  Ghost { }\n  Student ? { }\n}", 2,
             "unknown structure Ghost");
            ( "instance sc1 {\n  Student { } as a\n  Majors (a) { Since = ? }\n}",
              3,
              "expects 2 participants, got 1" );
          ]);
    tc "the shipped example data file loads" (fun () ->
        let text =
          {|
instance sc1 {
  Student { Name = "Ann", GPA = 3.9 } as ann
  Department { Name = "CS" } as cs
  Majors (ann, cs) { Since = 2020-09-01 }
}
instance sc2 {
  Grad_student { Name = "Ann", GPA = 3.9, Support_type = "RA" } as ann
  Department { Name = "CS" } as cs
  Major_in (ann, cs) { Since = 2020-09-01 }
  Faculty { Name = "Carol", Rank = "Prof" } as carol
  Works (carol, cs)
}
|}
        in
        let stores =
          Instance.Loader.load_string
            ~schemas:[ Workload.Paper.sc1; Workload.Paper.sc2 ]
            text
        in
        let r = Workload.Paper.integrate_sc1_sc2 () in
        let merged, report =
          Query.Migrate.run r.Integrate.Result.mapping
            ~integrated:r.Integrate.Result.schema stores
        in
        check Alcotest.int "fused" 2 report.Query.Migrate.fused;
        check Alcotest.int "clean" 0 (List.length (S.check merged)));
  ]

(* ---- the streaming loader and the plan-based migration against their
   references ([Loader_oracle], [Migrate_oracle]) ------------------- *)

let render stores =
  List.map (fun (s, st) -> Instance.Loader.to_string s st) stores

(* Schemas, their integration and an instance text of every schema. *)
type federation = {
  schemas : Schema.t list;
  result : Integrate.Result.t;
  text : string;
}

let generated ?(population = 120) seed =
  let w =
    Workload.Generator.generate
      { Workload.Generator.default_params with seed; population }
  in
  let result, _ =
    Integrate.Protocol.run w.Workload.Generator.schemas
      w.Workload.Generator.oracle
  in
  {
    schemas = w.Workload.Generator.schemas;
    result;
    text = String.concat "\n" (render (Workload.Generator.populate w));
  }

(* The instance file [Scenario.write_files] writes. *)
let scenario seed =
  let scn =
    Workload.Scenario.generate { Workload.Scenario.default_params with seed }
  in
  {
    schemas = scn.Workload.Scenario.schemas;
    result = scn.Workload.Scenario.result;
    text = String.concat "\n" (render scn.Workload.Scenario.stores);
  }

(* Both loaders, then both migrations of what they loaded: the stores
   print byte for byte alike and the reports are equal. *)
let agree f =
  let stores = Instance.Loader.load_string ~schemas:f.schemas f.text in
  let reference = Loader_oracle.load_string ~schemas:f.schemas f.text in
  let integrated = f.result.Integrate.Result.schema in
  let mapping = f.result.Integrate.Result.mapping in
  let merged, report = Query.Migrate.run mapping ~integrated stores in
  let merged', report' = Migrate_oracle.run mapping ~integrated reference in
  check Alcotest.(list string) "loaded stores" (render reference)
    (render stores);
  check Alcotest.string "merged store"
    (Instance.Loader.to_string integrated merged')
    (Instance.Loader.to_string integrated merged);
  check Alcotest.bool "equal reports" true (report = report')

type outcome = Loaded of string list | Failed of string * int * string

let outcome load =
  match load () with
  | stores -> Loaded (render stores)
  | exception Instance.Loader.Error { file; line; message } ->
      Failed (file, line, message)

(* One edit of a valid text, built so the result has at most one error
   and no string spans a line.  An inserted character is punctuation or
   illegal and goes between two tokens, a renamed letter stays a letter,
   and no edit adds a quote or a newline.  (A [#] inside [Provider]
   would make two errors, an unknown [Provide] and an illegal character,
   and the loaders report different ones by design.) *)
type edit =
  | Insert of int * char  (** at the [i]th token boundary *)
  | Replace of int * char  (** the [i]th blank or punctuation byte *)
  | Rename of int  (** the [i]th letter becomes [q] *)
  | Drop_line of int
  | Ghost_line of int  (** the line becomes an unknown structure *)
  | Truncate of int

let edit_chars = "?#{}(),:="
let is_letter c = Char.lowercase_ascii c <> Char.uppercase_ascii c

let in_word c =
  is_letter c || (c >= '0' && c <= '9') || c = '_' || c = '.' || c = '-'

let apply_edit text edit =
  let n = String.length text in
  let nth keep i =
    let ps = List.filter keep (List.init (n + 1) Fun.id) in
    List.nth ps (i mod List.length ps)
  in
  let splice i drop s =
    String.sub text 0 i ^ s ^ String.sub text (i + drop) (n - i - drop)
  in
  let on_line k f =
    let lines = String.split_on_char '\n' text in
    let k = k mod List.length lines in
    String.concat "\n"
      (List.concat (List.mapi (fun j l -> if j = k then f l else [ l ]) lines))
  in
  match edit with
  | Insert (i, c) ->
      let boundary i =
        i = 0 || i = n || not (in_word text.[i - 1] && in_word text.[i])
      in
      splice (nth boundary i) 0 (String.make 1 c)
  | Replace (i, c) ->
      let loose i =
        i < n
        && not (in_word text.[i] || String.contains "\"'\n" text.[i])
      in
      splice (nth loose i) 1 (String.make 1 c)
  | Rename i -> splice (nth (fun i -> i < n && is_letter text.[i]) i) 1 "q"
  | Drop_line k -> on_line k (fun _ -> [])
  | Ghost_line k -> on_line k (fun _ -> [ "  Ghost { }" ])
  | Truncate i -> String.sub text 0 (i mod (n + 1))

let edit_to_string = function
  | Insert (i, c) -> Printf.sprintf "insert %C at boundary %d" c i
  | Replace (i, c) -> Printf.sprintf "replace loose byte %d by %C" i c
  | Rename i -> Printf.sprintf "letter %d becomes q" i
  | Drop_line k -> Printf.sprintf "drop line %d" k
  | Ghost_line k -> Printf.sprintf "line %d becomes Ghost" k
  | Truncate i -> Printf.sprintf "truncate at %d" i

let edit_gen =
  QCheck.Gen.(
    let pos = int_bound 1_000_000 in
    let chr =
      map (String.get edit_chars) (int_bound (String.length edit_chars - 1))
    in
    oneof
      [
        map2 (fun i c -> Insert (i, c)) pos chr;
        map2 (fun i c -> Replace (i, c)) pos chr;
        map (fun i -> Rename i) pos;
        map (fun k -> Drop_line k) pos;
        map (fun k -> Ghost_line k) pos;
        map (fun i -> Truncate i) pos;
      ])

let oracle_tests =
  let qtest ~count name gen prop =
    QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)
  in
  let edit_bases =
    List.map (fun seed -> generated ~population:24 seed) [ 1; 2; 3 ]
  in
  [
    qtest ~count:30 "generated federations load and migrate like the references"
      QCheck.(make ~print:string_of_int Gen.(int_range 0 10_000))
      (fun seed ->
        agree (generated seed);
        true);
    tc "scenario instance files load and migrate like the references" (fun () ->
        List.iter (fun seed -> agree (scenario seed)) [ 7; 11; 23; 42 ]);
    qtest ~count:600 "one edit: both loaders fail alike or load alike"
      QCheck.(
        make
          ~print:(fun (b, e) ->
            Printf.sprintf "base %d, %s" b (edit_to_string e))
          Gen.(pair (int_bound (List.length edit_bases - 1)) edit_gen))
      (fun (b, e) ->
        let f = List.nth edit_bases b in
        let text = apply_edit f.text e in
        let schemas = f.schemas in
        outcome (fun () -> Instance.Loader.load_string ~schemas text)
        = outcome (fun () -> Loader_oracle.load_string ~schemas text));
  ]

let gc_tests =
  [
    tc "loading promotes at most one word per input byte" (fun () ->
        (* the loader's own garbage must die young: before the streaming
           lexer, the file's token list outlived the minor heap and
           promoted 2-3 words per byte *)
        let f = generated ~population:1000 3 in
        let bytes = String.length f.text in
        check Alcotest.bool "at least 100 KB" true (bytes >= 100_000);
        Gc.full_major ();
        let _, before, _ = Gc.counters () in
        ignore (Instance.Loader.load_string ~schemas:f.schemas f.text);
        let _, after, _ = Gc.counters () in
        let per_byte = (after -. before) /. float_of_int bytes in
        check Alcotest.bool
          (Printf.sprintf "%.2f words promoted per byte" per_byte)
          true (per_byte <= 1.0));
  ]

(* ------------------------------------------------------------------ *)
(* Values written by [to_string] read back exactly.                    *)

(* Reals a 6-digit printer loses or writes with an exponent, and
   strings that hold one kind of quote (neither lexer has escapes, so
   no value holds both). *)
let awkward_reals = [ 1234567.5; 3.14159265; 1e-7; 1e300; 5e-324; -0.0; 1e22; 0.1 ]
let awkward_names = [ "A\"nn"; "O'Hara"; "say \"hi\", {x}"; "tab\tand\nnewline"; "" ]

let students rows =
  List.fold_left
    (fun st (name, gpa) ->
      fst
        (S.insert (Name.v "Student")
           (S.tuple [ ("Name", V.str name); ("GPA", V.real gpa) ])
           st))
    (S.create Workload.Paper.sc1) rows

(* Each student's name and the bits of its GPA, in store order. *)
let read_back st =
  let text = Instance.Loader.to_string Workload.Paper.sc1 st in
  match Instance.Loader.load_string ~schemas:[ Workload.Paper.sc1 ] text with
  | [ (_, st') ] ->
      List.map
        (fun oid ->
          match (S.value oid (Name.v "Name") st', S.value oid (Name.v "GPA") st') with
          | V.Str name, V.Real gpa -> (name, Int64.bits_of_float gpa)
          | _ -> Alcotest.fail ("a value changed type in:\n" ^ text))
        (S.entities st')
  | _ -> Alcotest.fail "expected one store"

let expected rows = List.map (fun (name, gpa) -> (name, Int64.bits_of_float gpa)) rows
let bits = Alcotest.(list (pair string int64))

let round_trip_tests =
  let name_gen =
    QCheck.Gen.(
      let* quote = oneofl [ '"'; '\'' ] in
      string_size
        ~gen:(oneofl [ 'a'; 'Z'; '0'; ' '; '\t'; '\n'; '\\'; ','; '{'; '}'; '-'; 'e'; quote ])
        (int_range 0 8))
  in
  let real_gen =
    QCheck.Gen.(
      oneof
        [
          oneofl awkward_reals;
          map Int64.float_of_bits int64 |> map (fun x -> if Float.is_finite x then x else 0.5);
        ])
  in
  [
    tc "awkward reals and quoted names read back exactly" (fun () ->
        let rows =
          List.mapi
            (fun i gpa -> (List.nth awkward_names (i mod List.length awkward_names), gpa))
            awkward_reals
        in
        check bits "values" (expected rows) (read_back (students rows)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"to_string then load_string is the identity on values"
         QCheck.(
           make
             ~print:(fun rows ->
               String.concat "; "
                 (List.map (fun (n, g) -> Printf.sprintf "%S %h" n g) rows))
             Gen.(list_size (int_range 1 6) (pair name_gen real_gen)))
         (fun rows -> expected rows = read_back (students rows)));
  ]

let () =
  Alcotest.run "loader"
    [
      ("loader", tests);
      ("oracle", oracle_tests);
      ("gc", gc_tests);
      ("values", round_trip_tests);
    ]
