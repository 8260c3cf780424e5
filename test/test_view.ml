(* Tests for materialized views (lib/view) and their serving-tier
   integration: the incremental-vs-recompute differential property over
   random update interleavings, wire-protocol fields, stale reads under
   the manual policy, refresh-under-load, and restart of the view
   catalog from the replication log. *)

open Ecr
module S = Instance.Store
module V = Instance.Value
module Json = Obs.Json

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* ---- fixtures: the paper's sc1+sc2 session with instances --------- *)

let sc1_store () =
  let st = S.create Workload.Paper.sc1 in
  let student name gpa = S.tuple [ ("Name", V.str name); ("GPA", V.real gpa) ] in
  let st, ann = S.insert (Name.v "Student") (student "Ann" 3.9) st in
  let st, ben = S.insert (Name.v "Student") (student "Ben" 2.5) st in
  let st, cyd = S.insert (Name.v "Student") (student "Cyd" 3.2) st in
  let st, cs = S.insert (Name.v "Department") (S.tuple [ ("Name", V.str "CS") ]) st in
  let st, ee = S.insert (Name.v "Department") (S.tuple [ ("Name", V.str "EE") ]) st in
  let since y = S.tuple [ ("Since", V.date y 9 1) ] in
  let st = S.relate (Name.v "Majors") [ ann; cs ] (since 2020) st in
  let st = S.relate (Name.v "Majors") [ ben; ee ] (since 2021) st in
  let st = S.relate (Name.v "Majors") [ cyd; cs ] (since 2022) st in
  st

let sc2_store () =
  let st = S.create Workload.Paper.sc2 in
  let st, _ =
    S.insert (Name.v "Grad_student")
      (S.tuple
         [
           ("Name", V.str "Ann"); ("GPA", V.real 3.9); ("Support_type", V.str "RA");
         ])
      st
  in
  let st, _ =
    S.insert (Name.v "Faculty")
      (S.tuple [ ("Name", V.str "Dr. Lee"); ("Rank", V.str "Assoc") ])
      st
  in
  st

let fresh_session ?journal_dir () =
  let result = Workload.Paper.integrate_sc1_sc2 () in
  Server.make_session ?journal_dir ~result
    ~stores:
      [ (Workload.Paper.sc1, sc1_store ()); (Workload.Paper.sc2, sc2_store ()) ]
    ()

let session = lazy (fresh_session ())
let local = Server.Wire.Tcp ("127.0.0.1", 0)

let with_server ?(session = Lazy.force session) ?(queue = 64)
    ?deadline_ms ?(cache = 128) ?(debug = false) f =
  let cfg =
    {
      Server.listen = local;
      queue;
      deadline_ms;
      cache;
      debug;
      repl = Server.default_repl;
    }
  in
  match Server.start session cfg with
  | Error msg -> Alcotest.fail ("server failed to start: " ^ msg)
  | Ok t ->
      let addr =
        match Server.port t with
        | Some p -> Server.Wire.Tcp ("127.0.0.1", p)
        | None -> Alcotest.fail "no bound port"
      in
      Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t addr)

let with_client addr f =
  let c = Server.Client.connect addr in
  Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () -> f c)

let rows_bytes rows = String.concat "\n" (List.map Query.Eval.row_to_string rows)

let with_temp_dir f =
  let dir = Filename.temp_file "sit_views" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rm_rf () =
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:rm_rf (fun () -> f dir)

(* ---- the differential property ------------------------------------ *)

(* After every step of a random interleaving of inserts, modifies,
   deletes, refreshes and reads, each view that claims to be fresh must
   hold an extent byte-identical to from-scratch evaluation of its
   defining query — the module's correctness anchor. *)
let differential_test () =
  let session = Lazy.force session in
  let mapping = session.Server.result.Integrate.Result.mapping in
  let sc1 = Workload.Paper.sc1 in
  let integrated text =
    fst
      (Query.Rewrite.to_integrated mapping ~view:sc1
         (Query.Parser.query_of_string text))
  in
  let cat = View.create () in
  let store = ref session.Server.initial_merged in
  let define name policy text =
    match
      View.define cat ~name ~policy ~source:text ~query:(integrated text)
        ~post:(fun r -> r)
        !store
    with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  in
  define "e" View.Eager "select Name from Student where GPA >= 3.0";
  define "l" View.Lazy "select Name, GPA from Student";
  define "m" View.Manual "select Name from Student where GPA >= 3.5";
  define "j" View.Eager
    "select Name from Student via Majors to Department select Name";
  let names = [ "e"; "l"; "m"; "j" ] in
  let check_consistent step =
    List.iter
      (fun v ->
        match View.For_testing.raw_rows cat v with
        | None -> Alcotest.fail ("missing view " ^ v)
        | Some (rows, fresh) ->
            if fresh then
              let q =
                match View.definition cat v with
                | Some q -> q
                | None -> Alcotest.fail "no definition"
              in
              check Alcotest.string
                (Printf.sprintf "step %d: %s byte-identical" step v)
                (rows_bytes (Query.Eval.run q !store))
                (rows_bytes rows))
      names
  in
  let rng = Random.State.make [| 0x5EED; 22 |] in
  let apply_update u =
    let u' = Query.Update.to_integrated mapping ~view:sc1 u in
    let st, _ = Query.Update.apply u' !store in
    store := st;
    View.notify_update cat u' !store
  in
  let students = ref [ "Ann"; "Ben"; "Cyd" ] in
  let counter = ref 0 in
  let random_gpa () = float (Random.State.int rng 41) /. 10. in
  for step = 1 to 300 do
    (match Random.State.int rng 100 with
    | n when n < 35 ->
        incr counter;
        let nm = Printf.sprintf "S%d" !counter in
        students := nm :: !students;
        apply_update
          (Query.Update.insert "Student"
             [ ("Name", V.str nm); ("GPA", V.real (random_gpa ())) ])
    | n when n < 50 -> (
        match !students with
        | [] -> ()
        | l ->
            let nm = List.nth l (Random.State.int rng (List.length l)) in
            apply_update
              (Query.Update.modify "Student"
                 ~where:(Query.Ast.atom "Name" Query.Ast.Eq (V.str nm))
                 [ ("GPA", V.real (random_gpa ())) ]))
    | n when n < 62 -> (
        match !students with
        | [] -> ()
        | l ->
            let i = Random.State.int rng (List.length l) in
            let nm = List.nth l i in
            students := List.filteri (fun k _ -> k <> i) l;
            apply_update
              (Query.Update.delete "Student"
                 ~where:(Query.Ast.atom "Name" Query.Ast.Eq (V.str nm))))
    | n when n < 80 -> (
        let v = List.nth names (Random.State.int rng (List.length names)) in
        match View.refresh cat v !store with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
    | _ -> (
        let v = List.nth names (Random.State.int rng (List.length names)) in
        match View.read cat v !store with
        | Error e -> Alcotest.fail e
        | Ok (rows, fresh) ->
            (* identity post: a fresh read IS the from-scratch answer *)
            if fresh then
              let q =
                match View.definition cat v with
                | Some q -> q
                | None -> Alcotest.fail "no definition"
              in
              check Alcotest.string
                (Printf.sprintf "step %d: %s read matches eval" step v)
                (rows_bytes (Query.Eval.run q !store))
                (rows_bytes rows)));
    check_consistent step
  done;
  (* force the stragglers fresh and re-verify everything *)
  List.iter
    (fun v ->
      match View.refresh cat v !store with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    names;
  check_consistent 301;
  (* the cheap path must actually have been exercised *)
  let total f = List.fold_left (fun acc i -> acc + f i) 0 (View.infos cat) in
  check Alcotest.bool "delta appends happened" true
    (total (fun i -> i.View.delta_appends) > 0);
  check Alcotest.bool "stale marks happened" true
    (total (fun i -> i.View.stale_marks) > 0)

let catalog_tests =
  [
    tc "incremental maintenance is byte-identical to recompute"
      differential_test;
    tc "define rejects duplicates; drop forgets" (fun () ->
        let session = Lazy.force session in
        let store = session.Server.initial_merged in
        let cat = View.create () in
        let q = Query.Parser.query_of_string "select * from Faculty" in
        let define name =
          View.define cat ~name ~policy:View.Lazy ~source:"select * from Faculty"
            ~query:q
            ~post:(fun r -> r)
            store
        in
        (match define "a" with Ok () -> () | Error e -> Alcotest.fail e);
        (match define "a" with
        | Error e ->
            check Alcotest.bool "duplicate name named" true
              (Util.contains ~needle:"already exists" e)
        | Ok () -> Alcotest.fail "duplicate name accepted");
        (match define "b" with
        | Error e ->
            check Alcotest.bool "duplicate shape names the holder" true
              (Util.contains ~needle:"a" e)
        | Ok () -> Alcotest.fail "duplicate shape accepted");
        check Alcotest.bool "drop" true (View.drop cat "a");
        check Alcotest.bool "drop unknown" false (View.drop cat "a");
        (match define "b" with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("shape free after drop: " ^ e)));
    tc "ill-typed definitions are rejected" (fun () ->
        let session = Lazy.force session in
        let cat = View.create () in
        match
          View.define cat ~name:"bad" ~policy:View.Eager
            ~source:"select Nope from Student"
            ~query:(Query.Parser.query_of_string "select Nope from Student")
            ~post:(fun r -> r)
            session.Server.initial_merged
        with
        | Ok () -> Alcotest.fail "ill-typed definition accepted"
        | Error _ -> ());
    tc "a real past the 6th significant digit makes another shape"
      (fun () ->
        let session = Lazy.force session in
        let store = session.Server.initial_merged in
        let cat = View.create () in
        let source = "select * from Student where D_GPA > 3.2" in
        let q = Query.Parser.query_of_string in
        (match
           View.define cat ~name:"v" ~policy:View.Eager ~source
             ~query:(q source) ~post:(fun r -> r) store
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        check Alcotest.bool "a re-spelling is served from the view" true
          (View.lookup_shape cat
             (q "SELECT *  FROM Student WHERE D_GPA > 3.2")
             store
          <> None);
        check Alcotest.bool "3.1999999 is not 3.2" true
          (View.lookup_shape cat
             (q "select * from Student where D_GPA > 3.1999999")
             store
          = None));
  ]

(* ---- wholesale store rebuild (migrate) ---------------------------- *)

let migration_tests =
  [
    tc "notify_reset re-materializes every extent" (fun () ->
        let session = Lazy.force session in
        let store = session.Server.initial_merged in
        let cat = View.create () in
        (match
           View.define cat ~name:"v" ~policy:View.Lazy
             ~source:"select * from Faculty"
             ~query:(Query.Parser.query_of_string "select * from Faculty")
             ~post:(fun r -> r)
             store
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        (* a delete on the view's class leaves a lazy extent stale *)
        let del =
          Query.Parser.update_of_string
            "delete from Faculty where Rank = 'Nobody'"
        in
        View.notify_update cat del (fst (Query.Update.apply del store));
        (match View.For_testing.raw_rows cat "v" with
        | Some (_, fresh) -> check Alcotest.bool "stale" false fresh
        | None -> Alcotest.fail "view lost");
        let dropped = View.notify_reset cat store in
        check Alcotest.(list string) "nothing dropped" [] dropped;
        match View.For_testing.raw_rows cat "v" with
        | Some (_, fresh) -> check Alcotest.bool "fresh again" true fresh
        | None -> Alcotest.fail "view lost");
  ]

(* ---- wire-protocol fields ----------------------------------------- *)

let wire_tests =
  [
    tc "define_view fields parse and serialize" (fun () ->
        let line =
          Server.Wire.request_to_line ~view:"honors" ~text:"select * from S"
            ~base:"sc1" ~policy:"eager" "define_view"
        in
        match Server.Wire.request_of_line line with
        | Error (_, msg) -> Alcotest.fail msg
        | Ok r ->
            check Alcotest.string "op" "define_view" r.Server.Wire.op;
            check Alcotest.(option string) "view" (Some "honors")
              r.Server.Wire.view;
            check Alcotest.(option string) "base" (Some "sc1")
              r.Server.Wire.base;
            check Alcotest.(option string) "policy" (Some "eager")
              r.Server.Wire.policy);
    tc "ill-typed base/policy fields are bad_request" (fun () ->
        List.iter
          (fun line ->
            match Server.Wire.request_of_line line with
            | Error (Server.Wire.Bad_request, _) -> ()
            | Error (c, _) ->
                Alcotest.failf "wrong code %s" (Server.Wire.code_to_string c)
            | Ok _ -> Alcotest.failf "accepted %s" line)
          [
            {|{"op":"define_view","base":3}|};
            {|{"op":"define_view","policy":["eager"]}|};
          ]);
    tc "the op registry covers the view operations" (fun () ->
        List.iter
          (fun op ->
            check Alcotest.bool op true (List.mem op Server.Wire.ops))
          [ "define_view"; "drop_view"; "refresh_view"; "view_stats" ]);
  ]

(* ---- serving-tier behaviour --------------------------------------- *)

let response c ?view ?text ?base ?policy op =
  let resp = Server.Client.request c ?view ?text ?base ?policy op in
  if not (Server.Client.is_ok resp) then
    Alcotest.failf "request %s failed: %s" op
      (Option.value ~default:"?" (Server.Client.error_code resp));
  resp

let error_code_of c ?view ?text ?base ?policy op =
  let resp = Server.Client.request c ?view ?text ?base ?policy op in
  if Server.Client.is_ok resp then Alcotest.failf "request %s succeeded" op;
  Option.value ~default:"?" (Server.Client.error_code resp)

let fresh_of resp =
  match Json.member "fresh" resp with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.fail "no fresh flag"

let rows_of resp =
  match Json.member "rows" resp with
  | Some rows -> Json.to_string rows
  | None -> Alcotest.fail "no rows"

let server_tests =
  [
    tc "manual views serve stale honestly; refresh recovers" (fun () ->
        with_server ~session:(fresh_session ()) (fun _t addr ->
            with_client addr (fun c ->
                ignore
                  (response c ~view:"hi" ~base:"sc1" ~policy:"manual"
                     ~text:"select Name from Student where GPA >= 3.5"
                     "define_view");
                let before = response c ~view:"hi" "query" in
                check Alcotest.bool "fresh at definition" true
                  (fresh_of before);
                (* an insert is delta-appended even under manual policy;
                   a modify is what marks the extent stale *)
                ignore
                  (response c ~view:"sc1"
                     ~text:"update Student set GPA = 1.0 where Name = 'Ann'"
                     "update");
                let stale = response c ~view:"hi" "query" in
                check Alcotest.bool "served stale" false (fresh_of stale);
                check Alcotest.string "stale extent unchanged"
                  (rows_of before) (rows_of stale);
                ignore (response c ~view:"hi" "refresh_view");
                let after = response c ~view:"hi" "query" in
                check Alcotest.bool "fresh after refresh" true (fresh_of after);
                check Alcotest.bool "refresh saw the update" true
                  (rows_of after <> rows_of before))));
    tc "lazy views never serve stale; deltas keep eager views fresh"
      (fun () ->
        with_server ~session:(fresh_session ()) (fun _t addr ->
            with_client addr (fun c ->
                ignore
                  (response c ~view:"lz" ~base:"sc1" ~policy:"lazy"
                     ~text:"select Name, GPA from Student" "define_view");
                ignore
                  (response c ~view:"eg" ~base:"sc1" ~policy:"eager"
                     ~text:"select Name from Student where GPA >= 3.0"
                     "define_view");
                ignore
                  (response c ~view:"sc1"
                     ~text:"insert into Student { Name = 'New', GPA = 3.4 }"
                     "update");
                ignore
                  (response c ~view:"sc1"
                     ~text:"update Student set GPA = 1.0 where Name = 'Ann'"
                     "update");
                List.iter
                  (fun v ->
                    let got = response c ~view:v "query" in
                    check Alcotest.bool (v ^ " fresh") true (fresh_of got))
                  [ "lz"; "eg" ];
                (* byte-identity through the wire: the materialized rows
                   must equal dropping the view and evaluating *)
                let q = "select Name, GPA from Student" in
                let mat = response c ~view:"sc1" ~text:q "query" in
                ignore (response c ~view:"lz" "drop_view");
                let eval = response c ~view:"sc1" ~text:q "query" in
                check Alcotest.string "materialized == evaluated"
                  (rows_of eval) (rows_of mat))));
    tc "definition errors are typed" (fun () ->
        with_server ~session:(fresh_session ()) (fun _t addr ->
            with_client addr (fun c ->
                check Alcotest.string "component-name collision" "bad_request"
                  (error_code_of c ~view:"sc1" ~text:"select * from Faculty"
                     "define_view");
                check Alcotest.string "unknown base" "unknown_view"
                  (error_code_of c ~view:"v" ~base:"sc9"
                     ~text:"select * from Faculty" "define_view");
                check Alcotest.string "bad policy" "bad_request"
                  (error_code_of c ~view:"v" ~policy:"sometimes"
                     ~text:"select * from Faculty" "define_view");
                check Alcotest.string "parse error" "parse_error"
                  (error_code_of c ~view:"v" ~text:"select from where"
                     "define_view");
                check Alcotest.string "unknown drop" "unknown_view"
                  (error_code_of c ~view:"nope" "drop_view");
                check Alcotest.string "unknown refresh" "unknown_view"
                  (error_code_of c ~view:"nope" "refresh_view");
                check Alcotest.string "unknown materialized read"
                  "unknown_view"
                  (error_code_of c ~view:"nope" "query");
                check Alcotest.string
                  "component view without q still needs q" "bad_request"
                  (error_code_of c ~view:"sc1" "query"))));
    tc "stats and health report the catalog" (fun () ->
        with_server ~session:(fresh_session ()) (fun _t addr ->
            with_client addr (fun c ->
                ignore
                  (response c ~view:"v1" ~base:"sc1" ~policy:"manual"
                     ~text:"select Name from Student" "define_view");
                ignore
                  (response c ~view:"sc1"
                     ~text:"delete from Student where Name = 'Ben'" "update");
                let stats = response c "view_stats" in
                (match Json.member "views" stats with
                | Some (Json.List [ v ]) ->
                    check
                      Alcotest.(option string)
                      "name"
                      (Some "v1")
                      (match Json.member "name" v with
                      | Some (Json.String s) -> Some s
                      | _ -> None);
                    check Alcotest.bool "stale after delete" true
                      (Json.member "fresh" v = Some (Json.Bool false))
                | _ -> Alcotest.fail "expected one view");
                let health = response c "health" in
                match Json.find [ "views"; "stale" ] health with
                | Some (Json.Int n) -> check Alcotest.int "stale count" 1 n
                | _ -> Alcotest.fail "no views section in health")));
    tc "reads refresh correctly while the pool is under load" (fun () ->
        with_server ~session:(fresh_session ()) ~debug:true
          (fun _t addr ->
            with_client addr (fun c ->
                ignore
                  (response c ~view:"lz" ~base:"sc1" ~policy:"lazy"
                     ~text:"select Name, GPA from Student" "define_view");
                (* keep one connection busy in a data op the whole time *)
                let sleeper =
                  Thread.create
                    (fun () ->
                      with_client addr (fun s ->
                          ignore
                            (Server.Client.roundtrip s
                               (Server.Wire.request_to_line ~text:"400" "sleep"))))
                    ()
                in
                let writers =
                  List.init 2 (fun w ->
                      Thread.create
                        (fun () ->
                          with_client addr (fun wc ->
                              for i = 1 to 10 do
                                ignore
                                  (response wc ~view:"sc1"
                                     ~text:
                                       (Printf.sprintf
                                          "insert into Student { Name = \
                                           'W%d_%d', GPA = 3.1 }"
                                          w i)
                                     "update")
                              done))
                        ())
                in
                let readers =
                  List.init 2 (fun _ ->
                      Thread.create
                        (fun () ->
                          with_client addr (fun rc ->
                              for _ = 1 to 15 do
                                let got = response rc ~view:"lz" "query" in
                                check Alcotest.bool "always fresh" true
                                  (fresh_of got)
                              done))
                        ())
                in
                List.iter Thread.join (writers @ readers @ [ sleeper ]);
                (* quiesced: materialized must equal a plain evaluation *)
                let q = "select Name, GPA from Student" in
                let mat = response c ~view:"sc1" ~text:q "query" in
                ignore (response c ~view:"lz" "drop_view");
                let eval = response c ~view:"sc1" ~text:q "query" in
                check Alcotest.string "consistent after load" (rows_of eval)
                  (rows_of mat))));
    tc "the view catalog survives a restart via its journal" (fun () ->
        with_temp_dir (fun dir ->
            let bytes1 =
              with_server ~session:(fresh_session ~journal_dir:dir ())
                (fun _t addr ->
                  with_client addr (fun c ->
                      ignore
                        (response c ~view:"keep" ~base:"sc1" ~policy:"eager"
                           ~text:"select Name from Student where GPA >= 3.0"
                           "define_view");
                      ignore
                        (response c ~view:"gone" ~base:"sc1"
                           ~text:"select Name from Department" "define_view");
                      ignore (response c ~view:"gone" "drop_view");
                      rows_of (response c ~view:"keep" "query")))
            in
            (* a new process over the same journal dir resumes the
               catalog: the kept view answers identically, the dropped
               one stays dropped *)
            with_server ~session:(fresh_session ~journal_dir:dir ())
              (fun _t addr ->
                with_client addr (fun c ->
                    let got = response c ~view:"keep" "query" in
                    check Alcotest.bool "fresh after resume" true
                      (fresh_of got);
                    check Alcotest.string "same bytes after resume" bytes1
                      (rows_of got);
                    check Alcotest.string "dropped stays dropped"
                      "unknown_view"
                      (error_code_of c ~view:"gone" "query")))));
    tc "a manual view answers byte-identically across a journaled restart"
      (fun () ->
        (* the view is defined after a delete; a restart must replay
           the delete before the definition, not define the view over
           the pre-delete store and then mark it stale *)
        let observe c =
          let got = response c ~view:"m" "query" in
          check Alcotest.bool "fresh" true (fresh_of got);
          check Alcotest.string "Ben is gone"
            {|[{"Name":"Ann"},{"Name":"Cyd"}]|} (rows_of got);
          (Json.to_string got, Json.to_string (response c "view_stats"))
        in
        let leg ~compact =
          with_temp_dir (fun dir ->
              let before =
                with_server ~session:(fresh_session ~journal_dir:dir ())
                  (fun _t addr ->
                    with_client addr (fun c ->
                        ignore
                          (response c ~view:"sc1"
                             ~text:"delete from Student where Name = 'Ben'"
                             "update");
                        ignore
                          (response c ~view:"m" ~base:"sc1" ~policy:"manual"
                             ~text:"select Name from Student" "define_view");
                        if compact then ignore (response c "repl_compact");
                        observe c))
              in
              let after =
                with_server ~session:(fresh_session ~journal_dir:dir ())
                  (fun _t addr -> with_client addr observe)
              in
              let label = if compact then "after repl_compact" else "log only" in
              check Alcotest.string (label ^ ": query m") (fst before)
                (fst after);
              check Alcotest.string (label ^ ": view_stats") (snd before)
                (snd after))
        in
        leg ~compact:false;
        leg ~compact:true);
  ]

let () =
  Alcotest.run "view"
    [
      ("catalog", catalog_tests);
      ("migration", migration_tests);
      ("wire", wire_tests);
      ("serving", server_tests);
    ]
