(* Tests for the query-serving daemon (lib/server): protocol plumbing,
   concurrency vs. offline equivalence, backpressure, deadlines, drain;
   plus regression tests for this PR's error-path bugfixes (integration
   strategies on degenerate pools, conflict diagnostics, sit_batch
   surviving bad directives). *)

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

let session =
  lazy
    (let result = Workload.Paper.integrate_sc1_sc2 () in
     Server.make_session ~result
       ~stores:
         [
           (Workload.Paper.sc1, sc1_store ()); (Workload.Paper.sc2, sc2_store ());
         ]
       ())

let local = Server.Wire.Tcp ("127.0.0.1", 0)

(* Starts a server, runs [f] against its address, always stops it. *)
let with_server ?(queue = 64) ?deadline_ms ?(cache = 128) ?(debug = false) f =
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
  match Server.start (Lazy.force session) cfg with
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

(* the workload: view queries on both components plus a global query *)
let view_frames =
  [
    ("sc1", "select Name, GPA from Student where GPA > 3.0");
    ("sc1", "select Name from Department");
    ("sc2", "select Name from Faculty");
    ("sc2", "select Name, GPA from Grad_student");
  ]

let global_frames = [ "select D_Name from Student"; "select Rank from Faculty" ]

let frames () =
  List.map
    (fun (view, text) -> Server.Wire.request_to_line ~view ~text "query")
    view_frames
  @ List.map (fun text -> Server.Wire.request_to_line ~text "query") global_frames

(* The reference answer, computed offline (no server, single thread)
   through exactly the public query API a non-serving client uses. *)
let offline_response_for ~view ~text =
  let session = Lazy.force session in
  let mapping = session.Server.result.Integrate.Result.mapping in
  let q = Query.Parser.query_of_string text in
  let rows =
    match view with
    | Some view_name ->
        let view =
          List.find
            (fun s -> Name.to_string (Schema.name s) = view_name)
            session.Server.schemas
        in
        let q', back = Query.Rewrite.to_integrated mapping ~view q in
        back (Query.Eval.run q' session.Server.initial_merged)
    | None ->
        Query.Rewrite.run_global mapping
          ~integrated:session.Server.result.Integrate.Result.schema
          ~stores:
            (List.map
               (fun (s, st) -> (Schema.name s, st))
               session.Server.component_stores)
          q
  in
  Server.Wire.ok_line
    [
      ("rows", Server.Wire.rows_to_json rows);
      ("count", Json.Int (List.length rows));
    ]

let server_tests =
  [
    tc "responses are byte-identical to offline evaluation" (fun () ->
        with_server (fun _t addr ->
            with_client addr (fun c ->
                List.iter
                  (fun (view, text) ->
                    let got =
                      Server.Client.roundtrip c
                        (Server.Wire.request_to_line ~view ~text "query")
                    in
                    check Alcotest.string text
                      (offline_response_for ~view:(Some view) ~text)
                      got)
                  view_frames;
                List.iter
                  (fun text ->
                    let got =
                      Server.Client.roundtrip c
                        (Server.Wire.request_to_line ~text "query")
                    in
                    check Alcotest.string text
                      (offline_response_for ~view:None ~text)
                      got)
                  global_frames)));
    tc "concurrent load: 4 connections, 1k requests, zero divergence"
      (fun () ->
        with_server (fun t addr ->
            let pool = Array.of_list (frames ()) in
            let load = Array.init 1200 (fun i -> pool.(i mod Array.length pool)) in
            let stats = Server.Client.drive ~addr ~conns:4 ~frames:load () in
            check Alcotest.int "all answered" 1200 stats.Server.Client.sent;
            check Alcotest.int "all ok" 1200 stats.Server.Client.ok;
            check Alcotest.int "no divergent responses" 0
              stats.Server.Client.mismatches;
            (* every response must equal the offline reference, not just
               agree with the other connections *)
            with_client addr (fun c ->
                List.iter
                  (fun (view, text) ->
                    check Alcotest.string text
                      (offline_response_for ~view:(Some view) ~text)
                      (Server.Client.roundtrip c
                         (Server.Wire.request_to_line ~view ~text "query")))
                  view_frames);
            let s = Server.stats t in
            check Alcotest.bool "plan cache was hit" true
              (s.Server.cache_hits > 0);
            check Alcotest.bool "plan cache misses bounded by shapes" true
              (s.Server.cache_misses <= List.length (frames ()))));
    tc "malformed and failing frames never kill the daemon" (fun () ->
        with_server (fun _t addr ->
            with_client addr (fun c ->
                let code line =
                  let resp = Server.Client.roundtrip c line in
                  match Json.of_string resp with
                  | Ok v ->
                      check Alcotest.bool line false (Server.Client.is_ok v);
                      Option.value ~default:"?" (Server.Client.error_code v)
                  | Error e -> Alcotest.fail ("unparseable response: " ^ e)
                in
                check Alcotest.string "garbage" "bad_frame" (code "garbage");
                check Alcotest.string "non-object" "bad_frame" (code "[1,2]");
                check Alcotest.string "no op" "bad_request" (code "{}");
                check Alcotest.string "unknown op" "unknown_op"
                  (code {|{"op":"zap"}|});
                check Alcotest.string "missing q" "bad_request"
                  (code {|{"op":"query","view":"sc1"}|});
                check Alcotest.string "unknown view" "unknown_view"
                  (code {|{"op":"query","view":"sc9","q":"select Name from Student"}|});
                check Alcotest.string "syntax error" "parse_error"
                  (code {|{"op":"query","view":"sc1","q":"select from where"}|});
                check Alcotest.string "unmapped" "unmapped"
                  (code
                     {|{"op":"query","view":"sc1","q":"select Rank from Faculty"}|});
                check Alcotest.string "update error" "parse_error"
                  (code {|{"op":"update","view":"sc1","u":"insert garbage"}|});
                (* ... and the very same connection still gets answers *)
                let view, text = List.hd view_frames in
                check Alcotest.string "daemon still serving"
                  (offline_response_for ~view:(Some view) ~text)
                  (Server.Client.roundtrip c
                     (Server.Wire.request_to_line ~view ~text "query")))));
    tc "bounded queue answers overloaded, not buffered" (fun () ->
        with_server ~queue:1 ~debug:true (fun t addr ->
            with_client addr (fun slow ->
                with_client addr (fun fast ->
                    (* occupy the only queue slot without waiting *)
                    let sleeper =
                      Thread.create
                        (fun () ->
                          Server.Client.roundtrip slow
                            (Server.Wire.request_to_line ~text:"400" "sleep"))
                        ()
                    in
                    Thread.delay 0.1;
                    let resp =
                      Server.Client.request fast ~view:"sc1"
                        ~text:"select Name from Student" "query"
                    in
                    check Alcotest.bool "rejected" false
                      (Server.Client.is_ok resp);
                    check
                      Alcotest.(option string)
                      "overloaded" (Some "overloaded")
                      (Server.Client.error_code resp);
                    (* control ops bypass the bound *)
                    check Alcotest.bool "health still ok" true
                      (Server.Client.is_ok (Server.Client.request fast "health"));
                    Thread.join sleeper;
                    (* slot free again: the same request now succeeds *)
                    check Alcotest.bool "accepted after drain" true
                      (Server.Client.is_ok
                         (Server.Client.request fast ~view:"sc1"
                            ~text:"select Name from Student" "query"));
                    let s = Server.stats t in
                    check Alcotest.bool "overloaded counted" true
                      (s.Server.overloaded >= 1)))));
    tc "per-request deadline answers deadline_exceeded" (fun () ->
        with_server ~debug:true (fun t addr ->
            with_client addr (fun c ->
                let resp =
                  Server.Client.request c ~text:"300" ~deadline_ms:50 "sleep"
                in
                check
                  Alcotest.(option string)
                  "deadline" (Some "deadline_exceeded")
                  (Server.Client.error_code resp);
                (* without a deadline the same op completes *)
                check Alcotest.bool "no deadline" true
                  (Server.Client.is_ok
                     (Server.Client.request c ~text:"10" "sleep"));
                check Alcotest.bool "counted" true
                  ((Server.stats t).Server.deadline_exceeded >= 1))));
    tc "updates serialize and migrate resets them" (fun () ->
        with_server (fun _t addr ->
            with_client addr (fun c ->
                let count () =
                  match
                    Json.member "count"
                      (Server.Client.request c ~view:"sc1"
                         ~text:"select Name from Student" "query")
                  with
                  | Some (Json.Int n) -> n
                  | _ -> Alcotest.fail "no count"
                in
                let before = count () in
                let resp =
                  Server.Client.request c ~view:"sc1"
                    ~text:"insert into Student { Name = 'Zoe', GPA = 3.5 }"
                    "update"
                in
                check Alcotest.bool "update ok" true (Server.Client.is_ok resp);
                check Alcotest.int "one more row" (before + 1) (count ());
                let resp = Server.Client.request c "migrate" in
                check Alcotest.bool "migrate ok" true (Server.Client.is_ok resp);
                check Alcotest.int "updates reset" before (count ()))));
    tc "shutdown drains in-flight requests" (fun () ->
        let cfg =
          {
            Server.listen = local;
            queue = 8;
            deadline_ms = None;
            cache = 16;
            debug = true;
            repl = Server.default_repl;
          }
        in
        match Server.start (Lazy.force session) cfg with
        | Error msg -> Alcotest.fail msg
        | Ok t ->
            let addr =
              match Server.port t with
              | Some p -> Server.Wire.Tcp ("127.0.0.1", p)
              | None -> Alcotest.fail "no bound port"
            in
            let c = Server.Client.connect addr in
            let resp = ref "" in
            let inflight =
              Thread.create
                (fun () ->
                  resp :=
                    Server.Client.roundtrip c
                      (Server.Wire.request_to_line ~text:"300" "sleep"))
                ()
            in
            Thread.delay 0.1;
            (* returns only once drained *)
            Server.stop t;
            Thread.join inflight;
            Server.Client.close c;
            (match Json.of_string !resp with
            | Ok v ->
                check Alcotest.bool "in-flight request was answered" true
                  (Server.Client.is_ok v)
            | Error e -> Alcotest.fail ("drained response unparseable: " ^ e));
            (* the listener is gone *)
            (match Server.Client.connect addr with
            | exception Server.Client.Connection_error _ -> ()
            | c2 ->
                Server.Client.close c2;
                Alcotest.fail "server still accepting after stop");
            (* idempotent: a second stop is a no-op *)
            Server.stop t);
    tc "a global query naming a class the integrated schema lacks is unmapped"
      (fun () ->
        (* the integrated schema calls the merged class E_Department;
           sc1's Majors is merged too, and sc2's Works is not *)
        with_server (fun _t addr ->
            with_client addr (fun c ->
                List.iter
                  (fun (op, text, missing) ->
                    let resp =
                      Server.Client.roundtrip c
                        (Server.Wire.request_to_line ~text op)
                    in
                    match Json.of_string resp with
                    | Ok v ->
                        check Alcotest.(option string) (op ^ " " ^ text)
                          (Some "unmapped") (Server.Client.error_code v);
                        check Alcotest.bool ("names " ^ missing ^ ": " ^ resp) true
                          (Util.contains ~needle:missing resp)
                    | Error e -> Alcotest.fail ("unparseable response: " ^ e))
                  [
                    ("query", "select * from Department", "object class Department");
                    ("rewrite", "select * from Department", "object class Department");
                    ("query", "select Name from Department", "object class Department");
                    ( "query",
                      "select Name from Student via Majors to E_Department",
                      "relationship set Majors" );
                    ( "query",
                      "select Name from Faculty via Works to Department",
                      "object class Department" );
                  ])));
    tc "reals that agree in 6 significant digits get their own plans"
      (fun () ->
        let query text = Server.Wire.request_to_line ~view:"sc1" ~text "query" in
        let above = query "select Name from Student where GPA > 3.9000001"
        and below = query "select Name from Student where GPA > 3.8999999" in
        let fresh line = with_server (fun t _ -> Server.exec t line) in
        with_server (fun t _ ->
            check Alcotest.string "above Ann's GPA" (fresh above)
              (Server.exec t above);
            check Alcotest.string "below it, as a fresh daemon answers"
              (fresh below) (Server.exec t below);
            let hits = (Server.stats t).Server.cache_hits in
            ignore
              (Server.exec t
                 (query "SELECT Name  FROM Student\tWHERE GPA >  3.8999999"));
            check Alcotest.int "a re-spelling hits the cache" (hits + 1)
              (Server.stats t).Server.cache_hits));
  ]

(* ---- answers built from column plans ------------------------------ *)

(* A daemon over the paper's schemas and the given component stores,
   driven in-process. *)
let with_stores stores f =
  let session =
    Server.make_session ~result:(Workload.Paper.integrate_sc1_sc2 ()) ~stores ()
  in
  match Server.create session (Server.default_config local) with
  | Error msg -> Alcotest.fail ("server failed to start: " ^ msg)
  | Ok t -> Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

let member_string path line =
  match Json.of_string line with
  | Ok v -> (
      match Json.find path v with
      | Some (Json.String s) -> s
      | _ -> Alcotest.failf "no %s in %s" (String.concat "." path) line)
  | Error e -> Alcotest.fail e

let plan_tests =
  [
    tc "the outer union keeps rows whose reals agree to six digits" (fun () ->
        (* the paper's instances, with Ann's GPA differing between the
           components in the seventh significant digit *)
        let student name gpa = S.tuple [ ("Name", V.str name); ("GPA", V.real gpa) ] in
        let st1 = S.create Workload.Paper.sc1 in
        let st1, _ = S.insert (Name.v "Student") (student "Ann" 3.1234561) st1 in
        let st1, _ = S.insert (Name.v "Student") (student "Ben" 2.5) st1 in
        let st2 = S.create Workload.Paper.sc2 in
        let st2, _ =
          S.insert (Name.v "Grad_student")
            (Name.Map.add (Name.v "Support_type") (V.str "RA") (student "Ann" 3.1234569))
            st2
        in
        with_stores [ (Workload.Paper.sc1, st1); (Workload.Paper.sc2, st2) ] (fun t ->
            check Alcotest.string "three rows, sc2's Ann last"
              ({|{"ok":true,"rows":[{"D_GPA":3.1234561,"D_Name":"Ann"},|}
             ^ {|{"D_GPA":2.5,"D_Name":"Ben"},{"D_GPA":3.1234569,"D_Name":"Ann"}],|}
             ^ {|"count":3}|})
              (Server.exec t (Server.Wire.request_to_line ~text:"select * from Student" "query"))));
    tc "a global query naming an attribute its class lacks is unmapped"
      (fun () ->
        with_server (fun t _ ->
            List.iter
              (fun (op, text, message) ->
                let resp = Server.exec t (Server.Wire.request_to_line ~text op) in
                check Alcotest.string (op ^ " " ^ text) "unmapped"
                  (member_string [ "error"; "code" ] resp);
                check Alcotest.string (op ^ " " ^ text) message
                  (member_string [ "error"; "message" ] resp))
              [
                ( "query",
                  "select Name from Student",
                  "attribute Name is not in the integrated object class Student" );
                ( "rewrite",
                  "select Name from Student",
                  "attribute Name is not in the integrated object class Student" );
                ( "query",
                  "select * from Student where GPA > 1",
                  "attribute GPA is not in the integrated object class Student" );
              ]));
    tc "0. and -0. get their own plans and view shapes" (fun () ->
        with_server (fun t _ ->
            let rewrite text =
              member_string [ "query" ]
                (Server.exec t (Server.Wire.request_to_line ~view:"sc1" ~text "rewrite"))
            in
            check Alcotest.string "-0.0"
              "select D_Name from Student where D_GPA > -0"
              (rewrite "select Name from Student where GPA > -0.0");
            check Alcotest.string "then 0.0"
              "select D_Name from Student where D_GPA > 0"
              (rewrite "select Name from Student where GPA > 0.0");
            List.iter
              (fun (name, text) ->
                check Alcotest.string ("define " ^ name)
                  (Printf.sprintf {|{"ok":true,"defined":"%s","policy":"eager","rows":3}|}
                     name)
                  (Server.exec t
                     (Server.Wire.request_to_line ~view:name ~text ~base:"sc1"
                        ~policy:"eager" "define_view")))
              [
                ("negzero", "select Name from Student where GPA > -0.0");
                ("zero", "select Name from Student where GPA > 0.0");
              ]));
  ]

(* ---- allocation on the read path ---------------------------------- *)

(* What serving a read allocates, on federation-read's inputs (the
   default scenario federation at seed 42, its define phase applied):
   the minor heap's words per pass over the read deck set how often the
   daemon collects, and so how far its heap grows.  Building each
   answer row once from a column plan cut a pass from 1.58M words to
   0.67M, and the 18 global frames from 988k to 271k. *)
let allocation_tests =
  [
    tc "a pass over the federation-read deck allocates within budget"
      (fun () ->
        let scn, session = Util.scenario_session (Util.default_scenario 42) in
        match Server.create session (Server.default_config local) with
        | Error msg -> Alcotest.fail msg
        | Ok t ->
            Fun.protect ~finally:(fun () -> Server.stop t) @@ fun () ->
            let exec f = ignore (Server.exec t f) in
            (match scn.Workload.Scenario.schedule with
            | define :: _ -> List.iter exec define.Workload.Scenario.frames
            | [] -> Alcotest.fail "no define phase");
            let deck = Workload.Scenario.read_frames scn in
            (* the first pass fills the plan cache *)
            List.iter exec deck;
            let global f =
              match Server.Wire.request_of_line f with
              | Ok { Server.Wire.op = "query"; view = None; _ } -> true
              | _ -> false
            in
            let pass, globals =
              List.fold_left
                (fun (pass, globals) f ->
                  let before = Gc.minor_words () in
                  exec f;
                  let words = Gc.minor_words () -. before in
                  (pass +. words, if global f then globals +. words else globals))
                (0., 0.) deck
            in
            check Alcotest.int "the deck" 108 (List.length deck);
            check Alcotest.bool
              (Printf.sprintf "%.0f minor words per pass (budget 750k)" pass)
              true (pass <= 750_000.);
            check Alcotest.bool
              (Printf.sprintf "%.0f minor words for the global frames (budget 350k)"
                 globals)
              true (globals <= 350_000.));
  ]

(* ---- the retired binary magic ------------------------------------ *)

(* A raw TCP connection, so the test controls every byte sent. *)
let raw_connect addr =
  match addr with
  | Server.Wire.Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | Server.Wire.Unix_path _ -> Alcotest.fail "tests use TCP"

let retired_binary_tests =
  [
    tc "0xB5 is no longer a special first byte" (fun () ->
        with_server (fun _t addr ->
            let fd, ic, oc = raw_connect addr in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                let response () =
                  let line = input_line ic in
                  (* pure ASCII, so any client's UTF-8 decoder accepts it *)
                  check Alcotest.bool
                    (Printf.sprintf "answer is ASCII: %S" line)
                    true
                    (String.for_all (fun c -> Char.code c < 0x80) line);
                  match Json.of_string line with
                  | Ok v -> v
                  | Error e -> Alcotest.fail ("response is not a JSON line: " ^ e)
                in
                (* the 8-byte magic that once opened a binary connection *)
                output_string oc "\xb5SITB1\x00\x01\n";
                flush oc;
                check
                  Alcotest.(option string)
                  "code" (Some "bad_frame")
                  (Server.Client.error_code (response ()));
                (* exactly one answer, and the connection still serves *)
                output_string oc (Server.Wire.request_to_line "health" ^ "\n");
                flush oc;
                check Alcotest.bool "health ok" true
                  (Server.Client.is_ok (response ())))));
  ]

(* ---- framing limits and the values a response can carry ---------- *)

(* a valid health frame padded with JSON whitespace to [n] bytes *)
let padded_health n =
  let frame = Server.Wire.request_to_line "health" in
  String.sub frame 0 (String.length frame - 1)
  ^ String.make (max 0 (n - String.length frame)) ' '
  ^ "}"

let framing_tests =
  [
    tc "a request line past the cap is answered bad_frame and skipped"
      (fun () ->
        let cap = Server.Wire.max_request_line in
        with_server (fun _t addr ->
            let fd, ic, oc = raw_connect addr in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                let send line =
                  output_string oc line;
                  flush oc
                in
                let response () =
                  match Json.of_string (input_line ic) with
                  | Ok v -> v
                  | Error e -> Alcotest.fail ("response is not a JSON line: " ^ e)
                in
                send (padded_health cap ^ "\n");
                check Alcotest.bool "a line of exactly the cap is served" true
                  (Server.Client.is_ok (response ()));
                send (padded_health (cap + 1) ^ "\n");
                let v = response () in
                check
                  Alcotest.(option string)
                  "one byte more" (Some "bad_frame")
                  (Server.Client.error_code v);
                (match Json.find [ "error"; "message" ] v with
                | Some (Json.String m) ->
                    check Alcotest.bool ("names the cap: " ^ m) true
                      (Util.contains ~needle:(string_of_int cap) m)
                | _ -> Alcotest.fail "no error message");
                send (Server.Wire.request_to_line "health" ^ "\n");
                check Alcotest.bool "the next frame is answered" true
                  (Server.Client.is_ok (response ()));
                (* a last line without its newline still counts *)
                send (Server.Wire.request_to_line "health");
                Unix.shutdown fd Unix.SHUTDOWN_SEND;
                check Alcotest.bool "unterminated last line" true
                  (Server.Client.is_ok (response ()));
                check Alcotest.bool "then the daemon hangs up" true
                  (match input_line ic with
                  | exception End_of_file -> true
                  | _ -> false))));
    tc "request lines cut across reads come out whole" (fun () ->
        (* health frames padded to land on and around the reader's
           1 KiB chunk, one empty line, and an unterminated last line *)
        let lines =
          List.map padded_health
            [ 1; 1022; 1023; 1024; 1025; 20; 5000; 2047; 2048 ]
          @ [ "" ]
        in
        let path = Filename.temp_file "lines" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_bin path (fun oc ->
                List.iter (fun l -> output_string oc (l ^ "\n")) lines;
                output_string oc (padded_health 50));
            In_channel.with_open_bin path (fun ic ->
                let r = Server.Wire.reader ic in
                let rec read ok bad =
                  match Server.Wire.next_request r with
                  | None -> (ok, bad)
                  | Some (Ok req) ->
                      check Alcotest.string "op" "health" req.Server.Wire.op;
                      read (ok + 1) bad
                  | Some (Error _) -> read ok (bad + 1)
                in
                check
                  Alcotest.(pair int int)
                  "frames and the empty line" (10, 1) (read 0 0))));
    tc "a literal past the largest double never reaches the wire" (fun () ->
        with_server (fun _t addr ->
            with_client addr (fun c ->
                let huge = "1" ^ String.make 400 '0' ^ ".0" in
                let v =
                  Server.Client.roundtrip c
                    (Server.Wire.request_to_line ~view:"sc1"
                       ~text:
                         ("insert into Student { Name = 'zzinf', GPA = " ^ huge
                        ^ " }")
                       "update")
                  |> Json.of_string |> Result.get_ok
                in
                check
                  Alcotest.(option string)
                  "refused" (Some "parse_error")
                  (Server.Client.error_code v);
                let answer =
                  Server.Client.roundtrip c
                    (Server.Wire.request_to_line ~view:"sc1"
                       ~text:"select Name, GPA from Student where Name = 'zzinf'"
                       "query")
                in
                match Json.of_string answer with
                | Ok v ->
                    check Alcotest.bool "no such row" true
                      (Json.member "rows" v = Some (Json.List []))
                | Error e -> Alcotest.fail ("not JSON: " ^ e))));
  ]

(* ---- regression: strategy error paths ----------------------------- *)

let strategy_tests =
  let weights =
    Heuristics.Resemblance.default_weights Heuristics.Synonyms.default
  in
  [
    tc "binary_balanced on a single schema integrates it alone" (fun () ->
        let out =
          Integrate.Strategy.binary_balanced [ Workload.Paper.sc1 ]
            Integrate.Dda.silent
        in
        check Alcotest.int "no pairwise steps" 0 out.Integrate.Strategy.steps;
        let ladder =
          Integrate.Strategy.binary_ladder [ Workload.Paper.sc1 ]
            Integrate.Dda.silent
        in
        (* the single-schema pool must not be double-counted: same
           effort as the ladder on the same input *)
        check Alcotest.int "same pairs as ladder"
          ladder.Integrate.Strategy.stats.Integrate.Protocol.pairs_presented
          out.Integrate.Strategy.stats.Integrate.Protocol.pairs_presented);
    tc "binary_guided on a single schema integrates it alone" (fun () ->
        let out =
          Integrate.Strategy.binary_guided ~weights [ Workload.Paper.sc1 ]
            Integrate.Dda.silent
        in
        check Alcotest.int "no pairwise steps" 0 out.Integrate.Strategy.steps);
    tc "binary strategies reject an empty pool" (fun () ->
        Alcotest.check_raises "balanced"
          (Invalid_argument "Strategy.binary_balanced: no schemas")
          (fun () ->
            ignore (Integrate.Strategy.binary_balanced [] Integrate.Dda.silent));
        Alcotest.check_raises "guided"
          (Invalid_argument "Strategy.binary_guided: no schemas")
          (fun () ->
            ignore
              (Integrate.Strategy.binary_guided ~weights [] Integrate.Dda.silent)));
    tc "binary strategies complete on an odd-sized pool" (fun () ->
        let w =
          Workload.Generator.generate
            { Workload.Generator.default_params with schemas = 3; seed = 7 }
        in
        let balanced =
          Integrate.Strategy.binary_balanced
            ~register:w.Workload.Generator.register
            w.Workload.Generator.schemas w.Workload.Generator.oracle
        in
        check Alcotest.int "balanced: 2 steps for 3 schemas" 2
          balanced.Integrate.Strategy.steps;
        (* guided must finish every round even when resemblance scoring
           declines to rank the remaining pairs *)
        let guided =
          Integrate.Strategy.binary_guided ~weights
            ~register:w.Workload.Generator.register
            w.Workload.Generator.schemas w.Workload.Generator.oracle
        in
        check Alcotest.int "guided: 2 steps for 3 schemas" 2
          guided.Integrate.Strategy.steps);
    tc "binary_guided completes when no pair is ranked" (fun () ->
        (* weight-free scoring gives best_of nothing to rank: the fixed
           code degrades to pool order instead of silently stopping *)
        let w =
          Workload.Generator.generate
            { Workload.Generator.default_params with schemas = 4; seed = 11 }
        in
        let out =
          Integrate.Strategy.binary_guided ~weights:[]
            ~register:w.Workload.Generator.register
            w.Workload.Generator.schemas w.Workload.Generator.oracle
        in
        check Alcotest.int "3 steps for 4 schemas" 3
          out.Integrate.Strategy.steps);
  ]

(* ---- regression: conflict diagnostics ----------------------------- *)

let q = Qname.v

let conflict_tests =
  [
    tc "conflict_to_string names the pair, assertion and basis" (fun () ->
        let s name cls =
          Schema.make (Name.v name)
            ~objects:[ Object_class.entity (Name.v cls) ]
            ~relationships:[]
        in
        let m =
          Integrate.Assertions.create
            [ s "a" "Employee"; s "b" "Person"; s "c" "Worker" ]
        in
        let ok = function
          | Ok m -> m
          | Error _ -> Alcotest.fail "unexpected conflict"
        in
        let m =
          ok
            (Integrate.Assertions.add (q "a" "Employee")
               Integrate.Assertion.Equal (q "b" "Person") m)
        in
        let m =
          ok
            (Integrate.Assertions.add (q "b" "Person")
               Integrate.Assertion.Equal (q "c" "Worker") m)
        in
        match
          Integrate.Assertions.add (q "c" "Worker")
            Integrate.Assertion.Contained_in (q "a" "Employee") m
        with
        | Ok _ -> Alcotest.fail "conflict missed"
        | Error c ->
            let msg = Integrate.Assertions.conflict_to_string c in
            let has needle =
              check Alcotest.bool
                (Printf.sprintf "%S in %S" needle msg)
                true
                (Util.contains ~needle msg)
            in
            has "c.Worker";
            has "a.Employee";
            has "rejected";
            has "current knowledge");
    tc "workload failwith carries the conflict diagnosis" (fun () ->
        (* Domains.feed-style message assembly: the formatted failure
           must embed the offending pair and the conflict explanation,
           not just "conflict" *)
        let msg =
          Printf.sprintf "unexpected conflict integrating sc1 with sc2: %s"
            (let s name cls =
               Schema.make (Name.v name)
                 ~objects:[ Object_class.entity (Name.v cls) ]
                 ~relationships:[]
             in
             let m = Integrate.Assertions.create [ s "x" "A"; s "y" "B" ] in
             let m =
               match
                 Integrate.Assertions.add (q "x" "A") Integrate.Assertion.Equal
                   (q "y" "B") m
               with
               | Ok m -> m
               | Error _ -> Alcotest.fail "unexpected conflict"
             in
             match
               Integrate.Assertions.add (q "x" "A")
                 Integrate.Assertion.Disjoint_nonintegrable (q "y" "B") m
             with
             | Ok _ -> Alcotest.fail "conflict missed"
             | Error c -> Integrate.Assertions.conflict_to_string c)
        in
        check Alcotest.bool "pair named" true (Util.contains ~needle:"x.A" msg);
        check Alcotest.bool "attempted assertion named" true
          (Util.contains ~needle:"rejected" msg));
  ]

(* ---- regression: sit_batch finishes the script on bad directives -- *)

(* Paths anchor on the test executable (_build/default/test/...): the
   binary is a sibling, the data files are in the source tree three
   levels up — independent of the cwd dune or a direct run picked. *)
let here = Filename.dirname Sys.executable_name
let example f = Filename.concat here (Filename.concat "../../../examples/data" f)

(* Runs sit_batch on the paper's two schemas followed by [args];
   returns the exit status and everything it printed. *)
let sit_batch args =
  let out = Filename.temp_file "sit_batch" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rc =
        Sys.command
          (Filename.quote_command
             (Filename.concat here "../bin/sit_batch.exe")
             ~stdout:out ~stderr:out
             (example "sc1.ecr" :: example "sc2.ecr" :: args))
      in
      (rc, In_channel.with_open_bin out In_channel.input_all))

let sit_batch_tests =
  [
    tc "bad directives are reported, script finishes, exit is non-zero"
      (fun () ->
        let rc, text =
          sit_batch
            [
              "-s"; example "paper_session.sit";
              "--data"; example "paper_instances.ecd";
              "-q"; "sc1: select Bogus from";
              "-u"; "sc9: insert into X values ()";
              "-q"; "sc1: select Name from Student";
            ]
        in
        check Alcotest.bool "non-zero exit" true (rc <> 0);
        let has needle =
          check Alcotest.bool needle true (Util.contains ~needle text)
        in
        (* both bad directives diagnosed ... *)
        has "error: --query sc1: select Bogus from";
        has "error: --update sc9";
        has "unknown view sc9";
        (* ... and the later good directive still ran *)
        has "view query   : [sc1] select Name from Student";
        has "(2 rows)");
    tc "a global query naming a missing class is reported and skipped"
      (fun () ->
        let rc, text =
          sit_batch
            [
              "-s"; example "paper_session.sit";
              "--data"; example "paper_instances.ecd";
              "-g"; "select * from Department";
              "-g"; "select Name from E_Department";
            ]
        in
        check Alcotest.int "exit status" 1 rc;
        check Alcotest.bool "reported as unmapped" true
          (Util.contains
             ~needle:
               "error: --global select * from Department: unmapped: object \
                class Department is not in the integrated schema"
             text);
        check Alcotest.bool "no internal error" false
          (Util.contains ~needle:"internal error" text);
        check Alcotest.bool "the next directive still ran" true
          (Util.contains ~needle:"global query : select Name from E_Department" text));
    tc "many scripts print in script order, each as its own run" (fun () ->
        (* 16 copies of the paper session, copy i naming the merged
           relationship Majors_i so that the order shows *)
        let session = In_channel.with_open_bin (example "paper_session.sit") In_channel.input_all in
        let scripts =
          List.init 16 (fun i ->
              let path = Filename.temp_file (Printf.sprintf "sit_batch_%02d_" i) ".sit" in
              Out_channel.with_open_bin path (fun oc ->
                  Printf.fprintf oc "%sname sc1.Majors sc2.Major_in Majors_%02d\n" session i);
              path)
        in
        Fun.protect ~finally:(fun () -> List.iter Sys.remove scripts) @@ fun () ->
        let run scripts =
          let rc, out =
            sit_batch
              (List.concat_map (fun s -> [ "-s"; s ]) scripts
              @ [
                  "--data"; example "paper_instances.ecd";
                  "-q"; "sc1: select Name from Student";
                ])
          in
          check Alcotest.int "exit status" 0 rc;
          out
        in
        let singles = List.map (fun s -> run [ s ]) scripts in
        check Alcotest.string "blocks"
          (String.concat "\n========\n\n" singles)
          (run scripts));
  ]

(* ---- regression: a malformed identifier is refused, not raised ---- *)

(* Each bad line, on line 2 of a script of its own. *)
let with_bad_scripts f =
  List.iter
    (fun line ->
      let path = Filename.temp_file "bad_name" ".sit" in
      Out_channel.with_open_bin path (fun oc ->
          Printf.fprintf oc "# a typo\n%s\n" line);
      Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path))
    [
      "equiv sc1.Stu-dent.Name sc2.Student.Name";
      "name sc1.Majors sc2.Major_in Bad-Name";
    ]

let bad_name_tests =
  [
    tc "sit_batch refuses a malformed name at file:line" (fun () ->
        with_bad_scripts @@ fun path ->
        let rc, text = sit_batch [ "-s"; path ] in
        check Alcotest.int "exit status" 2 rc;
        check Alcotest.bool "positioned" true
          (Util.contains ~needle:(path ^ ":2: malformed") text);
        check Alcotest.bool "no internal error" false
          (Util.contains ~needle:"internal error" text));
    tc "load_session refuses a malformed name as an Error" (fun () ->
        with_bad_scripts @@ fun path ->
        match
          Server.load_session
            {
              Server.schema_files = [ example "sc1.ecr"; example "sc2.ecr" ];
              script = Some path;
              data = None;
              journal = None;
              name = None;
            }
        with
        | Ok _ -> Alcotest.fail "accepted a malformed name"
        | Error msg ->
            check Alcotest.bool "positioned" true
              (Util.contains ~needle:(path ^ ":2: malformed") msg));
  ]

(* ---- regression: inputs need not be seekable regular files ------- *)

let unreadable_tests =
  let paper =
    [ "-s"; example "paper_session.sit"; "-q"; "sc1: select Name from Student" ]
  in
  [
    tc "sit_batch reads DDL and data through a pipe" (fun () ->
        let rc, by_path =
          sit_batch (paper @ [ "--data"; example "paper_instances.ecd" ])
        in
        check Alcotest.int "exit status from files" 0 rc;
        let out = Filename.temp_file "sit_batch" ".out" in
        Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
        let piped file args =
          Sys.command
            (Printf.sprintf "cat %s | %s" (Filename.quote file)
               (Filename.quote_command
                  (Filename.concat here "../bin/sit_batch.exe")
                  ~stdout:out ~stderr:out args))
        in
        let data =
          piped (example "paper_instances.ecd")
            (example "sc1.ecr" :: example "sc2.ecr" :: paper
            @ [ "--data"; "/dev/stdin" ])
        in
        check Alcotest.int "exit status, data piped" 0 data;
        check Alcotest.string "same output, data piped" by_path
          (In_channel.with_open_bin out In_channel.input_all);
        let ddl =
          piped (example "sc1.ecr")
            ("/dev/stdin" :: example "sc2.ecr" :: paper
            @ [ "--data"; example "paper_instances.ecd" ])
        in
        check Alcotest.int "exit status, DDL piped" 0 ddl;
        check Alcotest.string "same output, DDL piped" by_path
          (In_channel.with_open_bin out In_channel.input_all));
    tc "a directory as --data is refused naming it" (fun () ->
        let dir = Filename.dirname (example "sc1.ecr") in
        let rc, text = sit_batch (paper @ [ "--data"; dir ]) in
        check Alcotest.int "sit_batch exit status" 2 rc;
        check Alcotest.bool "sit_batch names it" true
          (Util.contains ~needle:(dir ^ ": ") text);
        check Alcotest.bool "no internal error" false
          (Util.contains ~needle:"internal error" text);
        match
          Server.load_session
            {
              Server.schema_files = [ example "sc1.ecr"; example "sc2.ecr" ];
              script = None;
              data = Some dir;
              journal = None;
              name = None;
            }
        with
        | Ok _ -> Alcotest.fail "loaded a directory"
        | Error msg ->
            check Alcotest.bool ("load_session names it: " ^ msg) true
              (Util.contains ~needle:(dir ^ ": ") msg));
  ]

(* ---- journaled restarts rebuild the session from the inputs ------ *)

let paper_script ~rel_name =
  String.concat "\n"
    [
      "equiv sc1.Student.Name sc2.Grad_student.Name";
      "equiv sc1.Student.GPA sc2.Grad_student.GPA";
      "equiv sc1.Student.Name sc2.Faculty.Name";
      "equiv sc1.Department.Name sc2.Department.Name";
      "equiv sc1.Majors.Since sc2.Major_in.Since";
      "object sc1.Department 1 sc2.Department";
      "object sc1.Student 3 sc2.Grad_student";
      "object sc1.Student 5 sc2.Faculty";
      "rel sc1.Majors 1 sc2.Major_in";
      "name sc1.Majors sc2.Major_in " ^ rel_name;
      "";
    ]

let restart_tests =
  [
    tc "an edited script takes effect on a journaled restart" (fun () ->
        let dir = Filename.temp_file "sit_restart" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let file name text =
          let path = Filename.concat dir name in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc text);
          path
        in
        let journal = Filename.concat dir "journal" in
        Fun.protect
          ~finally:(fun () ->
            ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ])))
        @@ fun () ->
        let ddl =
          file "paper.ecr"
            (Ddl.Printer.to_string Workload.Paper.sc1
            ^ "\n"
            ^ Ddl.Printer.to_string Workload.Paper.sc2)
        in
        let relationships rel_name =
          let setup =
            {
              Server.schema_files = [ ddl ];
              script = Some (file "session.sit" (paper_script ~rel_name));
              data = None;
              journal = Some journal;
              name = None;
            }
          in
          match Server.load_session setup with
          | Error e -> Alcotest.fail e
          | Ok s ->
              List.map
                (fun r -> Name.to_string r.Relationship.name)
                (Schema.relationships s.Server.result.Integrate.Result.schema)
        in
        let first = relationships "E_Stud_Majo" in
        check Alcotest.bool "first start names E_Stud_Majo" true
          (List.mem "E_Stud_Majo" first);
        (* same journal directory, edited name directive *)
        let second = relationships "E_Majors" in
        check Alcotest.bool "restart serves the edited name" true
          (List.mem "E_Majors" second);
        check Alcotest.bool "the old name is gone" false
          (List.mem "E_Stud_Majo" second);
        check Alcotest.(list string) "the journal directory holds no setup copy"
          [] (Array.to_list (Sys.readdir journal)));
    tc "a compacted snapshot restores reals and quoted strings exactly"
      (fun () ->
        (* the snapshot's store is loader text, so each value must read
           back exactly: reals past 6 significant digits or with an
           exponent, and a string holding a double quote *)
        List.iter
          (fun updates ->
            let dir = Filename.temp_file "sit_snapshot" "" in
            Sys.remove dir;
            Fun.protect
              ~finally:(fun () ->
                ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ])))
            @@ fun () ->
            let start () =
              match
                Server.load_session
                  {
                    Server.schema_files = [ example "sc1.ecr"; example "sc2.ecr" ];
                    script = Some (example "paper_session.sit");
                    data = Some (example "paper_instances.ecd");
                    journal = Some dir;
                    name = None;
                  }
              with
              | Error e -> Alcotest.fail e
              | Ok session -> (
                  match Server.create session (Server.default_config local) with
                  | Error e -> Alcotest.fail ("restart refused: " ^ e)
                  | Ok t -> t)
            in
            let select t =
              Server.exec t
                (Server.Wire.request_to_line ~view:"sc1"
                   ~text:"select Name, GPA from Student" "query")
            in
            let t = start () in
            List.iter
              (fun text ->
                let resp =
                  Server.exec t
                    (Server.Wire.request_to_line ~view:"sc1" ~text "update")
                in
                check Alcotest.bool (text ^ ": " ^ resp) true
                  (Util.contains ~needle:"\"ok\":true" resp))
              updates;
            let before = select t in
            let compacted = Server.exec t (Server.Wire.request_to_line "repl_compact") in
            check Alcotest.bool ("compacted: " ^ compacted) true
              (Util.contains ~needle:"\"ok\":true" compacted);
            Server.stop t;
            let t = start () in
            Fun.protect ~finally:(fun () -> Server.stop t) @@ fun () ->
            check Alcotest.string "the values read back" before (select t))
          [
            [
              "update Student set GPA = 1234567.5 where Name = 'Ann'";
              "update Student set GPA = 3.14159265 where Name = 'Ben'";
            ];
            [ "update Student set Name = 'A\"nn' where Name = 'Ann'" ];
          ]);
  ]

let () =
  Alcotest.run "server"
    [
      ("server", server_tests);
      ("plans", plan_tests);
      ("allocation", allocation_tests);
      ("restart", restart_tests);
      ("retired binary magic", retired_binary_tests);
      ("framing and values", framing_tests);
      ("strategy regressions", strategy_tests);
      ("conflict diagnostics", conflict_tests);
      ("sit_batch regressions", sit_batch_tests);
      ("malformed names", bad_name_tests);
      ("unreadable inputs", unreadable_tests);
    ]
