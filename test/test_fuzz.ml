(* DDL robustness fuzzing: mutate well-formed example schemas with
   random byte edits, truncations and insertions (seeded Workload.Prng,
   so every run is reproducible) and assert the lexer/parser contract —
   a mutated input either still parses or raises a positioned
   [Ddl.Parser.Error]; it never escapes with another exception, hangs,
   or reports a nonsense position. *)

open Alcotest

let tc name f = test_case name `Quick f

(* The corpus: the paper's four example schemas plus one handwritten
   text exercising the rest of the grammar (roles, enum domains,
   categories with several parents, attribute-less bodies). *)
let corpus =
  List.map Ddl.Printer.to_string
    [ Workload.Paper.sc1; Workload.Paper.sc2; Workload.Paper.sc3;
      Workload.Paper.sc4 ]
  @ [
      "schema extra {\n\
      \  entity Person { Name : char key; Level : enum(low,mid,high); }\n\
      \  entity Course;\n\
      \  category Tutor of Person, Course { Rate : real; }\n\
      \  relationship Teaches (who:Person(1,N), Course(0,N)) { Hours : int; }\n\
       }\n";
    ]

(* Random printable-or-nasty byte: the structural characters the
   grammar cares about are over-represented so mutations actually hit
   interesting parse states. *)
let random_byte g =
  let nasty = "{}();:,.-\"'\\\x00\xff\n " in
  if Workload.Prng.bool g 0.4 then nasty.[Workload.Prng.int g (String.length nasty)]
  else Char.chr (Workload.Prng.int g 256)

let mutate g src =
  let n = String.length src in
  match Workload.Prng.int g 4 with
  | 0 ->
      (* truncate at a random offset: a torn file *)
      String.sub src 0 (Workload.Prng.int g (n + 1))
  | 1 ->
      (* overwrite a few bytes *)
      let b = Bytes.of_string src in
      for _ = 0 to Workload.Prng.int g 8 do
        if n > 0 then Bytes.set b (Workload.Prng.int g n) (random_byte g)
      done;
      Bytes.to_string b
  | 2 ->
      (* insert a short random run *)
      let at = Workload.Prng.int g (n + 1) in
      let run = String.init (1 + Workload.Prng.int g 6) (fun _ -> random_byte g) in
      String.sub src 0 at ^ run ^ String.sub src at (n - at)
  | _ ->
      (* single-bit flip *)
      if n = 0 then src
      else begin
        let b = Bytes.of_string src in
        let at = Workload.Prng.int g n in
        Bytes.set b at (Char.chr (Char.code src.[at] lxor (1 lsl Workload.Prng.int g 8)));
        Bytes.to_string b
      end

(* The contract under test. *)
let check_outcome input =
  match Ddl.Parser.schemas_of_string input with
  | _ -> () (* a benign mutation (e.g. inside a comment) may still parse *)
  | exception Ddl.Parser.Error (msg, line, col) ->
      check bool
        (Printf.sprintf "position of %S is sane (%d:%d)" msg line col)
        true
        (line >= 0 && col >= 0);
      check bool "message is not empty" true (String.length msg > 0)
  | exception e ->
      Alcotest.failf "unhandled %s for input %S" (Printexc.to_string e) input

let fuzz_tests =
  [
    tc "5000 seeded mutations never escape the Error contract" (fun () ->
        let g = Workload.Prng.create 0xF0221 in
        for _ = 1 to 5000 do
          let src = Workload.Prng.pick g corpus in
          check_outcome (mutate g src)
        done);
    tc "deeper mutation stacks (up to 5 rounds)" (fun () ->
        let g = Workload.Prng.create 0xF0222 in
        for _ = 1 to 1000 do
          let src = ref (Workload.Prng.pick g corpus) in
          for _ = 1 to 1 + Workload.Prng.int g 5 do
            src := mutate g !src
          done;
          check_outcome !src
        done);
    tc "adversarial inputs raise positioned errors" (fun () ->
        List.iter
          (fun input ->
            match Ddl.Parser.schemas_of_string input with
            | _ -> Alcotest.failf "accepted %S" input
            | exception Ddl.Parser.Error (_, line, col) ->
                check bool
                  (Printf.sprintf "%S positioned at %d:%d" input line col)
                  true
                  (line >= 1 && col >= 1)
            | exception e ->
                Alcotest.failf "unhandled %s for %S" (Printexc.to_string e)
                  input)
          [
            (* lexer: integer overflow must not escape as Failure *)
            "schema s { relationship R (E(99999999999999999999999,1)); }";
            "99999999999999999999999";
            (* parser: only enum takes a value list *)
            "schema s { entity E { A : color(red,blue); } }";
            (* duplicate structures are a schema-construction error with
               the schema's own position *)
            "schema s { entity E; entity E; }";
            (* plain syntax errors *)
            "schema s { entity E { A : ; } }";
            "schema s {";
            "schema s { relationship R (E(1,0)); }";
            "schema 3 { }";
          ]);
    tc "empty and whitespace-only inputs parse to no schemas" (fun () ->
        List.iter
          (fun input ->
            match Ddl.Parser.schemas_of_string input with
            | [] -> ()
            | _ -> Alcotest.failf "expected no schemas for %S" input
            | exception e ->
                Alcotest.failf "unhandled %s for %S" (Printexc.to_string e)
                  input)
          [ ""; " \t\n"; "-- just a comment\n" ]);
  ]

(* ---- wire request-line fuzzing ----------------------------------- *)

(* The decoder contract (docs/WIRE.md): [Wire.request_of_line] on
   arbitrary bytes returns a request or a [Bad_frame]/[Bad_request]
   error with a human-readable message — never any other code, never an
   exception. *)
module Wire = Server.Wire
module Json = Obs.Json

(* Every op the daemon knows, plus frames carrying each optional field. *)
let line_corpus =
  List.map (fun op -> Wire.request_to_line op) Wire.ops
  @ [
      Wire.request_to_line ~id:(Json.Int 7) ~view:"sc1"
        ~text:"select Name, GPA from Student where GPA > 3.0" ~deadline_ms:50
        "query";
      Wire.request_to_line ~id:(Json.String "w-1") ~view:"sc1"
        ~text:"insert into Student { Name = 'Zoe', GPA = 3.5 }" "update";
      Wire.request_to_line ~view:"honors" ~base:"sc1" ~policy:"eager"
        ~text:"select Name from Student where GPA >= 3.0" "define_view";
      Wire.request_to_line ~seq:7 ~max:32 ~wait_ms:150 ~node:"f1" "repl_pull";
      Wire.request_to_line
        ~id:(Json.List [ Json.Int 1; Json.Null ])
        ~seq:3 ~node:"f2" "repl_snapshot";
      Wire.request_to_line ~id:(Json.Obj [ ("k", Json.Float 2.5) ])
        ~text:"select Name from Student" ~deadline_ms:0 "rewrite";
    ]

let reencode (r : Wire.request) =
  Wire.request_to_line ?id:r.id ?view:r.view ?text:r.text ?base:r.base
    ?policy:r.policy ?deadline_ms:r.deadline_ms ?seq:r.seq ?max:r.max
    ?wait_ms:r.wait_ms ?node:r.node r.op

let decode input =
  match Wire.request_of_line input with
  | r -> r
  | exception e ->
      Alcotest.failf "request_of_line raised %s on %S" (Printexc.to_string e)
        input

(* A decode error's message goes back on the wire: non-empty, and pure
   ASCII whatever bytes the input held, so the answer is valid UTF-8. *)
let check_message msg =
  check bool "error message is not empty" true (String.length msg > 0);
  check bool
    (Printf.sprintf "error message is ASCII: %S" msg)
    true
    (String.for_all (fun c -> Char.code c < 0x80) msg)

let decode_contract input =
  match decode input with
  | Ok _ -> ()
  | Error ((Wire.Bad_frame | Wire.Bad_request), msg) -> check_message msg
  | Error (code, _) ->
      Alcotest.failf "decoder answered %s on %S" (Wire.code_to_string code) input

let expect_error want input =
  match decode input with
  | Error (code, msg) when code = want -> check_message msg
  | Error (code, _) ->
      Alcotest.failf "%S: expected %s, got %s" input (Wire.code_to_string want)
        (Wire.code_to_string code)
  | Ok _ -> Alcotest.failf "accepted %S" input

let line_fuzz_tests =
  [
    tc "well-formed frames round-trip through encode/decode" (fun () ->
        List.iter
          (fun line ->
            match decode line with
            | Ok r -> check string "identical bytes" line (reencode r)
            | Error (_, e) -> Alcotest.failf "rejected %S: %s" line e)
          line_corpus);
    tc "5000 seeded frame mutations never escape Ok/Error" (fun () ->
        let g = Workload.Prng.create 0xB14A9 in
        for _ = 1 to 5000 do
          decode_contract (mutate g (Workload.Prng.pick g line_corpus))
        done);
    tc "truncations at every byte are rejected or consistent" (fun () ->
        List.iter
          (fun line ->
            (* a proper prefix of an object never closes it *)
            for k = 0 to String.length line - 1 do
              expect_error Wire.Bad_frame (String.sub line 0 k)
            done)
          line_corpus);
    tc "adversarial prefixes and tags are typed errors" (fun () ->
        List.iter
          (fun (input, code) -> expect_error code input)
          [
            (* the retired binary framing's magic and a frame of it *)
            ("\xb5SITB1\x00\x01", Wire.Bad_frame);
            ("\x00\x00\x00\x02\x01\xff", Wire.Bad_frame);
            ("\xef\xbb\xbf{\"op\":\"health\"}", Wire.Bad_frame);
            ("", Wire.Bad_frame);
            ("{\"op\":\"health\"} {}", Wire.Bad_frame);
            ("{\"op\":\"\\u12\"}", Wire.Bad_frame);
            ("{\"op\":\"query\",\"seq\":99999999999999999999999}", Wire.Bad_frame);
            (* valid JSON that is not an object *)
            ("[\"op\",\"health\"]", Wire.Bad_frame);
            ("\"health\"", Wire.Bad_frame);
            ("null", Wire.Bad_frame);
            (* objects whose fields are missing or ill-typed *)
            ("{}", Wire.Bad_request);
            ("{\"op\":5}", Wire.Bad_request);
            ("{\"op\":\"query\",\"deadline_ms\":\"soon\"}", Wire.Bad_request);
            ("{\"op\":\"repl_pull\",\"seq\":1.5}", Wire.Bad_request);
            ("{\"op\":\"query\",\"view\":null}", Wire.Bad_request);
          ]);
    tc "deep nesting is a typed error, not a stack overflow" (fun () ->
        let nest depth = String.make depth '[' ^ String.make depth ']' in
        let nested = nest 100_000 in
        expect_error Wire.Bad_frame nested;
        (* past the parser's depth bound the whole line is a bad frame;
           within it, a list where the op belongs is a bad request *)
        expect_error Wire.Bad_frame ("{\"op\":" ^ nested ^ "}");
        expect_error Wire.Bad_request ("{\"op\":" ^ nest 500 ^ "}");
        expect_error Wire.Bad_frame (String.make 100_000 '['));
    tc "a 10M-deep line fails within its first 600 bytes" (fun () ->
        let line = String.make 10_000_000 '[' in
        match decode line with
        | Error (Wire.Bad_frame, msg) -> (
            let key = "at byte " in
            let rec offset i =
              if i + String.length key > String.length msg then None
              else if String.sub msg i (String.length key) = key then
                Scanf.sscanf_opt
                  (String.sub msg (i + String.length key)
                     (String.length msg - i - String.length key))
                  "%d" Fun.id
              else offset (i + 1)
            in
            match offset 0 with
            | Some at ->
                check bool (Printf.sprintf "fails at byte %d < 600" at) true
                  (at < 600)
            | None -> Alcotest.failf "no byte offset in %S" msg)
        | Error (code, _) ->
            Alcotest.failf "expected bad_frame, got %s" (Wire.code_to_string code)
        | Ok _ -> Alcotest.fail "accepted a 10M-deep line");
  ]

(* ---- session-text fuzzing ---------------------------------------- *)

(* The session text format has three parsers — script lines, the
   dictionary's session section and the journal's op records — and one
   contract: a mutated input is accepted, or refused through the
   parser's own error, never by a stray exception such as
   [Ecr.Name.Invalid].  Accepted input must also replay without one. *)

let paper_session =
  let here = Filename.dirname Sys.executable_name in
  In_channel.with_open_bin
    (Filename.concat here "../../../examples/data/paper_session.sit")
    In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let paper_directives =
  List.filter_map (Integrate.Script.parse_line ~file:"paper" ~line:1) paper_session

(* The paper's sc1 and sc2 after the whole paper session. *)
let paper_workspace =
  let ws =
    List.fold_left
      (fun ws s -> Integrate.Workspace.add_schema s ws)
      Integrate.Workspace.empty
      [ Workload.Paper.sc1; Workload.Paper.sc2 ]
  in
  match Integrate.Script.apply paper_directives ws with
  | Ok ws -> ws
  | Error e -> failwith (Integrate.Script.apply_error_to_string e)

let unhandled what e input =
  Alcotest.failf "%s raised %s for %S" what (Printexc.to_string e) input

let script_outcome input =
  match Integrate.Script.parse_line ~file:"fuzz.sit" ~line:7 input with
  | None -> ()
  | Some d -> (
      match Integrate.Script.apply_one d paper_workspace with
      | Ok _ | Error _ -> ()
      | exception e -> unhandled "Script.apply_one" e input)
  | exception Integrate.Script.Parse_error { file; line; message } ->
      check bool
        (Printf.sprintf "%S positioned at fuzz.sit:7" input)
        true
        (file = "fuzz.sit" && line = 7 && message <> "")
  | exception e -> unhandled "Script.parse_line" e input

let dictionary_outcome input =
  match Dictionary.of_string input with
  | _ -> ()
  | exception Dictionary.Error msg ->
      check bool "message is not empty" true (msg <> "")
  | exception e -> unhandled "Dictionary.of_string" e input

(* The op records of a journal holding the paper session and one of
   every other op, each split into its "op <seq>" header and op text. *)
let journal_records =
  let q = Ecr.Qname.v and qa = Ecr.Qname.Attr.v in
  let ops =
    [ Integrate.Op.Add_schema Workload.Paper.sc1;
      Integrate.Op.Add_schema Workload.Paper.sc2 ]
    @ List.map Integrate.Op.of_directive paper_directives
    @ [
        Integrate.Op.Separate_attribute (qa "sc1" "Student" "GPA");
        Integrate.Op.Retract_object (q "sc1" "Student", q "sc2" "Faculty");
        Integrate.Op.Retract_relationship (q "sc1" "Majors", q "sc2" "Major_in");
        Integrate.Op.Remove_schema (Ecr.Name.v "sc2");
      ]
  in
  let path = Filename.temp_file "fuzz" ".sitj" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let _, j = Journal.open_ ~fsync:Journal.Never path in
  List.iter (Journal.append j) ops;
  Journal.close j;
  List.map
    (fun payload ->
      let i = String.index payload '\n' in
      (String.sub payload 0 (i + 1), String.sub payload (i + 1) (String.length payload - i - 1)))
    (Journal.Frames.recover ~magic:"SITJRNL1" path).Journal.Frames.payloads

(* Frames [payloads] into a fresh journal file (valid lengths and CRCs,
   whatever the bytes) and recovers it. *)
let journal_outcome payloads =
  let path = Filename.temp_file "fuzz" ".sitj" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let _, frames = Journal.Frames.open_ ~fsync:Journal.Never ~magic:"SITJRNL1" path in
  List.iter (Journal.Frames.append frames) payloads;
  Journal.Frames.close frames;
  match Journal.recover path with
  | r ->
      check bool "recovered seq is within the file" true
        (r.Journal.seq >= 0 && r.Journal.seq <= List.length payloads)
  | exception e ->
      unhandled "Journal.recover" e (String.concat "\n---\n" payloads)

let text_fuzz_tests =
  [
    tc "3000 mutated script lines parse, or raise a positioned Parse_error"
      (fun () ->
        let g = Workload.Prng.create 0x5C21F7 in
        List.iter script_outcome paper_session;
        for _ = 1 to 3000 do
          script_outcome (mutate g (Workload.Prng.pick g paper_session))
        done);
    tc "2000 mutated dictionaries load, or raise Dictionary.Error" (fun () ->
        let g = Workload.Prng.create 0xD1C7 in
        let saved = Dictionary.to_string paper_workspace in
        dictionary_outcome saved;
        for _ = 1 to 2000 do
          dictionary_outcome (mutate g saved)
        done);
    tc "1000 journals with a mutated op record recover without raising"
      (fun () ->
        let g = Workload.Prng.create 0x10A7 in
        let n = List.length journal_records in
        for _ = 1 to 1000 do
          let victim = Workload.Prng.int g n in
          journal_outcome
            (List.mapi
               (fun i (header, op) ->
                 header ^ if i = victim then mutate g op else op)
               journal_records)
        done);
  ]

(* ---- binary-level fuzzing ---------------------------------------- *)

(* The binaries read their input files through one front door
   (lib/load), so an edited input either runs or is refused with exit 2
   and a message naming the file, never exit 125 with an uncaught
   exception.  Each input gets seeded single edits: a truncation, one
   character inserted or deleted, or a span cut.  The children run one
   at a time; [sit_serve] is sent SIGTERM once it listens, and [sit]
   reads an empty stdin. *)

let here = Filename.dirname Sys.executable_name
let example f = Filename.concat here ("../../../examples/data/" ^ f)
let binary name = Filename.concat here ("../bin/" ^ name ^ ".exe")
let read_file path = In_channel.with_open_bin path In_channel.input_all

let single_edit g kind src =
  let n = String.length src in
  let at = Workload.Prng.int g (n + 1) in
  let cut len =
    String.sub src 0 at ^ String.sub src (at + len) (n - at - len)
  in
  match kind with
  | `Truncate -> String.sub src 0 at
  | `Insert ->
      String.sub src 0 at ^ String.make 1 (random_byte g)
      ^ String.sub src at (n - at)
  | `Delete -> cut (min 1 (n - at))
  | `Cut -> cut (min (n - at) (1 + Workload.Prng.int g 64))

(* Runs [exe args] with stdin and stdout on /dev/null and returns its
   exit status and stderr.  A [~serve] child is stopped once it says it
   listens, which it says after installing its signal handlers. *)
let spawn ?(serve = false) exe args =
  let err = Filename.temp_file "binfuzz" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let fd = Unix.openfile err [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) null null fd
  in
  Unix.close null;
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () > deadline ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "%s %s: still running after 10 s" exe
          (String.concat " " args)
    | 0, _ ->
        if serve && Util.contains ~needle:"listening on" (read_file err) then
          Unix.kill pid Sys.sigterm
        else Unix.sleepf 0.002;
        wait ()
    | _, status -> status
  in
  let status = wait () in
  (status, read_file err)

let apply_refusal err =
  List.exists
    (fun needle -> Util.contains ~needle err)
    [ "conflicting assertion between"; "conflicting relationship assertion";
      "names an unknown object class"; "names an unknown relationship set" ]

(* The contract for one run on the edited file [path]: exit 0, or exit
   2 with a message that opens on [path:] ([path:LINE:] with [~line]),
   or with [~apply] a script-apply refusal, which names no file. *)
let check_run ~path ~line ~apply (exe, args) (status, err) =
  let fail why =
    Alcotest.failf "%s %s: %s\n%s" (Filename.basename exe)
      (String.concat " " args) why err
  in
  if Util.contains ~needle:"internal error" err
     || Util.contains ~needle:"uncaught exception" err
  then fail "an exception escaped";
  let prefix = path ^ ":" in
  let after = String.length prefix in
  let named =
    String.starts_with ~prefix err
    && ((not line)
       || (String.length err > after && err.[after] >= '0' && err.[after] <= '9'))
  in
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED 2 when named || (apply && apply_refusal err) -> ()
  | Unix.WEXITED 2 -> fail "the refusal does not name the edited file"
  | Unix.WEXITED n -> fail (Printf.sprintf "exit %d" n)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> fail "killed by a signal"

(* Twenty edits of each kind of [file], each run through every [runs]
   command line (a function of the edited file's path).  Each edit is
   written to a new file: ext4 flushes a file truncated in place when
   it is closed, which costs tens of milliseconds an edit. *)
let fuzz_binaries ~seed ~line ~apply file runs =
  let src = read_file file in
  let g = Workload.Prng.create seed in
  let dir = Filename.temp_dir "binfuzz" "" in
  let path = Filename.concat dir ("edited" ^ Filename.extension file) in
  let sock = Filename.concat dir "s.sock" in
  let remove f = if Sys.file_exists f then Sys.remove f in
  Fun.protect ~finally:(fun () ->
      remove path;
      remove sock;
      Unix.rmdir dir)
  @@ fun () ->
  List.iter
    (fun kind ->
      for _ = 1 to 20 do
        remove path;
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (single_edit g kind src));
        List.iter
          (fun (name, args) ->
            let serve = name = "sit_serve" in
            let args =
              args path @ if serve then [ "--listen"; "unix:" ^ sock ] else []
            in
            check_run ~path ~line ~apply (binary name, args)
              (spawn ~serve (binary name) args))
          runs
      done)
    [ `Truncate; `Insert; `Delete; `Cut ]

let binary_fuzz_tests =
  let sc1 = example "sc1.ecr" and sc2 = example "sc2.ecr" in
  let script = example "paper_session.sit" in
  let data = example "paper_instances.ecd" in
  [
    tc "edited DDL: sit_batch, sit_serve and sit exit 0 or 2" (fun () ->
        let args p = [ p; sc2; "-s"; script ] in
        fuzz_binaries ~seed:0xB1DD1 ~line:false ~apply:true sc1
          [ ("sit_batch", args); ("sit_serve", args);
            ("sit", fun p -> [ p; sc2 ]) ]);
    tc "edited script: sit_batch and sit_serve exit 0 or 2" (fun () ->
        let args p = [ sc1; sc2; "-s"; p ] in
        fuzz_binaries ~seed:0xB15C7 ~line:true ~apply:true script
          [ ("sit_batch", args); ("sit_serve", args) ]);
    tc "edited data: sit_batch and sit_serve exit 0 or 2" (fun () ->
        let args p = [ sc1; sc2; "-s"; script; "--data"; p ] in
        fuzz_binaries ~seed:0xB1DA7 ~line:true ~apply:false data
          [ ("sit_batch", args); ("sit_serve", args) ]);
    tc "edited dictionary: sit exits 0 or 2" (fun () ->
        let saved = Filename.temp_file "binfuzz" ".sitd" in
        Fun.protect ~finally:(fun () -> Sys.remove saved) @@ fun () ->
        Dictionary.save saved paper_workspace;
        fuzz_binaries ~seed:0xB1D1C ~line:false ~apply:false saved
          [ ("sit", fun p -> [ p ]) ]);
  ]

let () =
  Alcotest.run "fuzz"
    [
      ("ddl-fuzz", fuzz_tests);
      ("wire-fuzz", line_fuzz_tests);
      ("text-fuzz", text_fuzz_tests);
      ("bin-fuzz", binary_fuzz_tests);
    ]
