(* Fault-injection harness for the session journal.

   The single invariant under test: for ANY damaged journal file,
   recovery equals replaying the longest surviving valid record prefix
   through [Workspace] — same dictionary text, byte-identical integrated
   DDL — and never raises.  We record a real session (the paper's
   worked example plus schema edits, separations, retractions and a
   naming pin), note the byte offset where every record ends, then
   attack the file three ways:

   - truncation at every record boundary and at sampled mid-record
     offsets (a torn final write);
   - single-bit flips at sampled offsets (media corruption — CRC must
     catch it and recovery must fall back to the records before it);
   - torn writes at arbitrary byte budgets via
     [Journal.For_testing.write_limit] (a crash mid-[write]), followed
     by a resume that completes the session and must converge on the
     exact same final state.

   The Makefile's crash-test target runs this binary once. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check
module Op = Integrate.Op
module Ws = Integrate.Workspace

(* ------------------------------------------------------------------ *)
(* The recorded session: 24 ops covering every constructor.            *)

let session : Op.t list =
  let q = Ecr.Qname.v and qa = Ecr.Qname.Attr.v in
  [ Op.Add_schema Workload.Paper.sc1; Op.Add_schema Workload.Paper.sc2 ]
  @ List.map (fun (a, b) -> Op.Declare_equivalent (a, b)) Workload.Paper.equivalences
  @ List.map (fun (a, c, b) -> Op.Assert_object (a, c, b)) Workload.Paper.object_assertions
  @ List.map
      (fun (a, c, b) -> Op.Assert_relationship (a, c, b))
      Workload.Paper.relationship_assertions
  @ [
      Op.Rename (q "sc1" "Majors", q "sc2" "Major_in", "E_Stud_Majo");
      Op.Add_schema Workload.Paper.sc3;
      (* change of mind: separate a declared pair, then re-declare it *)
      Op.Separate_attribute (qa "sc1" "Student" "GPA");
      Op.Declare_equivalent (qa "sc1" "Student" "GPA", qa "sc2" "Grad_student" "GPA");
      (* retract a fact and re-assert it *)
      (let a, _, b = List.hd Workload.Paper.object_assertions in
       Op.Retract_object (a, b));
      (let a, c, b = List.hd Workload.Paper.object_assertions in
       Op.Assert_object (a, c, b));
      Op.Remove_schema (Ecr.Name.v "sc3");
    ]

let n_ops = List.length session

(* [prefix k] = the workspace after the first [k] ops — the oracle every
   recovery is compared against. *)
let prefix =
  let arr = Array.make (n_ops + 1) Ws.empty in
  List.iteri (fun i op -> arr.(i + 1) <- Op.apply op arr.(i)) session;
  fun k -> arr.(k)

let dict ws = Dictionary.to_string ws

(* The full fingerprint: dictionary text plus the integrated schema's
   printed DDL (when there is anything to integrate).  Byte equality
   here is the issue's "byte-identical integrated output". *)
let fingerprint ws =
  let integrated =
    if List.length (Ws.schemas ws) >= 2 then
      Ddl.Printer.to_string (Ws.integrate ws).Integrate.Result.schema
    else "(nothing to integrate)"
  in
  dict ws ^ "\n=== integrated ===\n" ^ integrated

let expect_fp = Array.init (n_ops + 1) (fun k -> fingerprint (prefix k))
let expect_dict = Array.init (n_ops + 1) (fun k -> dict (prefix k))

(* ------------------------------------------------------------------ *)
(* Plumbing.                                                           *)

let fresh_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sit_journal_test_%d_%d.sitj" (Unix.getpid ()) !n)

let with_path f =
  let path = fresh_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let file_size path = (Unix.stat path).Unix.st_size

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

(* Records the whole session into [path] with no checkpoints, returning
   the boundary map: [(end_offset, ops_so_far)] for every record, with
   the 8-byte header as boundary [(8, 0)]. *)
let record_session path =
  let recovery, j = Journal.open_ ~fsync:Never ~checkpoint_every:max_int path in
  check Alcotest.int "fresh journal is empty" 0 recovery.Journal.seq;
  let boundaries = ref [ (file_size path, 0) ] in
  List.iteri
    (fun i op ->
      Journal.append j op;
      boundaries := (file_size path, i + 1) :: !boundaries)
    session;
  Journal.close j;
  List.rev !boundaries

(* Survivors of damage at byte [b]: the record containing [b] dies, so
   the oracle is the latest boundary at or before [b].  Damage inside
   the magic header kills everything. *)
let survivors boundaries b =
  List.fold_left
    (fun acc (size, k) -> if size <= b then Int.max acc k else acc)
    0 boundaries

let boundary_at boundaries b =
  List.fold_left
    (fun acc (size, _) -> if size <= b && size > acc then size else acc)
    0 boundaries
  |> fun s -> if b < 8 then 0 else s

let check_recovery ~what ~full b expected_k r =
  let ws = r.Journal.workspace in
  check Alcotest.int (Printf.sprintf "%s@%d: seq" what b) expected_k r.Journal.seq;
  if full then
    check Alcotest.string
      (Printf.sprintf "%s@%d: fingerprint" what b)
      expect_fp.(expected_k) (fingerprint ws)
  else
    check Alcotest.string
      (Printf.sprintf "%s@%d: dictionary" what b)
      expect_dict.(expected_k) (dict ws)

(* ------------------------------------------------------------------ *)
(* 1. Truncation.                                                      *)

let truncation_tests =
  [
    tc "truncation at every record boundary recovers that exact prefix" (fun () ->
        with_path (fun path ->
            let boundaries = record_session path in
            let data = read_file path in
            with_path (fun victim ->
                List.iter
                  (fun (size, k) ->
                    write_file victim (String.sub data 0 size);
                    let r = Journal.recover victim in
                    check Alcotest.int
                      (Printf.sprintf "clean cut @%d drops nothing" size)
                      0 r.Journal.truncated_bytes;
                    (* full fingerprint: integrated output is byte-identical *)
                    check_recovery ~what:"truncate" ~full:true size k r)
                  boundaries)));
    tc "truncation at every mid-record byte falls back to the prior record"
      (fun () ->
        with_path (fun path ->
            let boundaries = record_session path in
            let data = read_file path in
            let n = String.length data in
            with_path (fun victim ->
                let b = ref 0 in
                while !b < n do
                  write_file victim (String.sub data 0 !b);
                  let r = Journal.recover victim in
                  let k = survivors boundaries !b in
                  check Alcotest.int
                    (Printf.sprintf "torn tail measured @%d" !b)
                    (!b - boundary_at boundaries !b)
                    r.Journal.truncated_bytes;
                  check_recovery ~what:"mid-truncate" ~full:false !b k r;
                  b := !b + 7
                done)));
    tc "empty, missing and garbage files recover to the empty session"
      (fun () ->
        with_path (fun path ->
            List.iter
              (fun data ->
                write_file path data;
                let r = Journal.recover path in
                check Alcotest.int "no ops" 0 r.Journal.seq;
                check Alcotest.string "empty workspace" expect_dict.(0)
                  (dict r.Journal.workspace))
              [ ""; "garbage"; "SITJRNL1"; "SITJRNL0" ^ String.make 100 'x' ];
            Sys.remove path;
            let r = Journal.recover path in
            check Alcotest.int "missing file" 0 r.Journal.seq));
    tc "open_ starts an empty or headerless file clean" (fun () ->
        with_path (fun path ->
            List.iter
              (fun data ->
                write_file path data;
                let r, frames =
                  Journal.Frames.open_ ~fsync:Journal.Never ~magic:"SITJRNL1" path
                in
                check Alcotest.int
                  (Printf.sprintf "%S: whole file dropped" data)
                  (String.length data) r.Journal.Frames.truncated_bytes;
                Journal.Frames.append frames "payload";
                Journal.Frames.close frames;
                (* header, then one record: nothing of the old bytes *)
                check Alcotest.int
                  (Printf.sprintf "%S: header and one record" data)
                  (8 + 8 + String.length "payload")
                  (file_size path);
                check Alcotest.string (Printf.sprintf "%S: header" data)
                  "SITJRNL1" (String.sub (read_file path) 0 8);
                let back = Journal.Frames.recover ~magic:"SITJRNL1" path in
                check (Alcotest.list Alcotest.string)
                  (Printf.sprintf "%S: the record" data)
                  [ "payload" ] back.Journal.Frames.payloads)
              [ ""; "garbage"; "SITJRNL0" ^ String.make 100 'x'; "SITJRN" ]));
  ]

(* ------------------------------------------------------------------ *)
(* 2. Single-bit flips.                                                *)

let bitflip_tests =
  [
    tc "a flipped bit anywhere truncates recovery at that record" (fun () ->
        with_path (fun path ->
            let boundaries = record_session path in
            let data = read_file path in
            let n = String.length data in
            with_path (fun victim ->
                let b = ref 0 and bit = ref 0 in
                while !b < n do
                  let buf = Bytes.of_string data in
                  Bytes.set buf !b
                    (Char.chr (Char.code data.[!b] lxor (1 lsl !bit)));
                  write_file victim (Bytes.to_string buf);
                  let r = Journal.recover victim in
                  check_recovery ~what:"bitflip" ~full:false !b
                    (survivors boundaries !b) r;
                  (* everything from the flipped record on is discarded *)
                  check Alcotest.int
                    (Printf.sprintf "tail dropped @%d" !b)
                    (n - boundary_at boundaries !b)
                    r.Journal.truncated_bytes;
                  bit := (!bit + 3) mod 8;
                  b := !b + 11
                done)));
    tc "a CRC-valid record with a malformed name ends the prefix" (fun () ->
        with_path (fun path ->
            let boundaries = record_session path in
            (* the first two ops (sc1, sc2), then a well-framed rename
               whose integrated name is no identifier *)
            let two = fst (List.find (fun (_, k) -> k = 2) boundaries) in
            write_file path (String.sub (read_file path) 0 two);
            let bad = "op 3\nname sc1.Majors sc2.Major_in Bad-Name" in
            let _, frames = Journal.Frames.open_ ~magic:"SITJRNL1" path in
            Journal.Frames.append frames bad;
            Journal.Frames.close frames;
            let r = Journal.recover path in
            check_recovery ~what:"bad name" ~full:true two 2 r;
            check Alcotest.int "the bad record is the dropped tail"
              (8 + String.length bad) r.Journal.truncated_bytes));
    tc "open_ truncates the corrupt tail so new appends extend the prefix"
      (fun () ->
        with_path (fun path ->
            let boundaries = record_session path in
            let data = read_file path in
            (* flip a bit a third of the way in *)
            let b = String.length data / 3 in
            let buf = Bytes.of_string data in
            Bytes.set buf b (Char.chr (Char.code data.[b] lxor 0x10));
            write_file path (Bytes.to_string buf);
            let k = survivors boundaries b in
            let recovery, j =
              Journal.open_ ~fsync:Never ~checkpoint_every:max_int path
            in
            check Alcotest.int "recovered prefix" k recovery.Journal.seq;
            (* replay the lost suffix of the session *)
            List.iteri
              (fun i op -> if i >= k then Journal.append j op)
              session;
            Journal.close j;
            let r = Journal.recover path in
            check_recovery ~what:"repair" ~full:true b n_ops r));
  ]

(* ------------------------------------------------------------------ *)
(* 3. Torn writes (crash mid-write via the For_testing hook).          *)

let record_until_crash path budget =
  Journal.For_testing.write_limit := Some budget;
  Fun.protect
    ~finally:(fun () -> Journal.For_testing.write_limit := None)
    (fun () ->
      let _, j = Journal.open_ ~fsync:Never ~checkpoint_every:max_int path in
      let written = ref 0 in
      (try
         List.iter
           (fun op ->
             Journal.append j op;
             incr written)
           session
       with Journal.For_testing.Crash -> ());
      (* a crashed process never closes cleanly; just drop the handle *)
      (try Journal.close j with Journal.For_testing.Crash -> ());
      !written)

let torn_write_tests =
  [
    tc "every write budget recovers the fully-written prefix, then resumes"
      (fun () ->
        (* boundary map from one clean recording gives the exact record
           sizes; the header is written outside the budget hook *)
        let boundaries = with_path record_session in
        let total = List.fold_left (fun a (s, _) -> Int.max a s) 0 boundaries - 8 in
        let budgets =
          (* exact record edges, their neighbours, and a byte stride *)
          List.concat_map (fun (s, _) -> [ s - 8; s - 7; s - 9 ]) boundaries
          @ List.init ((total / 23) + 1) (fun i -> i * 23)
          |> List.filter (fun b -> b >= 0 && b <= total)
          |> List.sort_uniq compare
        in
        List.iter
          (fun budget ->
            with_path (fun path ->
                let written = record_until_crash path budget in
                (* the op count whose records fit the budget entirely *)
                let k = survivors boundaries (budget + 8) in
                check Alcotest.bool
                  (Printf.sprintf "budget %d: appends stop at the crash" budget)
                  true (written = k || written = n_ops);
                let r = Journal.recover path in
                check_recovery ~what:"torn" ~full:false budget k r;
                check Alcotest.int
                  (Printf.sprintf "budget %d: torn bytes measured" budget)
                  (Int.min budget total - (boundary_at boundaries (budget + 8) - 8))
                  r.Journal.truncated_bytes;
                (* resume: reopen, finish the session, converge exactly *)
                let recovery, j =
                  Journal.open_ ~fsync:Never ~checkpoint_every:max_int path
                in
                check Alcotest.int "resume sees the same prefix" k
                  recovery.Journal.seq;
                List.iteri
                  (fun i op -> if i >= k then Journal.append j op)
                  session;
                Journal.close j;
                let r = Journal.recover path in
                check Alcotest.int "completed" n_ops r.Journal.seq;
                check Alcotest.string
                  (Printf.sprintf "budget %d: resumed session converges" budget)
                  expect_dict.(n_ops)
                  (dict r.Journal.workspace)))
          budgets;
        (* the full fingerprint once, on the last resumed journal *)
        with_path (fun path ->
            let _ = record_until_crash path (total / 2) in
            let recovery, j =
              Journal.open_ ~fsync:Never ~checkpoint_every:max_int path
            in
            List.iteri
              (fun i op -> if i >= recovery.Journal.seq then Journal.append j op)
              session;
            Journal.close j;
            check_recovery ~what:"resumed" ~full:true (total / 2) n_ops
              (Journal.recover path)));
    tc "a crash mid-checkpoint loses no ops" (fun () ->
        with_path (fun path ->
            let _, j = Journal.open_ ~fsync:Never ~checkpoint_every:max_int path in
            List.iter (fun op -> Journal.append j op) session;
            let before = file_size path in
            (* let 10 bytes of the snapshot record through, then crash *)
            Journal.For_testing.write_limit := Some 10;
            (try Journal.checkpoint j (prefix n_ops)
             with Journal.For_testing.Crash -> ());
            Journal.For_testing.write_limit := None;
            (try Journal.close j with Journal.For_testing.Crash -> ());
            check Alcotest.bool "snapshot is torn" true (file_size path > before);
            let r = Journal.recover path in
            check_recovery ~what:"torn-snap" ~full:true before n_ops r));
  ]

(* ------------------------------------------------------------------ *)
(* 4. Snapshots and compaction.                                        *)

(* Record with an explicit checkpoint every 5 ops, so the file mixes op
   and snapshot records; the boundary map still tags every record end
   with the number of ops baked in at that point. *)
let record_with_checkpoints path =
  let _, j = Journal.open_ ~fsync:Never ~checkpoint_every:max_int path in
  let boundaries = ref [ (file_size path, 0) ] in
  List.iteri
    (fun i op ->
      Journal.append j op;
      boundaries := (file_size path, i + 1) :: !boundaries;
      if (i + 1) mod 5 = 0 then begin
        Journal.checkpoint j (prefix (i + 1));
        boundaries := (file_size path, i + 1) :: !boundaries
      end)
    session;
  Journal.close j;
  List.rev !boundaries

let snapshot_tests =
  [
    tc "snapshots are equivalent to the op prefix they replace" (fun () ->
        with_path (fun path ->
            let boundaries = record_with_checkpoints path in
            let data = read_file path in
            with_path (fun victim ->
                (* truncate at every boundary: recovery must match the
                   pure-op oracle whether it lands on a snap or an op *)
                List.iter
                  (fun (size, k) ->
                    write_file victim (String.sub data 0 size);
                    check_recovery ~what:"snap-truncate" ~full:false size k
                      (Journal.recover victim))
                  boundaries;
                (* and bit flips inside snapshot records fall back too *)
                let n = String.length data in
                let b = ref 5 in
                while !b < n do
                  let buf = Bytes.of_string data in
                  Bytes.set buf !b
                    (Char.chr (Char.code data.[!b] lxor 0x01));
                  write_file victim (Bytes.to_string buf);
                  check_recovery ~what:"snap-bitflip" ~full:false !b
                    (survivors boundaries !b)
                    (Journal.recover victim);
                  b := !b + 31
                done)));
    tc "automatic checkpointing (checkpoint_every) changes nothing" (fun () ->
        with_path (fun path ->
            let _, j = Journal.open_ ~fsync:Never ~checkpoint_every:4 path in
            List.iteri
              (fun i op -> Journal.append ~after:(prefix (i + 1)) j op)
              session;
            Journal.close j;
            let r = Journal.recover path in
            check Alcotest.bool "snapshots were written" true
              (r.Journal.records > n_ops);
            check_recovery ~what:"auto-ckpt" ~full:true 0 n_ops r));
    tc "compaction shrinks the file to one snapshot, same state" (fun () ->
        with_path (fun path ->
            let _, j = Journal.open_ ~fsync:Never ~checkpoint_every:max_int path in
            List.iter (fun op -> Journal.append j op) session;
            let before = file_size path in
            Journal.compact j (prefix n_ops);
            let after = file_size path in
            check Alcotest.bool "file shrank" true (after < before);
            (* the journal stays appendable after compaction *)
            Journal.append j (Op.Add_schema Workload.Paper.sc3);
            Journal.close j;
            let r = Journal.recover path in
            check Alcotest.int "records: snap + one op" 2 r.Journal.records;
            check Alcotest.string "state carried over"
              (dict (Op.apply (Op.Add_schema Workload.Paper.sc3) (prefix n_ops)))
              (dict r.Journal.workspace)));
    tc "reset empties the journal" (fun () ->
        with_path (fun path ->
            let _, j = Journal.open_ ~fsync:Never path in
            List.iter (fun op -> Journal.append j op) session;
            Journal.reset j;
            check Alcotest.int "seq back to zero" 0 (Journal.seq j);
            Journal.close j;
            let r = Journal.recover path in
            check Alcotest.int "no records" 0 r.Journal.records;
            check Alcotest.string "empty" expect_dict.(0) (dict r.Journal.workspace)));
    tc "a snapshot taken after a schema edit strands a fact reopens whole"
      (fun () ->
        let sc2 = Workload.Paper.sc2 in
        let without n s = Ecr.Schema.remove_structure (Ecr.Name.v n) s in
        List.iter
          (fun (what, edited) ->
            with_path (fun path ->
                (* the session asserts "sc1.Student may be sc2.Faculty" *)
                let ops = session @ [ Op.Add_schema edited ] in
                let final =
                  List.fold_left (fun ws op -> Op.apply op ws) Ws.empty ops
                in
                let _, j =
                  Journal.open_ ~fsync:Never ~checkpoint_every:max_int path
                in
                List.iter (fun op -> Journal.append j op) ops;
                Journal.checkpoint j final;
                Journal.close j;
                let r, j = Journal.open_ ~fsync:Never path in
                Journal.close j;
                check Alcotest.int (what ^ ": checkpoint: nothing truncated") 0
                  r.Journal.truncated_bytes;
                check Alcotest.int (what ^ ": checkpoint: records")
                  (List.length ops + 1) r.Journal.records;
                let _, j = Journal.open_ ~fsync:Never path in
                Journal.compact j final;
                Journal.close j;
                let r, j = Journal.open_ ~fsync:Never path in
                Journal.close j;
                check Alcotest.int (what ^ ": compacted: nothing truncated") 0
                  r.Journal.truncated_bytes;
                check Alcotest.int (what ^ ": compacted: seq kept")
                  (List.length ops) r.Journal.seq;
                check Alcotest.string (what ^ ": compacted: state kept")
                  (dict final) (dict r.Journal.workspace)))
          [
            ("Faculty and Works dropped", without "Faculty" (without "Works" sc2));
            (* Works still names Faculty: the edit is invalid, so replay
               drops it rather than record a workspace that cannot be
               saved *)
            ("only Faculty dropped", without "Faculty" sc2);
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* 5. Fsync policies and observability.                                *)

let policy_tests =
  [
    tc "all fsync policies produce the same bytes and the same recovery"
      (fun () ->
        let dump policy =
          with_path (fun path ->
              let _, j = Journal.open_ ~fsync:policy ~checkpoint_every:max_int path in
              List.iter (fun op -> Journal.append j op) session;
              Journal.close j;
              let r = Journal.recover path in
              check_recovery ~what:"policy" ~full:false 0 n_ops r;
              read_file path)
        in
        let never = dump Journal.Never in
        check Alcotest.string "Always writes identical bytes" never
          (dump Journal.Always);
        check Alcotest.string "Every 3 writes identical bytes" never
          (dump (Journal.Every 3)));
    tc "journal.* counters account for appends, fsyncs and recovery"
      (fun () ->
        Obs.disable ();
        Obs.reset ();
        Obs.enable ();
        Fun.protect
          ~finally:(fun () ->
            Obs.disable ();
            Obs.reset ())
          (fun () ->
            with_path (fun path ->
                let _, j =
                  Journal.open_ ~fsync:Journal.Always ~checkpoint_every:max_int
                    path
                in
                List.iter (fun op -> Journal.append j op) session;
                Journal.close j;
                let v name = List.assoc name (Obs.Counter.all ()) in
                check Alcotest.int "appends" n_ops (v "journal.appends");
                check Alcotest.bool "fsyncs >= one per op" true
                  (v "journal.fsyncs" >= n_ops);
                (* recovery of a damaged file feeds the recovery counters *)
                let data = read_file path in
                write_file path (String.sub data 0 (String.length data - 3));
                let r = Journal.recover path in
                check Alcotest.int "recovered records" r.Journal.records
                  (v "journal.recovered_records");
                check Alcotest.bool "truncated bytes counted" true
                  (v "journal.truncated_bytes" >= r.Journal.truncated_bytes))));
  ]

(* ------------------------------------------------------------------ *)
(* 6. Concurrency: the journal under racing appenders.                 *)

let concurrency_tests =
  [
    tc "concurrent appends: dense seqs, valid file, exactly-once in-order \
        records"
      (fun () ->
        (* 4 threads hammer one journal with Rename ops tagged by
           (thread, i).  The mutex must give (a) a seq equal to the
           total op count, (b) a file that recovers completely with no
           truncation, and (c) each op on file exactly once, at its
           seq, with each thread's ops in its own program order (the
           total order is schedule-dependent; per-thread order is
           not).  The oracle reads the raw frames, not the journal's
           own replay. *)
        with_path (fun path ->
            let threads = 4 and per = 50 in
            let _, j =
              Journal.open_ ~fsync:Journal.Never ~checkpoint_every:max_int path
            in
            let op_of k i =
              Integrate.Op.Rename
                ( Ecr.Qname.v "sc1" (Printf.sprintf "T%d" k),
                  Ecr.Qname.v "sc2" (Printf.sprintf "I%d" i),
                  Printf.sprintf "N%dx%d" k i )
            in
            let worker k () =
              for i = 0 to per - 1 do
                Journal.append j (op_of k i)
              done
            in
            let ts = List.init threads (fun k -> Thread.create (worker k) ()) in
            List.iter Thread.join ts;
            let total = threads * per in
            check Alcotest.int "seq counts every append" total (Journal.seq j);
            Journal.close j;
            let r = Journal.recover path in
            check Alcotest.int "every record recovers" total r.Journal.records;
            check Alcotest.int "no torn tail" 0 r.Journal.truncated_bytes;
            let frames = Journal.Frames.recover ~magic:"SITJRNL1" path in
            check Alcotest.int "one frame per op" total
              (List.length frames.Journal.Frames.payloads);
            (* each payload is "op <seq>\nname <a> <b> <tag>" *)
            let tags =
              List.mapi
                (fun i payload ->
                  match
                    Scanf.sscanf_opt payload "op %d\nname %_s %_s %s%!"
                      (fun seq tag -> (seq, tag))
                  with
                  | Some (seq, tag) ->
                      check Alcotest.int "frames in seq order" (i + 1) seq;
                      tag
                  | None -> Alcotest.failf "unexpected frame %S" payload)
                frames.Journal.Frames.payloads
            in
            (* exactly-once: no duplicates among the tagged ops *)
            check Alcotest.int "no duplicate records" total
              (List.length (List.sort_uniq String.compare tags));
            (* per-thread program order is preserved in the total order *)
            for k = 0 to threads - 1 do
              let mine =
                List.filter_map
                  (fun tag ->
                    match
                      Scanf.sscanf_opt tag "N%dx%d" (fun a b -> (a, b))
                    with
                    | Some (k', i) when k' = k -> Some i
                    | _ -> None)
                  tags
              in
              check
                Alcotest.(list int)
                (Printf.sprintf "thread %d recorded in order" k)
                (List.init per Fun.id) mine
            done));
    tc "append racing close never corrupts; losers get a clean error"
      (fun () ->
        with_path (fun path ->
            let _, j =
              Journal.open_ ~fsync:Journal.Never ~checkpoint_every:max_int path
            in
            let op =
              Integrate.Op.Rename
                (Ecr.Qname.v "a" "b", Ecr.Qname.v "c" "d", "e")
            in
            let failures = Atomic.make 0 in
            let appender () =
              for _ = 1 to 200 do
                try Journal.append j op
                with Invalid_argument _ -> Atomic.incr failures
              done
            in
            let closer () =
              Thread.delay 0.002;
              Journal.close j
            in
            let ts =
              [ Thread.create appender (); Thread.create appender ();
                Thread.create closer () ]
            in
            List.iter Thread.join ts;
            (* whatever was appended before the close is a fully valid
               prefix — the close cannot tear a record *)
            let r = Journal.recover path in
            check Alcotest.int "no torn tail from racing close" 0
              r.Journal.truncated_bytes));
  ]

let () =
  Alcotest.run "journal"
    [
      ("truncation", truncation_tests);
      ("bit-flips", bitflip_tests);
      ("torn-writes", torn_write_tests);
      ("snapshots", snapshot_tests);
      ("policies", policy_tests);
      ("concurrency", concurrency_tests);
    ]
