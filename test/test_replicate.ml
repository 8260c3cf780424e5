(* Tests for the replication tier (lib/replicate + the server's
   leader/follower wiring): deterministic backoff, the seq-numbered
   replication log (persistence, torn-tail recovery, acks), and
   in-process leader + follower clusters — catch-up, staleness
   observability, not_leader redirects, client failover, semi-sync
   acks with a leader killed mid-read-storm, and leader restart
   replaying its own log.  The out-of-process legs (real daemons,
   kill -9, late-started followers) live in scripts/chaos_test.sh. *)

open Ecr
module S = Instance.Store
module V = Instance.Value
module Json = Obs.Json
module Backoff = Replicate.Backoff
module Log = Replicate.Log

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* ---- fixtures: the paper's sc1+sc2 session with instances --------- *)

let sc1_store () =
  let st = S.create Workload.Paper.sc1 in
  let student name gpa = S.tuple [ ("Name", V.str name); ("GPA", V.real gpa) ] in
  let st, ann = S.insert (Name.v "Student") (student "Ann" 3.9) st in
  let st, ben = S.insert (Name.v "Student") (student "Ben" 2.5) st in
  let st, cs =
    S.insert (Name.v "Department") (S.tuple [ ("Name", V.str "CS") ]) st
  in
  let since y = S.tuple [ ("Since", V.date y 9 1) ] in
  let st = S.relate (Name.v "Majors") [ ann; cs ] (since 2020) st in
  let st = S.relate (Name.v "Majors") [ ben; cs ] (since 2021) st in
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
  st

let fresh_session ?journal_dir () =
  let result = Workload.Paper.integrate_sc1_sc2 () in
  Server.make_session ?journal_dir ~result
    ~stores:
      [ (Workload.Paper.sc1, sc1_store ()); (Workload.Paper.sc2, sc2_store ()) ]
    ()

let local = Server.Wire.Tcp ("127.0.0.1", 0)

let start_server ?journal_dir ?(repl = Server.default_repl) () =
  let cfg =
    {
      Server.listen = local;
      queue = 64;
      deadline_ms = None;
      cache = 16;
      debug = false;
      repl;
    }
  in
  match Server.start (fresh_session ?journal_dir ()) cfg with
  | Error msg -> Alcotest.fail ("server failed to start: " ^ msg)
  | Ok t -> (
      match Server.port t with
      | Some p -> (t, Server.Wire.Tcp ("127.0.0.1", p))
      | None -> Alcotest.fail "no bound port")

let follower_of leader_addr =
  { Server.default_repl with role = Server.Follower leader_addr }

let with_client addr f =
  let c = Server.Client.connect addr in
  Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () -> f c)

let int_field name resp =
  match Json.member name resp with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.fail (Printf.sprintf "no %S field in response" name)

let string_field name resp =
  match Json.member name resp with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail (Printf.sprintf "no %S field in response" name)

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Polls [f] until it returns true, failing the test after [timeout]. *)
let eventually ?(timeout = 10.) what f =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.fail ("timed out waiting for " ^ what)
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let fresh_dir =
  let n = ref 0 in
  fun () ->
    let base = Filename.temp_file "sit_repl" "" in
    Sys.remove base;
    Unix.mkdir base 0o755;
    incr n;
    base

let rm_rf dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let insert_frame i =
  Server.Wire.request_to_line ~view:"sc1"
    ~text:(Printf.sprintf "insert into Student { Name = 'R%d', GPA = 3.0 }" i)
    "update"

let count_frame =
  Server.Wire.request_to_line ~view:"sc1" ~text:"select Name from Student"
    "query"

let count_of resp = int_field "count" resp

let student_count c =
  count_of (Server.Client.request c ~view:"sc1" ~text:"select Name from Student" "query")

(* ------------------------------------------------------------------ *)
(* 1. Backoff.                                                         *)

let backoff_tests =
  [
    tc "delays are deterministic, bounded and capped" (fun () ->
        let p = { Backoff.default with attempts = 8; seed = 7 } in
        let d1 = Backoff.delays p and d2 = Backoff.delays p in
        check Alcotest.(list (float 0.0)) "same policy, same delays" d1 d2;
        check Alcotest.int "attempts-1 delays" 7 (List.length d1);
        List.iteri
          (fun i d ->
            let nominal =
              Float.min p.Backoff.max_ms
                (p.Backoff.base_ms *. (p.Backoff.factor ** float i))
            in
            check Alcotest.bool
              (Printf.sprintf "delay %d in jitter band" i)
              true
              (d <= nominal +. 1e-9
              && d >= (nominal *. (1. -. p.Backoff.jitter)) -. 1e-9))
          d1;
        let unjittered = Backoff.delays { p with jitter = 0. } in
        List.iteri
          (fun i d ->
            let nominal =
              Float.min p.Backoff.max_ms
                (p.Backoff.base_ms *. (p.Backoff.factor ** float i))
            in
            check (Alcotest.float 1e-9)
              (Printf.sprintf "unjittered delay %d is nominal" i)
              nominal d)
          unjittered);
    tc "different seeds give different jitter" (fun () ->
        let p = { Backoff.default with attempts = 6 } in
        check Alcotest.bool "seeds decorrelate" true
          (Backoff.delays { p with seed = 1 } <> Backoff.delays { p with seed = 2 }));
    tc "run retries to success and reports exhaustion" (fun () ->
        let slept = ref [] in
        let sleep d = slept := d :: !slept in
        let calls = ref 0 in
        (match
           Backoff.run ~sleep
             { Backoff.default with attempts = 5 }
             (fun k ->
               incr calls;
               if k < 2 then Error ("fail " ^ string_of_int k) else Ok (k * 10))
         with
        | Ok v ->
            check Alcotest.int "succeeded on third try" 20 v;
            check Alcotest.int "called thrice" 3 !calls;
            check Alcotest.int "slept twice" 2 (List.length !slept)
        | Error _ -> Alcotest.fail "should have succeeded");
        match
          Backoff.run ~sleep
            { Backoff.default with attempts = 3 }
            (fun k -> Error k)
        with
        | Ok _ -> Alcotest.fail "should have failed"
        | Error f ->
            check Alcotest.int "tried the whole budget" 3 f.Backoff.tried;
            check Alcotest.int "last error reported" 2 f.Backoff.last);
    tc "fresh policies decorrelate two default clients" (fun () ->
        (* the regression: clients built with the library default used
           to share seed 0, so a thundering herd retried in lockstep *)
        let p1 = Backoff.fresh () and p2 = Backoff.fresh () in
        check Alcotest.bool "fresh seeds differ" true
          (p1.Backoff.seed <> p2.Backoff.seed);
        check Alcotest.bool "fresh differs from the deterministic default"
          true
          (p1.Backoff.seed <> Backoff.default.Backoff.seed);
        let d1 = Backoff.delays { p1 with attempts = 8 }
        and d2 = Backoff.delays { p2 with attempts = 8 } in
        check Alcotest.bool "two default clients back off on different \
                            schedules" true (d1 <> d2);
        (* everything except the seed is still the default policy *)
        check Alcotest.bool "only the seed is fresh" true
          ({ p1 with seed = 0 } = Backoff.default));
  ]

(* ------------------------------------------------------------------ *)
(* 2. The replication log.                                             *)

let log_tests =
  [
    tc "append/get/from/seq, in memory" (fun () ->
        let l = Log.create () in
        check Alcotest.int "empty" 0 (Log.seq l);
        check Alcotest.int "first seq" 1 (Log.append l "a");
        check Alcotest.int "second seq" 2 (Log.append l "b");
        check Alcotest.int "third seq" 3 (Log.append l "c");
        check Alcotest.(option string) "get 2" (Some "b") (Log.get l 2);
        check Alcotest.(option string) "get 0" None (Log.get l 0);
        check Alcotest.(option string) "get 4" None (Log.get l 4);
        check
          Alcotest.(list (pair int string))
          "from 2" [ (2, "b"); (3, "c") ] (Log.from l 2 ~max:10);
        check
          Alcotest.(list (pair int string))
          "from 1 capped"
          [ (1, "a") ]
          (Log.from l 1 ~max:1);
        Log.close l;
        check Alcotest.bool "append after close raises" true
          (match Log.append l "d" with
          | exception Invalid_argument _ -> true
          | _ -> false));
    tc "wait long-polls until a frame arrives, times out, wakes on close"
      (fun () ->
        let l = Log.create () in
        check Alcotest.bool "timeout on empty" false
          (Log.wait l ~from:1 ~timeout_s:0.05);
        let appender =
          Thread.create
            (fun () ->
              Thread.delay 0.05;
              ignore (Log.append l "x"))
            ()
        in
        check Alcotest.bool "woken by append" true
          (Log.wait l ~from:1 ~timeout_s:5.);
        Thread.join appender;
        let closer =
          Thread.create
            (fun () ->
              Thread.delay 0.05;
              Log.close l)
            ()
        in
        check Alcotest.bool "close wakes waiters with false" false
          (Log.wait l ~from:2 ~timeout_s:5.);
        Thread.join closer);
    tc "interrupt wakes every waiter at once; appends still log" (fun () ->
        let l = Log.create () in
        Log.ack l ~node:"f1" 0;
        let interrupter =
          Thread.create
            (fun () ->
              Thread.delay 0.05;
              Log.interrupt l)
            ()
        in
        check Alcotest.bool "a long poll wakes with false" false
          (Log.wait l ~from:1 ~timeout_s:5.);
        Thread.join interrupter;
        check Alcotest.bool "a later poll returns at once" false
          (Log.wait l ~from:1 ~timeout_s:5.);
        check Alcotest.int "appends still log" 1 (Log.append l "a");
        check Alcotest.bool "a quorum wait returns at once" false
          (Log.wait_acked l ~seq:1 ~replicas:1 ~timeout_s:5.);
        Log.close l);
    tc "acks are monotonic per node; wait_acked counts replicas" (fun () ->
        let l = Log.create () in
        ignore (Log.append l "a");
        ignore (Log.append l "b");
        Log.ack l ~node:"f1" 0;
        Log.ack l ~node:"f2" 0;
        check
          Alcotest.(list (pair string int))
          "registered at 0"
          [ ("f1", 0); ("f2", 0) ]
          (Log.acks l);
        Log.ack l ~node:"f1" 2;
        Log.ack l ~node:"f1" 1;
        check
          Alcotest.(list (pair string int))
          "monotonic"
          [ ("f1", 2); ("f2", 0) ]
          (Log.acks l);
        check Alcotest.int "one node at seq 2" 1 (Log.acked_by l 2);
        check Alcotest.bool "1 replica is enough" true
          (Log.wait_acked l ~seq:2 ~replicas:1 ~timeout_s:0.2);
        check Alcotest.bool "2 replicas times out" false
          (Log.wait_acked l ~seq:2 ~replicas:2 ~timeout_s:0.05);
        let acker =
          Thread.create
            (fun () ->
              Thread.delay 0.05;
              Log.ack l ~node:"f2" 2)
            ()
        in
        check Alcotest.bool "woken when the second ack lands" true
          (Log.wait_acked l ~seq:2 ~replicas:2 ~timeout_s:5.);
        Thread.join acker;
        Log.close l);
    tc "persisted log recovers; a torn tail is truncated, never fatal"
      (fun () ->
        let dir = fresh_dir () in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let path = Filename.concat dir "repl.journal" in
            let l = Log.create ~persist:path () in
            ignore (Log.append l "one");
            ignore (Log.append l "two");
            ignore (Log.append l "three");
            Log.close l;
            (* clean reopen: full prefix *)
            let l2 = Log.create ~persist:path () in
            check Alcotest.int "recovered seq" 3 (Log.seq l2);
            check Alcotest.int "no truncation" 0 (Log.truncated_bytes l2);
            check Alcotest.(option string) "frame 3" (Some "three")
              (Log.get l2 3);
            Log.close l2;
            (* tear the tail: cut the last 2 bytes of the file *)
            let data =
              In_channel.with_open_bin path In_channel.input_all
            in
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc
                  (String.sub data 0 (String.length data - 2)));
            let l3 = Log.create ~persist:path () in
            check Alcotest.int "longest valid prefix" 2 (Log.seq l3);
            check Alcotest.bool "torn bytes counted" true
              (Log.truncated_bytes l3 > 0);
            (* the log keeps appending over the healed tail *)
            check Alcotest.int "next seq continues the prefix" 3
              (Log.append l3 "three'");
            Log.close l3;
            let l4 = Log.create ~persist:path () in
            check Alcotest.(option string) "healed frame persisted"
              (Some "three'") (Log.get l4 3);
            Log.close l4));
    tc "truncate sheds a prefix; reads clamp to base_seq" (fun () ->
        let l = Log.create () in
        for i = 1 to 6 do
          ignore (Log.append l (Printf.sprintf "f%d" i))
        done;
        check Alcotest.int "four frames dropped" 4 (Log.truncate l 4);
        check Alcotest.int "base moved" 4 (Log.base_seq l);
        check Alcotest.int "seq unchanged" 6 (Log.seq l);
        check Alcotest.(option string) "below the base is gone" None
          (Log.get l 1);
        check Alcotest.(option string) "at the base is gone" None (Log.get l 4);
        check Alcotest.(option string) "first retained frame" (Some "f5")
          (Log.get l 5);
        check Alcotest.(option string) "last frame" (Some "f6") (Log.get l 6);
        (* a pull from inside the truncated prefix clamps to the suffix *)
        check
          Alcotest.(list (pair int string))
          "from 1 clamps to base+1"
          [ (5, "f5"); (6, "f6") ]
          (Log.from l 1 ~max:10);
        check
          Alcotest.(list (pair int string))
          "from 5 capped" [ (5, "f5") ] (Log.from l 5 ~max:1);
        check Alcotest.(list (pair int string)) "past the tip" []
          (Log.from l 7 ~max:10);
        (* wait is satisfied by seq, not by frame availability *)
        check Alcotest.bool "wait below the base returns immediately" true
          (Log.wait l ~from:3 ~timeout_s:0.2);
        check Alcotest.int "re-truncating below the base drops nothing" 0
          (Log.truncate l 2);
        check Alcotest.int "truncation clamps to the tip" 2 (Log.truncate l 100);
        check Alcotest.int "base clamped to seq" 6 (Log.base_seq l);
        check Alcotest.(list (pair int string)) "nothing retained" []
          (Log.from l 1 ~max:10);
        (* appends continue the dense numbering over the hole *)
        check Alcotest.int "append continues the numbering" 7 (Log.append l "f7");
        check Alcotest.(option string) "new frame readable" (Some "f7")
          (Log.get l 7);
        Log.close l);
    tc "a truncated log persists its base across reopen" (fun () ->
        let dir = fresh_dir () in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let path = Filename.concat dir "repl.journal" in
            let l = Log.create ~persist:path () in
            for i = 1 to 4 do
              ignore (Log.append l (Printf.sprintf "f%d" i))
            done;
            check Alcotest.int "dropped" 2 (Log.truncate l 2);
            Log.close l;
            let l2 = Log.create ~persist:path () in
            check Alcotest.int "base recovered from the header" 2
              (Log.base_seq l2);
            check Alcotest.int "seq recovered" 4 (Log.seq l2);
            check Alcotest.(option string) "suffix frame readable" (Some "f3")
              (Log.get l2 3);
            check Alcotest.(option string) "truncated frame stays gone" None
              (Log.get l2 2);
            check Alcotest.int "appends resume after the suffix" 5
              (Log.append l2 "f5");
            Log.close l2;
            (* a torn tail after a truncation still recovers the base *)
            let data = In_channel.with_open_bin path In_channel.input_all in
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc
                  (String.sub data 0 (String.length data - 2)));
            let l3 = Log.create ~persist:path () in
            check Alcotest.int "base survives a torn tail" 2 (Log.base_seq l3);
            check Alcotest.int "longest valid suffix" 4 (Log.seq l3);
            check Alcotest.bool "torn bytes counted" true
              (Log.truncated_bytes l3 > 0);
            Log.close l3));
    tc "acks expire past the liveness window" (fun () ->
        let l = Log.create ~liveness_s:0.4 () in
        ignore (Log.append l "a");
        ignore (Log.append l "b");
        Log.ack l ~node:"f1" 1;
        Log.ack l ~node:"f2" 2;
        check
          Alcotest.(list (pair string int))
          "both live"
          [ ("f1", 1); ("f2", 2) ]
          (Log.acks l);
        check Alcotest.(option int) "truncation bound is the slowest ack"
          (Some 1) (Log.lowest_live_ack l);
        check Alcotest.int "both count at seq 1" 2 (Log.acked_by l 1);
        Thread.delay 0.6;
        (* f2 keeps pulling, f1 went silent for the whole window *)
        Log.ack l ~node:"f2" 2;
        check
          Alcotest.(list (pair string int))
          "the silent node is pruned"
          [ ("f2", 2) ]
          (Log.acks l);
        check Alcotest.(option int) "the bound no longer pins on the dead node"
          (Some 2) (Log.lowest_live_ack l);
        check Alcotest.int "only the live node counts" 1 (Log.acked_by l 1);
        Thread.delay 0.6;
        check Alcotest.(list (pair string int)) "all gone" [] (Log.acks l);
        check Alcotest.(option int) "no bound without followers" None
          (Log.lowest_live_ack l);
        check Alcotest.int "nobody counts toward a quorum" 0 (Log.acked_by l 1);
        (* a node re-registering after expiry is one entry, not two *)
        Log.ack l ~node:"f2" 0;
        Log.ack l ~node:"f2" 1;
        check
          Alcotest.(list (pair string int))
          "re-registration replaces"
          [ ("f2", 1) ]
          (Log.acks l);
        Log.close l);
  ]

(* ------------------------------------------------------------------ *)
(* 2b. Snapshots (the compaction companion of the log).                *)

module Snap = Replicate.Snapshot

let snapshot_tests =
  [
    tc "save/load round-trips, multi-chunk payloads, retention of two"
      (fun () ->
        let dir = fresh_dir () in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            check
              Alcotest.(option (pair int string))
              "empty dir has no snapshot" None (Snap.load ~dir);
            check Alcotest.(list int) "first save retained" [ 5 ]
              (Snap.save ~dir ~seq:5 "five");
            check
              Alcotest.(option (pair int string))
              "round-trip"
              (Some (5, "five"))
              (Snap.load ~dir);
            (* a payload larger than one chunk reassembles exactly *)
            let big =
              String.init 2_500_000 (fun i -> Char.chr (33 + (i * 7 mod 90)))
            in
            check Alcotest.(list int) "retained newest first" [ 9; 5 ]
              (Snap.save ~dir ~seq:9 big);
            (match Snap.load ~dir with
            | Some (9, p) ->
                check Alcotest.bool "multi-chunk payload intact" true
                  (String.equal p big)
            | _ -> Alcotest.fail "big snapshot did not load");
            check Alcotest.(list int) "retention caps at two" [ 12; 9 ]
              (Snap.save ~dir ~seq:12 "twelve");
            check Alcotest.bool "oldest file pruned" false
              (Sys.file_exists (Filename.concat dir "repl.snap.5"));
            check Alcotest.(list int) "disk agrees" [ 12; 9 ]
              (Snap.retained ~dir);
            (* an empty payload is a valid snapshot *)
            ignore (Snap.save ~dir ~seq:13 "");
            check
              Alcotest.(option (pair int string))
              "empty payload round-trips"
              (Some (13, ""))
              (Snap.load ~dir)));
    tc "a torn newest snapshot falls back to the previous" (fun () ->
        let dir = fresh_dir () in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            ignore (Snap.save ~dir ~seq:5 "five");
            ignore (Snap.save ~dir ~seq:9 "nine");
            let tear seq =
              let path =
                Filename.concat dir (Printf.sprintf "repl.snap.%d" seq)
              in
              let data = In_channel.with_open_bin path In_channel.input_all in
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_string oc
                    (String.sub data 0 (String.length data - 3)))
            in
            (* the torn tail loses the explicit trailer, so the whole
               file reads invalid — half a state is never installable *)
            tear 9;
            check
              Alcotest.(option (pair int string))
              "fallback to the previous retained snapshot"
              (Some (5, "five"))
              (Snap.load ~dir);
            tear 5;
            check
              Alcotest.(option (pair int string))
              "no valid snapshot left" None (Snap.load ~dir)));
  ]

(* ------------------------------------------------------------------ *)
(* 3. Wire surface.                                                    *)

let wire_tests =
  [
    tc "mutating classifies exactly the replicated ops" (fun () ->
        List.iter
          (fun op ->
            check Alcotest.bool (op ^ " is mutating") true
              (Server.Wire.mutating op))
          [ "update"; "migrate"; "define_view"; "drop_view"; "refresh_view" ];
        List.iter
          (fun op ->
            check Alcotest.bool (op ^ " is not mutating") false
              (Server.Wire.mutating op))
          [
            "query"; "rewrite"; "health"; "metrics"; "stats"; "view_stats";
            "repl_handshake"; "repl_pull"; "repl_frame"; "repl_status";
            "repl_snapshot"; "repl_compact";
          ]);
    tc "the op registry covers the repl operations" (fun () ->
        List.iter
          (fun op ->
            check Alcotest.bool (op ^ " registered") true
              (List.mem op Server.Wire.ops))
          [
            "repl_handshake"; "repl_pull"; "repl_frame"; "repl_status";
            "repl_snapshot"; "repl_compact";
          ]);
    tc "repl request fields roundtrip" (fun () ->
        let line =
          Server.Wire.request_to_line ~seq:7 ~max:32 ~wait_ms:150 ~node:"f1"
            "repl_pull"
        in
        match Server.Wire.request_of_line line with
        | Error _ -> Alcotest.fail "frame did not decode"
        | Ok r ->
            check Alcotest.(option int) "seq" (Some 7) r.Server.Wire.seq;
            check Alcotest.(option int) "max" (Some 32) r.Server.Wire.max;
            check Alcotest.(option int) "wait_ms" (Some 150)
              r.Server.Wire.wait_ms;
            check Alcotest.(option string) "node" (Some "f1")
              r.Server.Wire.node);
    tc "not_leader is a typed code and carries its data" (fun () ->
        check
          Alcotest.(option string)
          "registered" (Some "not_leader")
          (Option.map Server.Wire.code_to_string
             (Server.Wire.code_of_string "not_leader"));
        let line =
          Server.Wire.error_line
            ~data:[ ("leader", Json.String "127.0.0.1:7401") ]
            Server.Wire.Not_leader "redirect"
        in
        match Json.of_string line with
        | Error e -> Alcotest.fail e
        | Ok v ->
            check
              Alcotest.(option string)
              "code" (Some "not_leader") (Server.Client.error_code v);
            check Alcotest.bool "leader field present" true
              (Json.find [ "error"; "leader" ] v
              = Some (Json.String "127.0.0.1:7401")));
  ]

(* ------------------------------------------------------------------ *)
(* 4. The tail loop against a scripted leader.                         *)

module F = Replicate.Follower

(* A transport whose "leader" is a canned two-frame log; [fail_at]
   makes the follower's apply reject that seq forever. *)
let scripted_tail ~fail_at () =
  let progress = F.make_progress () in
  let pulls = ref [] in
  let obj fields = Json.to_string (Json.Obj (("ok", Json.Bool true) :: fields)) in
  let roundtrip () line =
    let v =
      match Json.of_string line with Ok v -> v | Error e -> failwith e
    in
    match Json.member "op" v with
    | Some (Json.String "repl_handshake") -> obj [ ("repl_seq", Json.Int 2) ]
    | Some (Json.String "repl_pull") ->
        let from =
          match Json.member "seq" v with Some (Json.Int s) -> s | _ -> -1
        in
        pulls := from :: !pulls;
        let frames =
          List.filter (fun (s, _) -> s >= from) [ (1, "a"); (2, "b") ]
        in
        obj
          [
            ("repl_seq", Json.Int 2);
            ( "frames",
              Json.List
                (List.map
                   (fun (s, f) ->
                     Json.Obj [ ("seq", Json.Int s); ("frame", Json.String f) ])
                   frames) );
          ]
    | _ -> failwith "unexpected op"
  in
  let th =
    Thread.create
      (fun () ->
        F.run ~node:"t" ~connect:Fun.id ~close:ignore ~roundtrip
          ~apply:(fun s _ -> if s = fail_at then Error "boom" else Ok ())
          ~progress
          ~backoff:
            { Backoff.default with base_ms = 1.; max_ms = 2.; attempts = 1000 }
          ~wait_ms:0 ())
      ()
  in
  (progress, pulls, th)

let follower_tests =
  [
    tc "a frame that fails to apply is never acked past" (fun () ->
        let progress, pulls, th = scripted_tail ~fail_at:2 () in
        (* give the loop several disconnect/reconnect/re-pull rounds *)
        eventually "repeated re-pulls of the failed frame" (fun () ->
            Atomic.get progress.F.apply_errors >= 3);
        F.request_stop progress;
        Thread.join th;
        check Alcotest.int "applied stops before the bad frame" 1
          (Atomic.get progress.F.applied);
        check Alcotest.int "the gap is honest staleness" 1 (F.staleness progress);
        check Alcotest.bool "last_error names the frame" true
          (contains (F.last_error progress) "frame 2");
        (* the ack channel is the pull's [from]: it must never pass the
           frame this node could not apply *)
        check Alcotest.bool "no pull ever acked past the failure" true
          (List.for_all (fun from -> from <= 2) !pulls);
        check Alcotest.bool "the failed seq was re-pulled" true
          (List.length (List.filter (fun from -> from = 2) !pulls) >= 2));
    tc "a clean tail applies everything and acks it" (fun () ->
        let progress, pulls, th = scripted_tail ~fail_at:0 () in
        eventually "catch-up" (fun () -> Atomic.get progress.F.applied = 2);
        (* one more pull carries the ack for seq 2 *)
        eventually "ack pull" (fun () -> List.exists (fun f -> f = 3) !pulls);
        F.request_stop progress;
        Thread.join th;
        check Alcotest.int "no apply errors" 0
          (Atomic.get progress.F.apply_errors);
        check Alcotest.int "no staleness" 0 (F.staleness progress));
  ]

(* ------------------------------------------------------------------ *)
(* 5. Clusters: leader + followers in-process.                         *)

let stop_all ts = List.iter (fun t -> try Server.stop t with _ -> ()) ts

let cluster_tests =
  [
    tc "followers converge and answer byte-identically to the leader"
      (fun () ->
        let leader, laddr = start_server () in
        let f1, a1 = start_server ~repl:(follower_of laddr) () in
        let f2, a2 = start_server ~repl:(follower_of laddr) () in
        Fun.protect
          ~finally:(fun () -> stop_all [ f1; f2; leader ])
          (fun () ->
            with_client laddr (fun c ->
                for i = 1 to 3 do
                  let resp =
                    Server.Client.request c ~view:"sc1"
                      ~text:
                        (Printf.sprintf
                           "insert into Student { Name = 'R%d', GPA = 3.0 }" i)
                      "update"
                  in
                  check Alcotest.bool
                    (Printf.sprintf "update %d ok" i)
                    true (Server.Client.is_ok resp)
                done;
                let resp =
                  Server.Client.request c ~view:"hi" ~base:"sc1"
                    ~text:"select Name from Student where GPA >= 3.5"
                    "define_view"
                in
                check Alcotest.bool "define_view ok" true
                  (Server.Client.is_ok resp));
            (* each follower reports convergence through health *)
            List.iter
              (fun addr ->
                with_client addr (fun c ->
                    eventually "follower catch-up" (fun () ->
                        let h = Server.Client.request c "health" in
                        int_field "applied_seq" h = 4
                        && int_field "staleness_seq" h = 0)))
              [ a1; a2 ];
            (* byte-identity: the same frames answered with the same bytes *)
            let deck =
              [|
                count_frame;
                Server.Wire.request_to_line ~view:"hi" "query";
                Server.Wire.request_to_line
                  ~text:"select Name from Student where GPA >= 3.5" "query";
              |]
            in
            let answers addr =
              with_client addr (fun c ->
                  Array.map (Server.Client.roundtrip c) deck)
            in
            let want = answers laddr in
            List.iter
              (fun addr ->
                let got = answers addr in
                Array.iteri
                  (fun i w ->
                    check Alcotest.string
                      (Printf.sprintf "frame %d byte-identical" i)
                      w got.(i))
                  want)
              [ a1; a2 ];
            (* the leader's status knows both followers *)
            with_client laddr (fun c ->
                let st = Server.Client.request c "repl_status" in
                match Json.member "followers" st with
                | Some (Json.List fs) ->
                    check Alcotest.int "two followers" 2 (List.length fs)
                | _ -> Alcotest.fail "no followers list")));
    tc "a write to a follower answers not_leader with the leader address"
      (fun () ->
        let leader, laddr = start_server () in
        let f1, a1 = start_server ~repl:(follower_of laddr) () in
        Fun.protect
          ~finally:(fun () -> stop_all [ f1; leader ])
          (fun () ->
            with_client a1 (fun c ->
                let resp =
                  Server.Client.request c ~view:"sc1"
                    ~text:"insert into Student { Name = 'Nope', GPA = 1.0 }"
                    "update"
                in
                check Alcotest.bool "rejected" false (Server.Client.is_ok resp);
                check
                  Alcotest.(option string)
                  "typed code" (Some "not_leader")
                  (Server.Client.error_code resp);
                check Alcotest.bool "leader advertised" true
                  (Json.find [ "error"; "leader" ] resp
                  = Some
                      (Json.String (Server.Wire.addr_to_string laddr))));
            (* reads still work on the follower *)
            with_client a1 (fun c ->
                check Alcotest.bool "reads fine" true
                  (Server.Client.is_ok
                     (Server.Client.request c ~view:"sc1"
                        ~text:"select Name from Student" "query")))));
    tc "failover client walks dead endpoints and chases redirects" (fun () ->
        let leader, laddr = start_server () in
        let f1, a1 = start_server ~repl:(follower_of laddr) () in
        Fun.protect
          ~finally:(fun () -> stop_all [ f1; leader ])
          (fun () ->
            let dead = Server.Wire.Tcp ("127.0.0.1", 1) in
            (* first endpoint dead, second a follower: a write must hop
               dead -> follower -> (redirect) -> leader and succeed *)
            let fo =
              Server.Client.failover
                ~retry:{ Backoff.default with base_ms = 1.; seed = 3 }
                [ dead; a1; laddr ]
            in
            Fun.protect
              ~finally:(fun () -> Server.Client.failover_close fo)
              (fun () ->
                let resp =
                  Server.Client.failover_roundtrip fo (insert_frame 99)
                in
                (match Json.of_string resp with
                | Ok v ->
                    check Alcotest.bool "write landed on the leader" true
                      (Server.Client.is_ok v)
                | Error e -> Alcotest.fail e);
                let failovers, redirects = Server.Client.failover_stats fo in
                check Alcotest.bool "walked the dead endpoint" true
                  (failovers >= 1);
                check Alcotest.bool "chased the redirect" true (redirects >= 1));
            (* all endpoints dead: typed Connection_error, not a hang *)
            let all_dead =
              Server.Client.failover
                ~retry:{ Backoff.default with attempts = 3; base_ms = 1. }
                [ dead ]
            in
            check Alcotest.bool "exhaustion raises Connection_error" true
              (match Server.Client.failover_roundtrip all_dead count_frame with
              | exception Server.Client.Connection_error _ -> true
              | _ -> false)));
    tc "a stalled endpoint times out as Connection_error and fails over"
      (fun () ->
        (* a listener that never accepts: connects succeed, reads stall *)
        let stalled = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind stalled (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen stalled 8;
        let saddr =
          match Unix.getsockname stalled with
          | Unix.ADDR_INET (_, p) -> Server.Wire.Tcp ("127.0.0.1", p)
          | _ -> Alcotest.fail "no stalled port"
        in
        let leader, laddr = start_server () in
        Fun.protect
          ~finally:(fun () ->
            Unix.close stalled;
            stop_all [ leader ])
          (fun () ->
            let c = Server.Client.connect ~timeout_ms:200 saddr in
            Fun.protect
              ~finally:(fun () -> Server.Client.close c)
              (fun () ->
                check Alcotest.bool "a stalled roundtrip is Connection_error"
                  true
                  (match Server.Client.roundtrip c count_frame with
                  | exception Server.Client.Connection_error _ -> true
                  | _ -> false));
            let fo =
              Server.Client.failover ~timeout_ms:200
                ~retry:{ Backoff.default with base_ms = 1.; seed = 3 }
                [ saddr; laddr ]
            in
            Fun.protect
              ~finally:(fun () -> Server.Client.failover_close fo)
              (fun () ->
                match
                  Json.of_string (Server.Client.failover_roundtrip fo count_frame)
                with
                | Ok v ->
                    check Alcotest.bool "answered by the live server" true
                      (Server.Client.is_ok v);
                    check Alcotest.bool "moved past the stalled endpoint" true
                      (fst (Server.Client.failover_stats fo) >= 1)
                | Error e -> Alcotest.fail e)));
    tc "semi-sync acks: leader killed mid-storm loses no acknowledged write"
      (fun () ->
        let leader, laddr =
          start_server ~repl:{ Server.default_repl with ack_replicas = 2 } ()
        in
        let f1, a1 = start_server ~repl:(follower_of laddr) () in
        let f2, a2 = start_server ~repl:(follower_of laddr) () in
        Fun.protect
          ~finally:(fun () -> stop_all [ f1; f2; leader ])
          (fun () ->
            let n = 5 in
            with_client laddr (fun c ->
                for i = 1 to n do
                  let resp =
                    match
                      Json.of_string (Server.Client.roundtrip c (insert_frame i))
                    with
                    | Ok v -> v
                    | Error e -> Alcotest.fail e
                  in
                  check Alcotest.bool
                    (Printf.sprintf "write %d acked" i)
                    true (Server.Client.is_ok resp)
                done);
            (* the reference answer, from the leader, before the kill *)
            let reference =
              with_client laddr (fun c -> Server.Client.roundtrip c count_frame)
            in
            (* storm reads through a failover client while the leader
               dies mid-deck: every read must be answered, and answers
               must equal the reference bytes *)
            let fo =
              Server.Client.failover
                ~retry:{ Backoff.default with base_ms = 1.; seed = 11 }
                [ laddr; a1; a2 ]
            in
            Fun.protect
              ~finally:(fun () -> Server.Client.failover_close fo)
              (fun () ->
                let first = Server.Client.failover_roundtrip fo count_frame in
                check Alcotest.string "pre-kill read matches" reference first;
                Server.stop leader;
                for i = 1 to 8 do
                  let resp = Server.Client.failover_roundtrip fo count_frame in
                  check Alcotest.string
                    (Printf.sprintf
                       "post-failover read %d byte-identical to the \
                        acknowledged state"
                       i)
                    reference resp
                done;
                let failovers, _ = Server.Client.failover_stats fo in
                check Alcotest.bool "failed over off the dead leader" true
                  (failovers >= 1))));
    tc "a throttled follower reports staleness honestly, then converges"
      (fun () ->
        let leader, laddr = start_server () in
        let slow, a1 =
          start_server
            ~repl:
              {
                (follower_of laddr) with
                batch = 1;
                throttle_ms = 120;
                wait_ms = 10;
              }
            ()
        in
        Fun.protect
          ~finally:(fun () -> stop_all [ slow; leader ])
          (fun () ->
            (* register: wait until the follower has completed at least
               one handshake (it knows the leader's seq) *)
            with_client a1 (fun c ->
                eventually "follower connected" (fun () ->
                    match
                      Json.member "repl_connected"
                        (Server.Client.request c "health")
                    with
                    | Some (Json.Bool b) -> b
                    | _ -> false));
            with_client laddr (fun c ->
                for i = 1 to 6 do
                  ignore (Server.Client.roundtrip c (insert_frame i))
                done);
            with_client a1 (fun c ->
                (* at 1 frame per >=120 ms the catch-up window is wide
                   open: staleness must be visible... *)
                eventually "staleness observed" (fun () ->
                    int_field "staleness_seq" (Server.Client.request c "health")
                    > 0);
                (* ...and must close *)
                eventually ~timeout:30. "convergence" (fun () ->
                    let h = Server.Client.request c "health" in
                    int_field "applied_seq" h = 6
                    && int_field "staleness_seq" h = 0))));
    tc "a mutation that outlives its deadline is acknowledged and replicated"
      (fun () ->
        let leader, laddr = start_server () in
        let f1, a1 = start_server ~repl:(follower_of laddr) () in
        Fun.protect
          ~finally:(fun () ->
            Server.For_testing.set_delay_after_op_ms 0;
            stop_all [ f1; leader ])
          (fun () ->
            (* every data op now finishes ~150 ms after run_op returns,
               far beyond the 50 ms request deadline *)
            Server.For_testing.set_delay_after_op_ms 150;
            with_client laddr (fun c ->
                (* control: a read across the same latency does miss *)
                check
                  Alcotest.(option string)
                  "read misses its deadline" (Some "deadline_exceeded")
                  (Server.Client.error_code
                     (Server.Client.request c ~view:"sc1"
                        ~text:"select Name from Student" ~deadline_ms:50
                        "query"));
                (* the mutation finished after the same deadline: it
                   changed state, so it must be acknowledged ok and
                   must reach the replication log — anything else
                   diverges followers and the restart replay from the
                   applied state *)
                let resp =
                  Server.Client.request c ~view:"sc1"
                    ~text:"insert into Student { Name = 'Late', GPA = 3.2 }"
                    ~deadline_ms:50 "update"
                in
                check Alcotest.bool "applied mutation acknowledged" true
                  (Server.Client.is_ok resp);
                check Alcotest.int "mutation reached the replication log" 1
                  (int_field "repl_seq" (Server.Client.request c "health")));
            Server.For_testing.set_delay_after_op_ms 0;
            with_client a1 (fun c ->
                eventually "follower applies the late write" (fun () ->
                    int_field "applied_seq" (Server.Client.request c "health")
                    = 1);
                check Alcotest.int "follower serves the late write" 3
                  (student_count c))));
    tc "a follower pointed at a non-leader reports the misconfiguration"
      (fun () ->
        let leader, laddr = start_server () in
        let f1, a1 = start_server ~repl:(follower_of laddr) () in
        (* the misconfiguration: tailing a node that is itself a follower *)
        let f2, a2 = start_server ~repl:(follower_of a1) () in
        Fun.protect
          ~finally:(fun () -> stop_all [ f2; f1; leader ])
          (fun () ->
            with_client a2 (fun c ->
                eventually "refusal surfaces as a named error" (fun () ->
                    let h = Server.Client.request c "health" in
                    contains (string_field "repl_last_error" h) "not a leader");
                (* the refusal carries the real leader's address, so the
                   fix is one config edit away *)
                let st = Server.Client.request c "repl_status" in
                check Alcotest.bool "advertised leader named" true
                  (contains (string_field "last_error" st)
                     (Server.Wire.addr_to_string laddr)))));
    tc "a restarted leader replays its replication log" (fun () ->
        let dir = fresh_dir () in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let count1 =
              let leader, laddr = start_server ~journal_dir:dir () in
              Fun.protect
                ~finally:(fun () -> Server.stop leader)
                (fun () ->
                  with_client laddr (fun c ->
                      for i = 1 to 3 do
                        let resp =
                          match
                            Json.of_string
                              (Server.Client.roundtrip c (insert_frame i))
                          with
                          | Ok v -> v
                          | Error e -> Alcotest.fail e
                        in
                        check Alcotest.bool "write ok" true
                          (Server.Client.is_ok resp)
                      done;
                      student_count c))
            in
            (* restart from the same journal dir: the replayed leader
               serves exactly what it last acknowledged *)
            let leader, laddr = start_server ~journal_dir:dir () in
            Fun.protect
              ~finally:(fun () -> Server.stop leader)
              (fun () ->
                with_client laddr (fun c ->
                    check Alcotest.int "state replayed" count1
                      (student_count c);
                    let h = Server.Client.request c "health" in
                    check Alcotest.int "repl_seq recovered" 3
                      (int_field "repl_seq" h)))));
    tc "a journaled follower restarted after a define_view catches up"
      (fun () ->
        (* the follower's directory holds only its node id: a restart
           rebuilds from the inputs and re-pulls from seq 1, so the
           leader's define_view applies again exactly once *)
        let dir = fresh_dir () in
        let leader, laddr = start_server () in
        Fun.protect
          ~finally:(fun () ->
            Server.stop leader;
            rm_rf dir)
          (fun () ->
            let define =
              Server.Wire.request_to_line ~view:"m" ~base:"sc1"
                ~policy:"manual" ~text:"select Name from Student"
                "define_view"
            in
            with_client laddr (fun c ->
                ignore (Server.Client.roundtrip c (insert_frame 1));
                check Alcotest.bool "define ok" true
                  (Server.Client.is_ok
                     (match Json.of_string (Server.Client.roundtrip c define) with
                     | Ok v -> v
                     | Error e -> Alcotest.fail e)));
            let leader_seq =
              with_client laddr (fun c ->
                  int_field "repl_seq" (Server.Client.request c "health"))
            in
            let read c = Json.to_string (Server.Client.request c ~view:"m" "query") in
            let want = with_client laddr read in
            let run_follower () =
              let f, faddr =
                start_server ~journal_dir:dir ~repl:(follower_of laddr) ()
              in
              Fun.protect
                ~finally:(fun () -> Server.stop f)
                (fun () ->
                  with_client faddr (fun c ->
                      eventually "the follower to apply the leader's log"
                        (fun () ->
                          int_field "applied_seq"
                            (Server.Client.request c "health")
                          = leader_seq);
                      let h = Server.Client.request c "health" in
                      check Alcotest.int "staleness_seq" 0
                        (int_field "staleness_seq" h);
                      check Alcotest.int "repl_apply_errors" 0
                        (int_field "repl_apply_errors" h);
                      check Alcotest.string "view answers like the leader"
                        want (read c)))
            in
            run_follower ();
            run_follower ();
            check
              Alcotest.(list string)
              "the follower's directory" [ "node_id" ]
              (Array.to_list (Sys.readdir dir))));
    tc "a leader whose log holds a frame that no longer applies refuses"
      (fun () ->
        let dir = fresh_dir () in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            (* frame 2 drops a view no replay of frame 1 defines: the
               history cannot be reproduced from these inputs *)
            let log =
              Log.create ~persist:(Filename.concat dir "repl.journal") ()
            in
            ignore (Log.append log (insert_frame 1));
            ignore
              (Log.append log
                 (Server.Wire.request_to_line ~view:"gone" "drop_view"));
            Log.close log;
            let cfg = Server.default_config local in
            match Server.create (fresh_session ~journal_dir:dir ()) cfg with
            | Ok t ->
                Server.stop t;
                Alcotest.fail "a log that does not replay must refuse to start"
            | Error msg ->
                check Alcotest.bool
                  (Printf.sprintf "the refusal names seq 2: %s" msg)
                  true (contains msg "seq 2")));
    tc "repl_compact truncates the log; a late follower installs the snapshot"
      (fun () ->
        let dir = fresh_dir () in
        let leader, laddr = start_server ~journal_dir:dir () in
        let fref = ref None in
        Fun.protect
          ~finally:(fun () ->
            (match !fref with Some f -> stop_all [ f ] | None -> ());
            stop_all [ leader ];
            rm_rf dir)
          (fun () ->
            with_client laddr (fun c ->
                (* a manual view goes stale under the writes: its frozen
                   extent is part of the served bytes and must survive
                   the snapshot verbatim *)
                check Alcotest.bool "manual view defined" true
                  (Server.Client.is_ok
                     (Server.Client.request c ~view:"frozen" ~base:"sc1"
                        ~policy:"manual" ~text:"select Name from Student"
                        "define_view"));
                for i = 1 to 3 do
                  check Alcotest.bool
                    (Printf.sprintf "write %d ok" i)
                    true
                    (Server.Client.is_ok
                       (match
                          Json.of_string
                            (Server.Client.roundtrip c (insert_frame i))
                        with
                       | Ok v -> v
                       | Error e -> Alcotest.fail e))
                done;
                let resp = Server.Client.request c "repl_compact" in
                check Alcotest.bool "compact ok" true
                  (Server.Client.is_ok resp);
                check Alcotest.int "snapshot covers the whole log" 4
                  (int_field "snapshot_seq" resp);
                check Alcotest.int "log truncated to the snapshot" 4
                  (int_field "base_seq" resp);
                check Alcotest.int "all four frames shed" 4
                  (int_field "dropped" resp);
                (* a second compaction with no new writes is a no-op *)
                let again = Server.Client.request c "repl_compact" in
                check Alcotest.int "idempotent" 0 (int_field "dropped" again);
                (* the shed prefix is gone from the serving surface *)
                let pruned =
                  match
                    Json.of_string
                      (Server.Client.roundtrip c
                         (Server.Wire.request_to_line ~seq:2 "repl_frame"))
                  with
                  | Ok v -> v
                  | Error e -> Alcotest.fail e
                in
                check Alcotest.bool "pruned frame refused" false
                  (Server.Client.is_ok pruned);
                let h = Server.Client.request c "health" in
                check Alcotest.int "health base_seq" 4 (int_field "base_seq" h);
                check Alcotest.int "health snapshot_seq" 4
                  (int_field "snapshot_seq" h));
            (* a fresh follower starts below the base: it cannot tail
               the truncated prefix and must take the snapshot leg *)
            let f1, a1 = start_server ~repl:(follower_of laddr) () in
            fref := Some f1;
            with_client a1 (fun c ->
                eventually "snapshot install + catch-up" (fun () ->
                    let h = Server.Client.request c "health" in
                    int_field "applied_seq" h = 4
                    && int_field "staleness_seq" h = 0);
                check Alcotest.bool "the catch-up went through a snapshot"
                  true
                  (int_field "snapshot_installs"
                     (Server.Client.request c "health")
                  >= 1));
            (* byte identity, including the stale manual view *)
            let deck =
              [| count_frame; Server.Wire.request_to_line ~view:"frozen" "query" |]
            in
            let answers addr =
              with_client addr (fun c ->
                  Array.map (Server.Client.roundtrip c) deck)
            in
            let want = answers laddr and got = answers a1 in
            Array.iteri
              (fun i w ->
                check Alcotest.string
                  (Printf.sprintf "frame %d byte-identical after install" i)
                  w got.(i))
              want;
            (* and the follower keeps tailing past the snapshot *)
            with_client laddr (fun c ->
                ignore (Server.Client.roundtrip c (insert_frame 9)));
            with_client a1 (fun c ->
                eventually "tail resumes after the snapshot" (fun () ->
                    int_field "applied_seq" (Server.Client.request c "health")
                    = 5);
                check Alcotest.int "post-snapshot write served" 6
                  (student_count c))));
    tc "compact_every compacts on the write path; late joiners converge"
      (fun () ->
        let leader, laddr =
          start_server
            ~repl:{ Server.default_repl with compact_every = 3 }
            ()
        in
        let fref = ref None in
        Fun.protect
          ~finally:(fun () ->
            (match !fref with Some f -> stop_all [ f ] | None -> ());
            stop_all [ leader ])
          (fun () ->
            with_client laddr (fun c ->
                for i = 1 to 7 do
                  ignore (Server.Client.roundtrip c (insert_frame i))
                done;
                let h = Server.Client.request c "health" in
                check Alcotest.bool "auto-compaction ran" true
                  (int_field "snapshot_seq" h >= 6);
                check Alcotest.bool "log prefix shed" true
                  (int_field "base_seq" h >= 3));
            let f1, a1 = start_server ~repl:(follower_of laddr) () in
            fref := Some f1;
            with_client a1 (fun c ->
                eventually "late joiner converges through the snapshot"
                  (fun () ->
                    let h = Server.Client.request c "health" in
                    int_field "applied_seq" h = 7
                    && int_field "staleness_seq" h = 0);
                check Alcotest.bool "snapshot leg taken" true
                  (int_field "snapshot_installs"
                     (Server.Client.request c "health")
                  >= 1));
            let want =
              with_client laddr (fun c -> Server.Client.roundtrip c count_frame)
            in
            let got =
              with_client a1 (fun c -> Server.Client.roundtrip c count_frame)
            in
            check Alcotest.string "byte-identical after the snapshot leg" want
              got));
    tc "a restarted leader recovers snapshot + suffix, not full history"
      (fun () ->
        let dir = fresh_dir () in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let count1 =
              let leader, laddr = start_server ~journal_dir:dir () in
              Fun.protect
                ~finally:(fun () -> Server.stop leader)
                (fun () ->
                  with_client laddr (fun c ->
                      for i = 1 to 4 do
                        ignore (Server.Client.roundtrip c (insert_frame i))
                      done;
                      ignore (Server.Client.request c "repl_compact");
                      for i = 5 to 6 do
                        ignore (Server.Client.roundtrip c (insert_frame i))
                      done;
                      (* the second snapshot retains the first as its
                         fallback, so the log keeps the suffix after 4 *)
                      let resp = Server.Client.request c "repl_compact" in
                      check Alcotest.int "second snapshot" 6
                        (int_field "snapshot_seq" resp);
                      check Alcotest.int
                        "truncation stops at the fallback snapshot" 4
                        (int_field "base_seq" resp);
                      ignore (Server.Client.roundtrip c (insert_frame 7));
                      student_count c))
            in
            (* restart: snapshot 6 + frames 5..7, never seq 1 *)
            let leader, laddr = start_server ~journal_dir:dir () in
            Fun.protect
              ~finally:(fun () -> Server.stop leader)
              (fun () ->
                with_client laddr (fun c ->
                    check Alcotest.int "state recovered" count1
                      (student_count c);
                    let h = Server.Client.request c "health" in
                    check Alcotest.int "repl_seq recovered" 7
                      (int_field "repl_seq" h);
                    check Alcotest.int "base survives the restart" 4
                      (int_field "base_seq" h);
                    check Alcotest.int "newest snapshot installed" 6
                      (int_field "snapshot_seq" h)));
            (* tear the newest snapshot's tail: the restart must fall
               back to the previous one and replay the longer suffix *)
            let tear path =
              let data = In_channel.with_open_bin path In_channel.input_all in
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_string oc
                    (String.sub data 0 (String.length data - 3)))
            in
            tear (Filename.concat dir "repl.snap.6");
            let leader, laddr = start_server ~journal_dir:dir () in
            Fun.protect
              ~finally:(fun () -> Server.stop leader)
              (fun () ->
                with_client laddr (fun c ->
                    check Alcotest.int "torn tail falls back" count1
                      (student_count c);
                    check Alcotest.int "suffix replayed to the tip" 7
                      (int_field "repl_seq"
                         (Server.Client.request c "health"))));
            (* no readable snapshot at all: the state is
               unreconstructible and the restart must refuse, not serve
               a silently wrong prefix *)
            Sys.remove (Filename.concat dir "repl.snap.4");
            let cfg =
              {
                Server.listen = local;
                queue = 64;
                deadline_ms = None;
                cache = 16;
                debug = false;
                repl = Server.default_repl;
              }
            in
            match Server.start (fresh_session ~journal_dir:dir ()) cfg with
            | Ok t ->
                Server.stop t;
                Alcotest.fail
                  "a truncated log without a snapshot must refuse to start"
            | Error msg ->
                check Alcotest.bool "the refusal names the snapshot" true
                  (contains msg "snapshot")));
    tc "a re-handshaking follower cannot double-count toward the quorum"
      (fun () ->
        let leader, laddr =
          start_server
            ~repl:
              {
                Server.default_repl with
                ack_replicas = 2;
                ack_timeout_ms = 300;
              }
            ()
        in
        Fun.protect
          ~finally:(fun () -> stop_all [ leader ])
          (fun () ->
            let parse line =
              match Json.of_string line with
              | Ok v -> v
              | Error e -> Alcotest.fail e
            in
            let hs node =
              Server.Wire.request_to_line ~node "repl_handshake"
            in
            (* pulling from seq [s+1] acknowledges seq [s] *)
            let pull node s =
              Server.Wire.request_to_line ~seq:(s + 1) ~max:1 ~wait_ms:0 ~node
                "repl_pull"
            in
            let c1 = Server.Client.connect laddr in
            let c2 = Server.Client.connect laddr in
            Fun.protect
              ~finally:(fun () ->
                Server.Client.close c1;
                Server.Client.close c2)
              (fun () ->
                (* one logical follower handshakes twice — a restart or
                   reconnect — and acks through both connections *)
                check Alcotest.bool "handshake 1" true
                  (Server.Client.is_ok (parse (Server.Client.roundtrip c1 (hs "phoenix"))));
                check Alcotest.bool "handshake 2" true
                  (Server.Client.is_ok (parse (Server.Client.roundtrip c2 (hs "phoenix"))));
                ignore (Server.Client.roundtrip c1 (pull "phoenix" 1));
                ignore (Server.Client.roundtrip c2 (pull "phoenix" 1));
                (* leader-side: one registered follower, not two *)
                with_client laddr (fun c ->
                    let st = Server.Client.request c "repl_status" in
                    match Json.member "followers" st with
                    | Some (Json.List fs) ->
                        check Alcotest.int "one registered follower" 1
                          (List.length fs)
                    | _ -> Alcotest.fail "no followers list");
                (* the write needs two replicas; one node acking over
                   two connections must not satisfy it *)
                with_client laddr (fun c ->
                    let resp =
                      parse (Server.Client.roundtrip c (insert_frame 1))
                    in
                    check Alcotest.bool "write not falsely quorum-acked" false
                      (Server.Client.is_ok resp);
                    check
                      Alcotest.(option string)
                      "typed internal error" (Some "internal")
                      (Server.Client.error_code resp);
                    match Json.find [ "error"; "message" ] resp with
                    | Some (Json.String m) ->
                        check Alcotest.bool "outcome is replicated-unknown"
                          true
                          (contains m "replicated-unknown")
                    | _ -> Alcotest.fail "no error message");
                (* a genuinely distinct second node closes the quorum *)
                ignore (Server.Client.roundtrip c1 (pull "phoenix" 2));
                let c3 = Server.Client.connect laddr in
                Fun.protect
                  ~finally:(fun () -> Server.Client.close c3)
                  (fun () ->
                    ignore (Server.Client.roundtrip c3 (hs "other"));
                    ignore (Server.Client.roundtrip c3 (pull "other" 2));
                    with_client laddr (fun c ->
                        check Alcotest.bool
                          "two distinct nodes satisfy the quorum" true
                          (Server.Client.is_ok
                             (parse
                                (Server.Client.roundtrip c (insert_frame 2)))))))));
    tc "a write whose deadline passes while it waits for the write lock is \
        refused and never logged"
      (fun () ->
        let leader, laddr = start_server () in
        Fun.protect
          ~finally:(fun () ->
            Server.For_testing.set_delay_after_op_ms 0;
            stop_all [ leader ])
          (fun () ->
            (* write A holds the write lock for ~300 ms after it applies *)
            Server.For_testing.set_delay_after_op_ms 300;
            let a_ok = ref false in
            let a =
              Thread.create
                (fun () ->
                  with_client laddr (fun c ->
                      a_ok :=
                        Server.Client.is_ok
                          (Server.Client.request c ~view:"sc1"
                             ~text:
                               "insert into Student { Name = 'First', GPA = \
                                3.1 }"
                             "update")))
                ()
            in
            with_client laddr (fun c ->
                eventually "write A admitted" (fun () ->
                    int_field "inflight" (Server.Client.request c "health")
                    = 1);
                Thread.delay 0.02;
                (* write B queues behind A on the write lock and starts
                   executing long after its 100 ms budget *)
                let resp =
                  Server.Client.request c ~view:"sc1"
                    ~text:"insert into Student { Name = 'Waited', GPA = 3.3 }"
                    ~deadline_ms:100 "update"
                in
                check
                  Alcotest.(option string)
                  "B misses its deadline" (Some "deadline_exceeded")
                  (Server.Client.error_code resp);
                Thread.join a;
                check Alcotest.bool "A acknowledged" true !a_ok;
                Server.For_testing.set_delay_after_op_ms 0;
                check Alcotest.int "only A reached the replication log" 1
                  (int_field "repl_seq" (Server.Client.request c "health"));
                let names =
                  Server.Client.request c ~view:"sc1"
                    ~text:"select Name from Student" "query"
                  |> Json.member "rows" |> Option.map Json.to_string
                  |> Option.value ~default:""
                in
                check Alcotest.bool "A's row present" true
                  (contains names "First");
                check Alcotest.bool "B's row absent" false
                  (contains names "Waited"))));
  ]

(* ------------------------------------------------------------------ *)
(* 6. The leader half on its own, over a fake serving state.           *)

module Leader = Replicate.Leader

let fake_state () =
  {
    Leader.apply = (fun _ _ -> Ok ());
    snapshot = (fun () -> "state");
    install = (fun _ _ -> Ok ());
  }

let payload_int name = function
  | Ok fields -> (
      match List.assoc_opt name fields with
      | Some (Json.Int n) -> n
      | _ -> Alcotest.fail (Printf.sprintf "no %S field" name))
  | Error (_, msg) -> Alcotest.fail msg

let leader_tests =
  [
    tc "compaction stops at a live follower's ack, then passes it once the \
        follower expires"
      (fun () ->
        let state = fake_state () in
        let l =
          Leader.create ~dir:None ~liveness_s:0.2 ~compact_every:0
            ~ack_replicas:0 ~ack_timeout_ms:1000 ~warn:ignore
        in
        Fun.protect
          ~finally:(fun () -> Leader.close l)
          (fun () ->
            for i = 1 to 5 do
              match
                Leader.write l state (fun () -> ((), Some (insert_frame i)))
              with
              | Ok () -> ()
              | Error msg -> Alcotest.fail msg
            done;
            let serve op ~node ~seq =
              Leader.serve l state op ~node ~seq ~batch:None ~wait_ms:None
            in
            (* a follower that has applied seq 2 pulls from 3 *)
            check Alcotest.int "the pull serves frames 3.." 5
              (payload_int "repl_seq"
                 (serve "repl_pull" ~node:(Some "f1") ~seq:(Some 3)));
            let first = serve "repl_compact" ~node:None ~seq:None in
            check Alcotest.int "the snapshot covers the whole log" 5
              (payload_int "snapshot_seq" first);
            check Alcotest.int "truncation stops at the live ack" 2
              (payload_int "base_seq" first);
            check Alcotest.bool "the follower's next frame is still served"
              true
              (match serve "repl_frame" ~node:None ~seq:(Some 3) with
              | Ok _ -> true
              | Error _ -> false);
            (* the follower goes silent past its liveness window *)
            Thread.delay 0.3;
            let second = serve "repl_compact" ~node:None ~seq:None in
            check Alcotest.int "now truncated to the snapshot floor" 5
              (payload_int "base_seq" second);
            check Alcotest.int "the three held frames dropped" 3
              (payload_int "dropped" second)));
    tc "a frame the log cannot take is an Error, never an exception"
      (fun () ->
        let l =
          Leader.create ~dir:None ~liveness_s:1. ~compact_every:1
            ~ack_replicas:0 ~ack_timeout_ms:1000 ~warn:ignore
        in
        Leader.close l;
        check Alcotest.bool "the applied write reports it was not logged" true
          (match
             Leader.write l (fake_state ()) (fun () -> ((), Some "frame"))
           with
          | Error msg -> contains msg "could not be logged"
          | Ok () -> false);
        check Alcotest.bool "a write with nothing to log is Ok" true
          (Leader.write l (fake_state ()) (fun () -> ((), None)) = Ok ()));
  ]

(* ------------------------------------------------------------------ *)
(* 7. Shutdown under writes: every admitted write is answered.         *)

(* [Server.stop] on another thread; false when it has not returned
   after [s] seconds, so a hang fails the test instead of the suite. *)
let stops_within s t =
  let stopped = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         Server.stop t;
         Atomic.set stopped true)
       ());
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get stopped)) && Unix.gettimeofday () -. t0 < s do
    Thread.delay 0.01
  done;
  Atomic.get stopped

let update_line name =
  Server.Wire.request_to_line ~view:"sc1"
    ~text:(Printf.sprintf "insert into Student { Name = '%s', GPA = 3.2 }" name)
    "update"

(* One roundtrip that gives up after 3 s, with any failure as [Error]. *)
let bounded_roundtrip addr line =
  match
    let c = Server.Client.connect ~timeout_ms:3000 addr in
    Fun.protect
      ~finally:(fun () -> Server.Client.close c)
      (fun () -> Server.Client.roundtrip c line)
  with
  | resp -> (
      match Json.of_string resp with Ok v -> Ok v | Error e -> Error e)
  | exception e -> Error (Printexc.to_string e)

let drain_tests =
  [
    tc "a write in flight when stop is called is logged and answered"
      (fun () ->
        let dir = fresh_dir () in
        let leader, laddr = start_server ~journal_dir:dir () in
        Fun.protect
          ~finally:(fun () ->
            Server.For_testing.set_delay_after_op_ms 0;
            ignore (stops_within 5. leader);
            rm_rf dir)
          (fun () ->
            (* the write holds the write lock for 400 ms after it
               applies, so the stop lands between apply and append *)
            Server.For_testing.set_delay_after_op_ms 400;
            let answer = ref (Error "no answer") in
            let writer =
              Thread.create
                (fun () -> answer := bounded_roundtrip laddr (update_line "Late"))
                ()
            in
            with_client laddr (fun c ->
                eventually "the write admitted" (fun () ->
                    int_field "inflight" (Server.Client.request c "health") = 1));
            Thread.delay 0.1;
            check Alcotest.bool "stop returns" true (stops_within 5. leader);
            Thread.join writer;
            Server.For_testing.set_delay_after_op_ms 0;
            (match !answer with
            | Ok v ->
                check Alcotest.bool "the write is answered ok" true
                  (Server.Client.is_ok v)
            | Error e -> Alcotest.fail ("the write got no answer: " ^ e));
            (* the restart replays it: it was logged before the log closed *)
            let again, aaddr = start_server ~journal_dir:dir () in
            Fun.protect
              ~finally:(fun () -> stop_all [ again ])
              (fun () ->
                with_client aaddr (fun c ->
                    check Alcotest.int "the write is in the log" 1
                      (int_field "repl_seq" (Server.Client.request c "health"));
                    check Alcotest.int "and in the recovered state" 3
                      (student_count c)))));
    tc "a compaction that cannot write leaves its write ok; stop returns"
      (fun () ->
        let dir = fresh_dir () in
        let leader, laddr =
          start_server ~journal_dir:dir
            ~repl:{ Server.default_repl with compact_every = 1 }
            ()
        in
        Fun.protect
          ~finally:(fun () -> ignore (stops_within 5. leader))
          (fun () ->
            (* the snapshot directory vanishes under the running leader *)
            rm_rf dir;
            List.iter
              (fun name ->
                match bounded_roundtrip laddr (update_line name) with
                | Ok v ->
                    check Alcotest.bool
                      (Printf.sprintf "write %s is answered ok" name)
                      true (Server.Client.is_ok v)
                | Error e -> Alcotest.fail ("the write got no answer: " ^ e))
              [ "First"; "Second" ];
            (match bounded_roundtrip laddr
                     (Server.Wire.request_to_line "repl_compact") with
            | Ok v ->
                check
                  Alcotest.(option string)
                  "repl_compact answers internal" (Some "internal")
                  (Server.Client.error_code v)
            | Error e -> Alcotest.fail ("repl_compact got no answer: " ^ e));
            (match bounded_roundtrip laddr
                     (Server.Wire.request_to_line "health") with
            | Ok h ->
                check Alcotest.int "both writes logged" 2 (int_field "repl_seq" h);
                check Alcotest.int "no snapshot taken" 0
                  (int_field "snapshot_seq" h)
            | Error e -> Alcotest.fail e);
            check Alcotest.bool "stop returns" true (stops_within 5. leader)));
  ]

(* ------------------------------------------------------------------ *)
(* 8. The rewrite-plan cache across mutations.                         *)

let cache_tests =
  [
    tc "a mutation opens a new plan-cache epoch" (fun () ->
        let leader, laddr = start_server () in
        Fun.protect
          ~finally:(fun () -> stop_all [ leader ])
          (fun () ->
            with_client laddr (fun c ->
                let q () =
                  check Alcotest.bool "query ok" true
                    (Server.Client.is_ok
                       (Server.Client.request c ~view:"sc1"
                          ~text:"select Name from Student" "query"))
                in
                let snap () =
                  let s = Server.stats leader in
                  (s.Server.cache_hits, s.Server.cache_misses)
                in
                q ();
                let h1, m1 = snap () in
                q ();
                let h2, m2 = snap () in
                check Alcotest.int "repeat is a cache hit" (h1 + 1) h2;
                check Alcotest.int "no new miss on a repeat" m1 m2;
                check Alcotest.bool "migrate ok" true
                  (Server.Client.is_ok (Server.Client.request c "migrate"));
                (* the regression: the cached plan predates the migrate;
                   serving it again would be a stale epoch *)
                q ();
                let h3, m3 = snap () in
                check Alcotest.int "post-migrate repeat misses" (m2 + 1) m3;
                check Alcotest.int "post-migrate repeat does not hit" h2 h3;
                q ();
                let h4, m4 = snap () in
                check Alcotest.int "the new epoch caches again" (h3 + 1) h4;
                check Alcotest.int "one rebuild only" m3 m4;
                check Alcotest.bool "update ok" true
                  (Server.Client.is_ok
                     (Server.Client.request c ~view:"sc1"
                        ~text:
                          "insert into Student { Name = 'Zed', GPA = 3.1 }"
                        "update"));
                q ();
                let h5, m5 = snap () in
                check Alcotest.int "post-update repeat misses" (m4 + 1) m5;
                check Alcotest.int "post-update repeat does not hit" h4 h5)));
    tc "after migrate a warm daemon answers byte-identically to a cold one"
      (fun () ->
        let run_daemon warm =
          let t, addr = start_server () in
          Fun.protect
            ~finally:(fun () -> stop_all [ t ])
            (fun () ->
              with_client addr (fun c ->
                  ignore (Server.Client.roundtrip c (insert_frame 1));
                  if warm then
                    (* populate the plan cache before the migrate *)
                    ignore (Server.Client.roundtrip c count_frame);
                  check Alcotest.bool "migrate ok" true
                    (Server.Client.is_ok (Server.Client.request c "migrate"));
                  Server.Client.roundtrip c count_frame))
        in
        let warm = run_daemon true and cold = run_daemon false in
        check Alcotest.string "identical bytes through the migrate" cold warm);
  ]

let () =
  Alcotest.run "replicate"
    [
      ("backoff", backoff_tests);
      ("log", log_tests);
      ("snapshot", snapshot_tests);
      ("wire", wire_tests);
      ("follower", follower_tests);
      ("cluster", cluster_tests);
      ("leader", leader_tests);
      ("drain", drain_tests);
      ("plan-cache", cache_tests);
    ]
