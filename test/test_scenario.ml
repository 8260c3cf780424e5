(* Differential end-to-end harness for Workload.Scenario (the scenario
   factory): one seeded federation scenario is rendered to files, loaded
   the way bin/sit_serve loads it, and replayed through every execution
   leg the stack offers.  All legs must produce byte-identical
   transcripts:

   - offline in-process execution (Server.exec) — the reference, with
     ground-truth invariants checked at every barrier phase (views
     fresh, materialized extents equal to from-scratch recomputation);
   - a real daemon over the wire;
   - a daemon killed at the checkpoint phase and restarted from its
     journal, replaying the schedule suffix. *)

module Scn = Workload.Scenario

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* Small but structurally complete: heterogeneous flavors, 3 views,
   every phase kind, and a checkpoint — while keeping each leg well
   under a second. *)
let params =
  {
    Scn.seed = 7;
    schemas = 4;
    concepts = 8;
    population = 48;
    views = 3;
    storm = 8;
    evolve = 4;
    rounds = 1;
  }

let scn = lazy (Scn.generate params)

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "sit_scn_%s_%d_%d" tag (Unix.getpid ()) !n)
    in
    Unix.mkdir dir 0o755;
    dir

let rendered =
  lazy
    (let dir = fresh_dir "files" in
     Scn.write_files ~dir (Lazy.force scn))

let setup ?journal () =
  let files = Lazy.force rendered in
  {
    Server.schema_files = [ files.Scn.ddl ];
    script = Some files.Scn.script;
    data = Some files.Scn.data;
    journal;
    name = Some "G";
  }

(* The schedule is read back from the rendered file, as sit_serve does,
   so the differential legs also cover the schedule round-trip. *)
let phases_and_checkpoint =
  lazy
    (let files = Lazy.force rendered in
     let text =
       In_channel.with_open_bin files.Scn.schedule In_channel.input_all
     in
     match Scn.parse_schedule text with
     | Ok (phases, ck) -> (phases, ck)
     | Error e -> Alcotest.fail e)

let load ?journal () =
  match Server.load_session (setup ?journal ()) with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let local = Server.Wire.Tcp ("127.0.0.1", 0)

let config = { (Server.default_config local) with Server.queue = 256 }

let with_offline f =
  match Server.create (load ()) config with
  | Error e -> Alcotest.fail e
  | Ok t -> Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

let offline_play t ~storm:_ frames = Array.map (Server.exec t) frames

let rows_bytes rows =
  String.concat "\n" (List.map Query.Eval.row_to_string rows)

(* The ground-truth invariant at a barrier phase: every view fresh, and
   every materialized extent byte-identical to from-scratch evaluation
   of its definition against the live merged store. *)
let check_barrier t label =
  Server.For_testing.with_state t (fun merged views ->
      let names = Server.View.names views in
      if names = [] then Alcotest.fail (label ^ ": no views registered");
      List.iter
        (fun v ->
          match Server.View.For_testing.raw_rows views v with
          | None -> Alcotest.fail (label ^ ": missing view " ^ v)
          | Some (rows, fresh) ->
              if not fresh then
                Alcotest.fail (label ^ ": view " ^ v ^ " stale after barrier");
              let q =
                match Server.View.definition views v with
                | Some q -> q
                | None -> Alcotest.fail (label ^ ": no definition for " ^ v)
              in
              check Alcotest.string
                (label ^ ": " ^ v ^ " extent = recompute")
                (rows_bytes (Query.Eval.run q merged))
                (rows_bytes rows))
        names)

(* The reference transcript: offline, barrier invariants checked as
   the schedule passes each barrier phase. *)
let reference =
  lazy
    (with_offline (fun t ->
         let phases, _ = Lazy.force phases_and_checkpoint in
         let barriers = (Lazy.force scn).Scn.barriers in
         let parts =
           List.mapi
             (fun i p ->
               let part = Scn.transcript ~play:(offline_play t) [ p ] in
               if List.mem i barriers then
                 check_barrier t (Printf.sprintf "barrier %d (%s)" i p.Scn.label);
               part)
             phases
         in
         String.concat "" parts))

let with_served f =
  match Server.start (load ()) config with
  | Error e -> Alcotest.fail e
  | Ok t ->
      let addr =
        match Server.port t with
        | Some p -> Server.Wire.Tcp ("127.0.0.1", p)
        | None -> Alcotest.fail "no bound port"
      in
      Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f addr)

let served_play addr ~storm frames =
  Server.Client.play ~addr ~conns:(if storm then 4 else 1) frames

(* ---- scenario structure ------------------------------------------- *)

let structure_tests =
  [
    tc "generate is a pure function of params" (fun () ->
        let a = Lazy.force scn and b = Scn.generate params in
        check Alcotest.string "script" a.Scn.script_text b.Scn.script_text;
        check Alcotest.string "schedule" (Scn.schedule_to_string a)
          (Scn.schedule_to_string b));
    tc "ground truth fully recovered, federation heterogeneous" (fun () ->
        let t = Lazy.force scn in
        check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "no missed true pairs" []
          (List.map
             (fun (a, b) -> (Ecr.Qname.to_string a, Ecr.Qname.to_string b))
             (Scn.missed_true_pairs t));
        check Alcotest.bool "at least one non-native flavor" true
          (List.exists (fun (_, f) -> f <> Scn.Ecr_native) t.Scn.flavors);
        check Alcotest.bool "some schemas stay native" true
          (List.exists (fun (_, f) -> f = Scn.Ecr_native) t.Scn.flavors));
    tc "schedule covers the whole lifecycle" (fun () ->
        let t = Lazy.force scn in
        let labels = List.map (fun p -> p.Scn.label) t.Scn.schedule in
        List.iter
          (fun l ->
            check Alcotest.bool (l ^ " phase present") true
              (List.exists
                 (fun l' ->
                   String.length l' >= String.length l
                   && String.sub l' 0 (String.length l) = l)
                 labels))
          [ "define"; "storm"; "evolve"; "barrier"; "checkpoint"; "drain" ];
        check Alcotest.bool "checkpoint phase is indexed" true
          (t.Scn.checkpoint >= 0
          && t.Scn.checkpoint < List.length t.Scn.schedule);
        check Alcotest.bool "ops_total counts every frame" true
          (Scn.ops_total t
          = List.fold_left
              (fun n p -> n + List.length p.Scn.frames)
              0 t.Scn.schedule));
    tc "rendered schedule parses back identically" (fun () ->
        let t = Lazy.force scn in
        match Scn.parse_schedule (Scn.schedule_to_string t) with
        | Error e -> Alcotest.fail e
        | Ok (phases, ck) ->
            check Alcotest.int "checkpoint" t.Scn.checkpoint ck;
            check Alcotest.int "phase count"
              (List.length t.Scn.schedule)
              (List.length phases);
            List.iter2
              (fun a b ->
                check Alcotest.string "label" a.Scn.label b.Scn.label;
                check Alcotest.bool "kind" a.Scn.storm b.Scn.storm;
                check
                  (Alcotest.list Alcotest.string)
                  ("frames of " ^ a.Scn.label) a.Scn.frames b.Scn.frames)
              t.Scn.schedule phases);
    tc "parse_schedule rejects malformed schedules" (fun () ->
        let bad input what =
          match Scn.parse_schedule input with
          | Ok _ -> Alcotest.fail ("accepted " ^ what)
          | Error _ -> ()
        in
        bad "{\"id\":\"f1\"}\n" "a frame before any phase";
        bad "!phase p0 sideways\n" "an unknown phase kind";
        bad "!phase\n" "a header missing its fields");
    tc "normalize_response zeroes only the ms field" (fun () ->
        check Alcotest.string "ms zeroed"
          "{\"ok\":true,\"refreshed\":\"sv0\",\"ms\":0}"
          (Scn.normalize_response
             "{\"ok\":true,\"refreshed\":\"sv0\",\"ms\":12.75}");
        let fixed = "{\"ok\":true,\"slept_ms\":5,\"rows\":3}" in
        check Alcotest.string "other fields untouched" fixed
          (Scn.normalize_response fixed));
  ]

(* ---- differential legs -------------------------------------------- *)

let leg_tests =
  [
    tc "reference leg succeeds and holds barrier invariants" (fun () ->
        let t = Lazy.force reference in
        check Alcotest.bool "transcript nonempty" true (String.length t > 0);
        (* every frame answered: one response line per op + one header
           line per phase *)
        let lines =
          List.length
            (String.split_on_char '\n' t |> List.filter (fun l -> l <> ""))
        in
        let s = Lazy.force scn in
        check Alcotest.int "every frame answered"
          (Scn.ops_total s + List.length s.Scn.schedule)
          lines);
    tc "served JSON leg matches the offline reference" (fun () ->
        with_served (fun addr ->
            let phases, _ = Lazy.force phases_and_checkpoint in
            check Alcotest.string "transcript" (Lazy.force reference)
              (Scn.transcript ~play:(served_play addr) phases)));
    tc "daemon killed at the checkpoint resumes byte-identically" (fun () ->
        let phases, ck = Lazy.force phases_and_checkpoint in
        check Alcotest.bool "schedule has a checkpoint" true (ck >= 0);
        let journal = fresh_dir "resume" in
        let split lo hi = List.filteri (fun i _ -> lo <= i && i < hi) phases in
        let run_leg range =
          match Server.start (load ~journal ()) config with
          | Error e -> Alcotest.fail e
          | Ok t ->
              let addr =
                match Server.port t with
                | Some p -> Server.Wire.Tcp ("127.0.0.1", p)
                | None -> Alcotest.fail "no bound port"
              in
              Fun.protect
                ~finally:(fun () -> Server.stop t)
                (fun () ->
                  Scn.transcript ~play:(served_play addr) range)
        in
        let prefix = run_leg (split 0 ck) in
        (* the daemon is gone; a fresh one resumes from the journal *)
        let suffix = run_leg (split ck (List.length phases)) in
        check Alcotest.string "prefix + suffix = uninterrupted"
          (Lazy.force reference) (prefix ^ suffix));
  ]

let () =
  Alcotest.run "scenario"
    [
      ("structure", structure_tests);
      ("differential", leg_tests);
    ]
