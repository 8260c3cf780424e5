(* sit_serve — query-serving daemon over one integrated-schema session.

   Server mode loads component DDL files plus an integration session
   script, builds the integrated schema, migrates instance data, and
   serves queries/updates over the line-delimited JSON protocol in
   docs/SERVING.md:

     sit_serve sc1.ddl sc2.ddl --script session.sit --data inst.dat \
       --listen 127.0.0.1:7401

   Drive mode (--drive ADDR) is the matching load client: it replays
   query specs over several concurrent connections and checks that
   identical frames always receive identical response bytes. *)

let hard_fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let parse_addr s =
  match Server.Wire.addr_of_string s with
  | Ok a -> a
  | Error e -> hard_fail "bad address %S: %s" s e

(* ---- drive mode --------------------------------------------------- *)

let split_view_spec what spec =
  match String.index_opt spec ':' with
  | None -> hard_fail "%s expects \"<view>: <text>\", got %s" what spec
  | Some i ->
      ( String.trim (String.sub spec 0 i),
        String.sub spec (i + 1) (String.length spec - i - 1) )

let parse_endpoints = function
  | None -> None
  | Some s ->
      let eps =
        String.split_on_char ',' s
        |> List.filter (fun x -> String.trim x <> "")
        |> List.map (fun x -> parse_addr (String.trim x))
      in
      (match eps with
      | [] -> hard_fail "--endpoints: no addresses in %S" s
      | _ -> ());
      Some eps

let drive addr endpoints timeout_ms conns requests queries global_queries
    mat_views =
  let specs =
    List.map
      (fun spec ->
        let view, text = split_view_spec "--query" spec in
        Server.Wire.request_to_line ~view ~text "query")
      queries
    @ List.map
        (fun text -> Server.Wire.request_to_line ~text "query")
        global_queries
    @ List.map
        (fun view -> Server.Wire.request_to_line ~view "query")
        mat_views
  in
  (match specs with
  | [] -> hard_fail "--drive needs at least one --query, --global or --mat spec"
  | _ -> ());
  let pool = Array.of_list specs in
  let n = max requests (Array.length pool) in
  let frames = Array.init n (fun i -> pool.(i mod Array.length pool)) in
  let stats =
    Server.Client.drive ?endpoints ?timeout_ms ~addr ~conns ~frames ()
  in
  Format.printf "%a@." Server.Client.pp_drive_stats stats;
  (* health probe after the run: the daemon must still be answering —
     with --endpoints, any surviving endpoint will do *)
  let health_addr =
    match endpoints with
    | Some eps ->
        let rec first = function
          | [] -> addr
          | e :: rest -> (
              match Server.Client.connect e with
              | c ->
                  Server.Client.close c;
                  e
              | exception Server.Client.Connection_error _ -> first rest)
        in
        first eps
    | None -> addr
  in
  let c = Server.Client.connect health_addr in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () ->
      let resp = Server.Client.request c "health" in
      if not (Server.Client.is_ok resp) then hard_fail "health check failed");
  if stats.Server.Client.mismatches > 0 then exit 1;
  if stats.Server.Client.ok = 0 && stats.Server.Client.sent > 0 then exit 1

(* ---- scenario schedules ------------------------------------------- *)

(* A schedule file (Workload.Scenario syntax) replaces the --query specs:
   phases replay in order, serial phases on one connection, storm phases
   fanned over --conns.  --phases LO:HI selects a half-open phase range —
   the crash-resume harness replays a prefix, restarts the daemon, then
   replays the suffix. *)

let load_phases file phases_spec =
  let text = In_channel.with_open_bin file In_channel.input_all in
  match Workload.Scenario.parse_schedule text with
  | Error e -> hard_fail "%s: %s" file e
  | Ok (phases, _checkpoint) ->
      let n = List.length phases in
      let lo, hi =
        match phases_spec with
        | None -> (0, n)
        | Some s -> (
            let int what v =
              match int_of_string_opt v with
              | Some i -> i
              | None -> hard_fail "--phases: %s bound %S is not a number" what v
            in
            match String.split_on_char ':' s with
            | [ a; b ] ->
                ( (if a = "" then 0 else int "lower" a),
                  if b = "" then n else int "upper" b )
            | _ -> hard_fail "--phases expects LO:HI, got %s" s)
      in
      if lo < 0 || hi > n || lo > hi then
        hard_fail "--phases %d:%d out of range (schedule has %d phases)" lo hi n;
      List.filteri (fun i _ -> lo <= i && i < hi) phases

let write_transcript out text =
  match out with
  | None | Some "-" -> print_string text
  | Some path ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc

let drive_schedule addr endpoints timeout_ms conns schedule phases_spec
    transcript_out =
  let phases = load_phases schedule phases_spec in
  let play ~storm frames =
    Server.Client.play ?endpoints ?timeout_ms ~addr
      ~conns:(if storm then conns else 1)
      frames
  in
  write_transcript transcript_out (Workload.Scenario.transcript ~play phases)

(* ---- server mode -------------------------------------------------- *)

(* --view NAME[@POLICY][:BASE]=QUERY, e.g.
   --view "honors@eager:sc1=select Name from Student where GPA >= 3.5" *)
let parse_view_def spec =
  match String.index_opt spec '=' with
  | None -> hard_fail "--view expects NAME[@POLICY][:BASE]=QUERY, got %s" spec
  | Some i ->
      let head = String.trim (String.sub spec 0 i) in
      let source = String.sub spec (i + 1) (String.length spec - i - 1) in
      let head, base =
        match String.index_opt head ':' with
        | None -> (head, None)
        | Some j ->
            ( String.trim (String.sub head 0 j),
              Some
                (String.trim
                   (String.sub head (j + 1) (String.length head - j - 1))) )
      in
      let view, policy =
        match String.index_opt head '@' with
        | None -> (head, Server.View.Lazy)
        | Some j -> (
            let p =
              String.trim (String.sub head (j + 1) (String.length head - j - 1))
            in
            match Server.View.policy_of_string p with
            | Some pol -> (String.trim (String.sub head 0 j), pol)
            | None ->
                hard_fail "--view: unknown policy %S (eager, lazy or manual)" p)
      in
      if view = "" then hard_fail "--view: empty view name in %s" spec;
      { Server.view; base; policy; query = source }

let serve files script data name journal listen queue deadline_ms cache
    metrics view_defs follow ack_replicas compact_every schedule phases_spec
    transcript_out =
  if metrics <> None then begin
    Obs.enable ();
    Obs.reset ()
  end;
  let setup =
    { Server.schema_files = files; script; data; journal; name }
  in
  match Server.load_session setup with
  | Error msg -> hard_fail "%s" msg
  | Ok session -> (
      let repl =
        {
          Server.default_repl with
          role =
            (match follow with
            | None -> Server.Leader
            | Some a -> Server.Follower (parse_addr a));
          ack_replicas;
          compact_every;
        }
      in
      let cfg =
        {
          (Server.default_config listen) with
          queue;
          deadline_ms;
          cache;
          repl;
        }
      in
      match
        Server.create ~views:(List.map parse_view_def view_defs) session cfg
      with
      | Error msg -> hard_fail "%s" msg
      | Ok t -> (
          match schedule with
          | Some file ->
              (* offline mode: replay the schedule in-process through the
                 same dispatch a connection uses, emit the transcript and
                 exit without ever accepting a connection — the reference
                 leg of the differential harness *)
              let phases = load_phases file phases_spec in
              let play ~storm:_ frames = Array.map (Server.exec t) frames in
              let text = Workload.Scenario.transcript ~play phases in
              Server.stop t;
              write_transcript transcript_out text
          | None ->
          let stop _ = Server.request_stop t in
          List.iter
            (fun s ->
              try Sys.set_signal s (Sys.Signal_handle stop)
              with Invalid_argument _ | Sys_error _ -> ())
            [ Sys.sigterm; Sys.sigint ];
          (match Server.port t with
          | Some p -> Printf.eprintf "sit_serve: listening on port %d\n%!" p
          | None ->
              Printf.eprintf "sit_serve: listening on %s\n%!"
                (Server.Wire.addr_to_string listen));
          Server.serve t;
          let s = Server.stats t in
          Printf.eprintf
            "sit_serve: drained; %d requests (%d ok, %d errors, %d \
             overloaded), cache %d hits / %d misses\n\
             %!"
            s.Server.requests s.Server.ok s.Server.errors s.Server.overloaded
            s.Server.cache_hits s.Server.cache_misses;
          (match metrics with
          | None -> ()
          | Some path ->
              let meta = [ ("tool", Obs.Json.String "sit_serve") ] in
              (try Obs.Report.write ~meta path
               with Sys_error msg ->
                 Printf.eprintf "cannot write metrics report: %s\n" msg;
                 exit 1);
              Printf.eprintf "metrics report written to %s\n" path)))

let run files script data name journal listen queue deadline_ms cache
    metrics view_defs follow ack_replicas compact_every drive_addr endpoints
    timeout_ms conns requests queries global_queries mat_views schedule
    phases_spec transcript_out =
  let endpoints = parse_endpoints endpoints in
  match (drive_addr, schedule) with
  | Some addr, Some file ->
      drive_schedule (parse_addr addr) endpoints timeout_ms conns file
        phases_spec transcript_out
  | Some addr, None ->
      drive (parse_addr addr) endpoints timeout_ms conns requests queries
        global_queries mat_views
  | None, _ ->
      serve files script data name journal (parse_addr listen) queue deadline_ms
        cache metrics view_defs follow ack_replicas compact_every schedule
        phases_spec transcript_out

open Cmdliner

let files =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"ECR DDL files.")

let script =
  Arg.(
    value
    & opt (some file) None
    & info [ "s"; "script" ] ~docv:"SCRIPT"
        ~doc:"Integration session script (equiv/object/rel/name directives).")

let data =
  Arg.(
    value
    & opt (some file) None
    & info [ "data" ] ~docv:"DATA"
        ~doc:"Instance data file (see Instance.Loader for the format).")

let integrated_name =
  Arg.(
    value
    & opt (some string) None
    & info [ "n"; "name" ] ~docv:"NAME" ~doc:"Name of the integrated schema.")

let journal_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:
          "Durable directory: a leader logs acknowledged writes to \
           $(docv)/repl.journal and snapshots to $(docv)/repl.snap.SEQ; a \
           restart rebuilds the session from the input files and replays \
           them.")

let listen =
  Arg.(
    value
    & opt string "127.0.0.1:7401"
    & info [ "l"; "listen" ] ~docv:"ADDR"
        ~doc:
          "Listen address: $(b,unix:PATH), $(b,HOST:PORT) or $(b,:PORT) \
           (TCP port 0 asks the kernel for a free port).")

let queue =
  Arg.(
    value
    & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Maximum in-flight data requests; beyond it requests are answered \
           $(b,overloaded) immediately (backpressure, not buffering).")

let deadline_ms =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Default per-request deadline; requests past it are answered \
           $(b,deadline_exceeded).  A frame's own $(b,deadline_ms) field \
           overrides this.")

let cache =
  Arg.(
    value
    & opt int 128
    & info [ "cache" ] ~docv:"N"
        ~doc:"Rewrite-plan LRU capacity (0 disables the cache).")

let metrics =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"REPORT"
        ~doc:
          "Enable the observability layer and write its JSON report (per-op \
           latency histograms, server.* counters) to $(docv) on shutdown.")

let view_defs =
  Arg.(
    value
    & opt_all string []
    & info [ "view" ] ~docv:"DEF"
        ~doc:
          "Define a materialized view at startup; format \
           $(b,NAME[@POLICY][:BASE]=QUERY) where POLICY is eager, lazy \
           (default) or manual and BASE is the component view the query is \
           written against (omit it for an integrated-schema query).  \
           Repeatable.")

let follow =
  Arg.(
    value
    & opt (some string) None
    & info [ "follow" ] ~docv:"LEADER"
        ~doc:
          "Serve as a replication follower of the leader at $(docv) \
           (docs/ROBUSTNESS.md): tail its journal stream, apply it locally, \
           serve reads, and answer every write with a $(b,not_leader) \
           redirect to $(docv).")

let ack_replicas =
  Arg.(
    value
    & opt int 0
    & info [ "ack-replicas" ] ~docv:"N"
        ~doc:
          "Leader only: hold each write's response until $(docv) followers \
           have acknowledged it (0 = asynchronous replication).")

let compact_every =
  Arg.(
    value
    & opt int 0
    & info [ "compact-every" ] ~docv:"N"
        ~doc:
          "Leader only: every $(docv) acknowledged writes, snapshot the \
           serving state to the journal directory and truncate the covered \
           replication-log prefix (docs/ROBUSTNESS.md \"Log growth\").  0 \
           disables automatic compaction; the $(b,repl_compact) operation \
           triggers one on demand.")

let drive_addr =
  Arg.(
    value
    & opt (some string) None
    & info [ "drive" ] ~docv:"ADDR"
        ~doc:
          "Client mode: load-test the daemon at $(docv) with the given \
           --query/--global specs instead of serving.")

let endpoints =
  Arg.(
    value
    & opt (some string) None
    & info [ "endpoints" ] ~docv:"A,B,C"
        ~doc:
          "Drive mode: comma-separated endpoint list for client failover — \
           each worker walks the list on connection failures and chases \
           $(b,not_leader) redirects, so a load run survives a dying \
           server.")

let timeout_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Drive mode: per-attempt socket timeout; a stalled endpoint \
           counts as a connection failure (and fails over under \
           --endpoints).")

let conns =
  Arg.(
    value
    & opt int 4
    & info [ "conns" ] ~docv:"N"
        ~doc:"Concurrent connections in --drive mode.")

let requests =
  Arg.(
    value
    & opt int 1000
    & info [ "requests" ] ~docv:"N"
        ~doc:"Total frames to send in --drive mode (specs are cycled).")

let queries =
  Arg.(
    value
    & opt_all string []
    & info [ "q"; "query" ] ~docv:"QUERY"
        ~doc:
          "Drive-mode view query; format \"<view>: <query>\".  Repeatable.")

let global_queries =
  Arg.(
    value
    & opt_all string []
    & info [ "g"; "global" ] ~docv:"QUERY"
        ~doc:"Drive-mode global query against the integrated schema.  \
              Repeatable.")

let mat_views =
  Arg.(
    value
    & opt_all string []
    & info [ "mat" ] ~docv:"NAME"
        ~doc:
          "Drive-mode materialized read: a $(b,query) frame naming the view \
           $(docv) with no query text.  Repeatable.")

let schedule =
  Arg.(
    value
    & opt (some file) None
    & info [ "schedule" ] ~docv:"FILE"
        ~doc:
          "Scenario schedule file (docs/SCENARIOS.md).  In server mode the \
           schedule is executed $(b,offline): in-process, no socket, \
           transcript out, exit.  With --drive it replaces the --query \
           specs: phases replay in order, serial phases on one connection, \
           storm phases over --conns.")

let phases_spec =
  Arg.(
    value
    & opt (some string) None
    & info [ "phases" ] ~docv:"LO:HI"
        ~doc:
          "Half-open phase range of the schedule to replay (default all); \
           either bound may be omitted.  The crash-resume harness replays \
           $(b,0:K), restarts the daemon, then replays $(b,K:).")

let transcript_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "transcript" ] ~docv:"OUT"
        ~doc:
          "Write the normalized schedule transcript to $(docv) (default \
           stdout).  Transcripts are byte-comparable across offline, served \
           and crash-resume legs.")

let cmd =
  Cmd.v
    (Cmd.info "sit_serve" ~version:"1.0.0"
       ~doc:
         "query-serving daemon over an integrated-schema session (and its \
          load-test client)")
    Term.(
      const run $ files $ script $ data $ integrated_name $ journal_dir
      $ listen $ queue $ deadline_ms $ cache $ metrics $ view_defs
      $ follow $ ack_replicas $ compact_every $ drive_addr $ endpoints
      $ timeout_ms_arg
      $ conns $ requests $ queries $ global_queries $ mat_views
      $ schedule $ phases_spec $ transcript_out)

let () = exit (Cmd.eval cmd)
