(* sit_batch — non-interactive schema integration.

   Consumes ECR DDL files plus one or more session scripts (see
   Integrate.Script for the directive format) and emits the integrated
   schema (DDL), the generated mappings and a summary.  With several
   --script options the sessions are independent integration jobs over
   the same component schemas, run across the machine's cores
   (Par.map); each job's output is buffered and printed in script
   order, so the interleaving never depends on the schedule. *)

exception Session_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Session_error s)) fmt

(* One integration session: replay [directives] against [schemas] and
   return everything the session prints.  Pure apart from the optional
   file outputs, which the driver only allows in single-script runs.

   With [~journal] the session is write-ahead logged: every schema
   addition and directive is appended as one op record before the next
   one runs, so a killed run resumes from its journal (--resume) by
   replaying the recovered prefix and skipping that many ops.  The
   inputs must be unchanged between the runs — ops are skipped by
   position. *)
let run_session ~schemas ~directives ~out_ddl ~out_dot ~name ~analyse
    ~save_dict ~save_result ~stores ~updates ~queries ~global_queries
    ?journal () =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.bprintf buf fmt in
  (* A bad --update/--query/--global directive is reported and skipped;
     the remaining directives still run and the session's exit status
     turns non-zero only at the very end. *)
  let directive_errors = ref 0 in
  let catching label f =
    try f () with
    | Query.Parser.Error msg ->
        incr directive_errors;
        pr "error: %s: parse error: %s\n" label msg
    | Query.Rewrite.Unmapped msg ->
        incr directive_errors;
        pr "error: %s: unmapped: %s\n" label msg
    | Query.Eval.Error msg ->
        incr directive_errors;
        pr "error: %s: evaluation error: %s\n" label msg
    | Query.Update.Error msg ->
        incr directive_errors;
        pr "error: %s: update error: %s\n" label msg
    | Session_error msg ->
        incr directive_errors;
        pr "error: %s: %s\n" label msg
  in
  let ws =
    let start, base, jopt =
      match journal with
      | None -> (0, Integrate.Workspace.empty, None)
      | Some (j, recovery) ->
          (recovery.Journal.seq, recovery.Journal.workspace, Some j)
    in
    let items =
      List.map (fun s -> `Schema s) schemas
      @ List.map (fun d -> `Directive d) directives
    in
    if start > List.length items then
      fail
        "--resume: the journal records %d operations but the inputs only \
         define %d — did the DDL files or the script change?"
        start (List.length items);
    let ws, _ =
      List.fold_left
        (fun (ws, i) item ->
          if i < start then (ws, i + 1) (* already replayed from the journal *)
          else begin
            let ws =
              match item with
              | `Schema s -> Integrate.Workspace.add_schema s ws
              | `Directive d -> (
                  match Integrate.Script.apply_one d ws with
                  | Ok ws -> ws
                  | Error
                      (Integrate.Script.Object_conflict (_, _, conflict) as e)
                    ->
                      fail "%s%s"
                        (Tui.Canvas.to_string
                           (Tui.Screens.conflict_resolution conflict))
                        (Integrate.Script.apply_error_to_string e)
                  | Error e ->
                      fail "%s" (Integrate.Script.apply_error_to_string e))
            in
            (match jopt with
            | Some j ->
                let op =
                  match item with
                  | `Schema s -> Integrate.Op.Add_schema s
                  | `Directive d -> Integrate.Op.of_directive d
                in
                Journal.append ~after:ws j op
            | None -> ());
            (ws, i + 1)
          end)
        (base, 0) items
    in
    ws
  in
  if analyse then
    List.iter
      (fun issue -> pr "analysis: %s\n" (Integrate.Analysis.to_string issue))
      (Integrate.Analysis.analyse ws);
  (match save_dict with
  | Some path -> Dictionary.save path ws
  | None -> ());
  let result = Integrate.Workspace.integrate ?name ws in
  Buffer.add_string buf (Ddl.Printer.to_string result.Integrate.Result.schema);
  pr "\n%s\n" (Integrate.Result.summary result);
  List.iter (fun w -> pr "warning: %s\n" w) result.Integrate.Result.warnings;
  pr "\n%s"
    (Format.asprintf "%a@." Integrate.Mapping.pp result.Integrate.Result.mapping);
  (match out_ddl with
  | Some path -> Ddl.Printer.save path [ result.Integrate.Result.schema ]
  | None -> ());
  (match out_dot with
  | Some path -> Ecr.Dot.save path result.Integrate.Result.schema
  | None -> ());
  (match save_result with
  | Some path -> Dictionary.save_result path ws result
  | None -> ());
  (* ---- optional: operational data and translated requests ---------- *)
  if
    Option.is_some stores || updates <> [] || queries <> []
    || global_queries <> []
  then begin
    let stores =
      match stores with
      | Some stores -> stores
      | None -> List.map (fun s -> (s, Instance.Store.create s)) schemas
    in
    let merged, report =
      Query.Migrate.run result.Integrate.Result.mapping
        ~integrated:result.Integrate.Result.schema stores
    in
    pr "\nmigrated instance: %d entities in, %d out (%d fused), %d links\n"
      report.Query.Migrate.entities_in report.Query.Migrate.entities_out
      report.Query.Migrate.fused report.Query.Migrate.links_out;
    List.iter
      (fun v -> pr "integrity: %s\n" (Instance.Store.violation_to_string v))
      (Instance.Store.check merged);
    let find_view view_name =
      match
        List.find_opt
          (fun s -> Ecr.Name.to_string (Ecr.Schema.name s) = view_name)
          schemas
      with
      | Some s -> s
      | None -> fail "unknown view %s" view_name
    in
    let merged = ref merged in
    List.iter
      (fun spec ->
        catching (Printf.sprintf "--update %s" spec) @@ fun () ->
        match String.index_opt spec ':' with
        | None -> fail "--update expects \"<view>: <update>\", got %s" spec
        | Some i ->
            let view_name = String.trim (String.sub spec 0 i) in
            let text = String.sub spec (i + 1) (String.length spec - i - 1) in
            let view = find_view view_name in
            let op = Query.Parser.update_of_string text in
            let op' =
              Query.Update.to_integrated result.Integrate.Result.mapping ~view op
            in
            pr "\nview update  : [%s] %s\n" view_name
              (Query.Update.to_string op);
            pr "translated   : %s\n" (Query.Update.to_string op');
            let merged', n = Query.Update.apply op' !merged in
            merged := merged';
            pr "(%d entities affected)\n" n)
      updates;
    let merged = !merged in
    List.iter
      (fun spec ->
        catching (Printf.sprintf "--query %s" spec) @@ fun () ->
        (* "<view>: <query text>" *)
        match String.index_opt spec ':' with
        | None -> fail "--query expects \"<view>: <query>\", got %s" spec
        | Some i ->
            let view_name = String.trim (String.sub spec 0 i) in
            let text = String.sub spec (i + 1) (String.length spec - i - 1) in
            let view = find_view view_name in
            let q = Query.Parser.query_of_string text in
            let q', back =
              Query.Rewrite.to_integrated result.Integrate.Result.mapping
                ~view q
            in
            pr "\nview query   : [%s] %s\n" view_name (Query.Ast.to_string q);
            pr "translated   : %s\n" (Query.Ast.to_string q');
            let rows = back (Query.Eval.run q' merged) in
            List.iter (fun r -> pr "  %s\n" (Query.Eval.row_to_string r)) rows;
            pr "(%d rows)\n" (List.length rows))
      queries;
    List.iter
      (fun text ->
        catching (Printf.sprintf "--global %s" text) @@ fun () ->
        let q = Query.Parser.query_of_string text in
        pr "\nglobal query : %s\n" (Query.Ast.to_string q);
        List.iter
          (fun part ->
            pr "  unfolds to [%s] %s\n"
              (Ecr.Name.to_string part.Query.Rewrite.component)
              (Query.Ast.to_string part.Query.Rewrite.query))
          (Query.Rewrite.to_components result.Integrate.Result.mapping
             ~integrated:result.Integrate.Result.schema q);
        let rows =
          Query.Rewrite.run_global result.Integrate.Result.mapping
            ~integrated:result.Integrate.Result.schema
            ~stores:
              (List.map (fun (s, st) -> (Ecr.Schema.name s, st)) stores)
            q
        in
        List.iter (fun r -> pr "  %s\n" (Query.Eval.row_to_string r)) rows;
        pr "(%d rows)\n" (List.length rows))
      global_queries
  end;
  (match journal with
  | Some (j, _) ->
      (* the session completed: leave one compact snapshot behind *)
      Journal.compact j ws;
      Journal.close j
  | None -> ());
  (Buffer.contents buf, !directive_errors = 0)

let hard_fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let run files scripts out_ddl out_dot name analyse save_dict save_result
    data updates queries global_queries metrics journal_dir resume =
  if List.length scripts > 1 then begin
    let reject what = function
      | Some _ ->
          hard_fail "%s cannot be combined with multiple --script jobs" what
      | None -> ()
    in
    reject "--out" out_ddl;
    reject "--dot" out_dot;
    reject "--save-dict" save_dict;
    reject "--save-result" save_result;
    reject "--metrics" metrics;
    reject "--journal" journal_dir
  end;
  if resume && journal_dir = None then
    hard_fail "--resume requires --journal DIR";
  if metrics <> None then begin
    Obs.enable ();
    Obs.reset ()
  end;
  (* every input is read once, in order, before any session runs;
     the jobs share the stores, which are immutable *)
  let input = function Ok v -> v | Error msg -> hard_fail "%s" msg in
  let schemas = input (Load.schemas files) in
  let jobs_of_scripts =
    match scripts with
    | [] -> [ [] ]
    | paths -> List.map (fun p -> input (Load.script p)) paths
  in
  let stores = Option.map (fun p -> input (Load.data ~schemas p)) data in
  let journal =
    match journal_dir with
    | None -> None
    | Some dir ->
        input (Load.directory dir);
        let path = Filename.concat dir "session.journal" in
        let recovery, j = Journal.open_ path in
        if (not resume) && recovery.Journal.seq > 0 then
          hard_fail
            "journal %s already records %d operation(s): pass --resume to \
             continue that run, or remove the file to start over"
            path recovery.Journal.seq;
        Some (j, recovery)
  in
  let outputs =
    try
      Par.map
        (fun directives ->
          run_session ~schemas ~directives ~out_ddl ~out_dot ~name ~analyse
            ~save_dict ~save_result ~stores ~updates ~queries ~global_queries
            ?journal ())
        jobs_of_scripts
    with Session_error msg -> hard_fail "%s" msg
  in
  List.iteri
    (fun i (output, _) ->
      if i > 0 then print_string "\n========\n\n";
      print_string output)
    outputs;
  (match metrics with
  | None -> ()
  | Some path ->
      let meta =
        [
          ("tool", Obs.Json.String "sit_batch");
          ( "files",
            Obs.Json.List (List.map (fun f -> Obs.Json.String f) files) );
        ]
      in
      (try Obs.Report.write ~meta path
       with Sys_error msg ->
         Printf.eprintf "cannot write metrics report: %s\n" msg;
         exit 1);
      Printf.eprintf "metrics report written to %s\n" path);
  (* bad directives were already reported inline; finish the whole
     script first, then fail the run *)
  if List.exists (fun (_, ok) -> not ok) outputs then exit 1

open Cmdliner

let files =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"ECR DDL files.")

let scripts =
  Arg.(
    value
    & opt_all file []
    & info [ "s"; "script" ] ~docv:"SCRIPT"
        ~doc:
          "Session script (equiv/object/rel/name directives).  Repeatable: \
           each script is an independent integration job over the same \
           schemas; the jobs run across the machine's cores and their \
           outputs are printed in script order.")

let out_ddl =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"OUT" ~doc:"Write the integrated schema as DDL to $(docv).")

let out_dot =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"DOT" ~doc:"Write the integrated schema as Graphviz to $(docv).")

let integrated_name =
  Arg.(
    value
    & opt (some string) None
    & info [ "n"; "name" ] ~docv:"NAME" ~doc:"Name of the integrated schema.")

let analyse =
  let doc = "Report schema-analysis incompatibilities before integrating." in
  Arg.(value & flag & info [ "analyse" ] ~doc)

let save_dict =
  let doc = "Save the workspace as a data dictionary to $(docv)." in
  Arg.(value & opt (some string) None & info [ "save-dict" ] ~docv:"DICT" ~doc)

let data =
  let doc = "Instance data file (see Instance.Loader for the format)." in
  Arg.(value & opt (some file) None & info [ "data" ] ~docv:"DATA" ~doc)

let queries =
  let doc =
    "Run a view query against the migrated instance; format \"<view>: \
     <query>\".  Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "q"; "query" ] ~docv:"QUERY" ~doc)

let global_queries =
  let doc =
    "Run a query against the integrated schema by unfolding it onto the \
     component instances.  Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "g"; "global" ] ~docv:"QUERY" ~doc)

let save_result =
  let doc =
    "Save the full dictionary including the integrated schema and the \
     generated mappings to $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "save-result" ] ~docv:"DICT" ~doc)

let updates =
  let doc =
    "Apply a view update to the migrated instance before querying; format \
     \"<view>: <update>\".  Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "u"; "update" ] ~docv:"UPDATE" ~doc)

let metrics =
  let doc =
    "Enable the observability layer for the whole run and write its JSON \
     report (per-phase spans, counters, query-latency histograms) to $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics" ] ~docv:"REPORT" ~doc)

let journal_dir =
  let doc =
    "Write-ahead journal the session to $(docv)/session.journal (crash \
     safety; single-script runs only).  A killed run continues with \
     $(b,--resume)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR" ~doc)

let resume =
  let doc =
    "Resume the session recorded in the $(b,--journal) directory: replay \
     its longest valid prefix, then continue with the remaining \
     operations.  The DDL files and script must be the ones the journal \
     was started with."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let cmd =
  Cmd.v
    (Cmd.info "sit_batch" ~version:"1.0.0"
       ~doc:"batch schema integration from DDL files and session scripts")
    Term.(
      const run $ files $ scripts $ out_ddl $ out_dot $ integrated_name
      $ analyse $ save_dict $ save_result $ data $ updates $ queries
      $ global_queries $ metrics $ journal_dir $ resume)

let () = exit (Cmd.eval cmd)
