(* sit — the Schema Integration Tool, interactively.

   Reproduces the menu/form tool of Sheth, Larson, Cornelio & Navathe
   (ICDE 1988).  Component schemas can be pre-loaded from ECR DDL files
   given on the command line; everything else happens through the
   screens, exactly as in the paper: schema collection, attribute
   equivalence specification, assertion specification with conflict
   resolution, and browsing of the integrated schema. *)

(* An input that cannot be loaded stops the tool with its message. *)
let input = function
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit 2

(* What [file] adds to a workspace: a data dictionary (schemas plus a
   recorded session) merges in, DDL adds its schemas. *)
let load_file file =
  input
    (if Filename.check_suffix file ".sitd" then
       Result.map (fun d ws -> Dictionary.merge ws d) (Load.dictionary file)
     else Result.map Integrate.Workspace.add_schemas (Load.schemas [ file ]))

(* With --journal, the whole session is write-ahead logged: a snapshot
   of the starting workspace (recovered session plus any files given on
   the command line), then one record per screen mutation.  On the next
   start the journal offers to resume; recovery replays the longest
   valid prefix, so a crash — even mid-write — costs at most the last
   keystroke.  See lib/journal and docs/ROBUSTNESS.md. *)
let run files save analyse journal_path =
  Option.iter (fun path -> input (Load.output path)) save;
  let adds = List.map load_file files in
  let load ws = List.fold_left (fun ws add -> add ws) ws adds in
  let workspace = load Integrate.Workspace.empty in
  let workspace, journal =
    match journal_path with
    | None -> (workspace, None)
    | Some path ->
        let recovery, j = input (Load.read (fun p -> Journal.open_ p) path) in
        let workspace =
          if recovery.Journal.seq > 0 then begin
            Printf.printf
              "journal %s holds a previous session (%d operation(s)%s).\n\
               Resume it? [y/N] "
              path recovery.Journal.seq
              (if recovery.Journal.truncated_bytes > 0 then
                 Printf.sprintf ", %d torn byte(s) discarded"
                   recovery.Journal.truncated_bytes
               else "");
            flush stdout;
            let answer = try input_line stdin with End_of_file -> "" in
            if String.lowercase_ascii (String.trim answer) = "y" then
              (* recovered session first, command-line files on top *)
              load recovery.Journal.workspace
            else begin
              Journal.reset j;
              workspace
            end
          end
          else workspace
        in
        (* baseline snapshot: the journal is self-contained from here *)
        Journal.checkpoint j workspace;
        (workspace, Some j)
  in
  if analyse then
    List.iter
      (fun issue ->
        Printf.printf "analysis: %s\n" (Integrate.Analysis.to_string issue))
      (Integrate.Analysis.analyse workspace);
  let record =
    match journal with
    | None -> fun _ _ -> ()
    | Some j -> fun op after -> Journal.append ~after j op
  in
  let final = Tui.Session.run ~workspace ~record Tui.Session.stdio in
  (match journal with
  | None -> ()
  | Some j ->
      (* a clean exit leaves one compact snapshot behind *)
      Journal.compact j final;
      Journal.close j;
      Printf.printf "session journaled to %s\n" (Journal.path j));
  match save with
  | Some path ->
      Dictionary.save path final;
      Printf.printf "session saved to %s\n" path
  | None -> ()

open Cmdliner

let files =
  let doc =
    "ECR DDL files (or .sitd data dictionaries) to pre-load into the \
     workspace."
  in
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)

let save =
  let doc = "Save the final workspace as a data dictionary to $(docv)." in
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)

let analyse =
  let doc = "Report schema-analysis incompatibilities before starting." in
  Arg.(value & flag & info [ "analyse" ] ~doc)

let journal =
  let doc =
    "Write-ahead journal every workspace mutation to $(docv) (crash \
     safety).  If $(docv) already holds a session, offer to resume it."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "interactive schema and view integration tool (ECR model)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "An interactive tool that assists database designers and \
         administrators (DDAs) in integrating component schemas expressed \
         in the Entity-Category-Relationship model into a single \
         integrated schema, following the four-phase methodology of \
         Sheth, Larson, Cornelio and Navathe (ICDE 1988): schema \
         collection, schema analysis (attribute equivalences), assertion \
         specification with automatic derivation and conflict detection, \
         and integration with generated mappings.";
    ]
  in
  Cmd.v
    (Cmd.info "sit" ~version:"1.0.0" ~doc ~man)
    Term.(const run $ files $ save $ analyse $ journal)

let () = exit (Cmd.eval cmd)
