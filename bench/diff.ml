(* bench-diff: compare lib/obs metrics reports (BENCH_*.json) of two
   commits and flag span-time regressions beyond a threshold, so a PR
   can state its perf delta mechanically (see docs/PERFORMANCE.md).

   Usage:
     dune exec bench/diff.exe -- OLD.json NEW.json \
         [--threshold 0.25] [--min-seconds 0.0005]
     dune exec bench/diff.exe -- OLD1.json OLD2.json ... -- NEW1.json ...

   Files before a second `--` are the old side, files after it the new
   side; several reports per side are runs of one commit.  Span paths
   (slash-joined names down the tree) present on both sides are
   compared on the median of their inclusive times.  A path is a
   regression when its new median exceeds the old by more than
   THRESHOLD (relative) and the old median is at least MIN_SECONDS
   (micro-spans are noise).  With several old reports the bar rises to
   twice the old side's spread (IQR / median) when that is wider: a
   change inside it reads "unresolved", since the old runs alone vary
   that much.  One report per side has no spread, so the rule is the
   threshold alone.  Counters are compared informationally.  Exit
   status: 0 when no span regressed, 1 otherwise, 2 on usage/parse
   errors. *)

let usage () =
  prerr_endline
    "usage: bench/diff.exe OLD.json NEW.json [--threshold R] [--min-seconds S]\n\
    \       bench/diff.exe OLD.json... -- NEW.json... [--threshold R] [--min-seconds S]";
  exit 2

let read_file path =
  let ic = try open_in_bin path with Sys_error e -> prerr_endline e; exit 2 in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse path =
  match Obs.Json.of_string (read_file path) with
  | Ok v -> v
  | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 2

(* --- span tree flattening ------------------------------------------ *)

type span = { count : int; total_s : float }

let rec flatten prefix json acc =
  match json with
  | Obs.Json.Obj _ ->
      let str k = Obs.Json.member k json in
      let name =
        match str "name" with Some (Obs.Json.String s) -> s | _ -> "?"
      in
      let num k =
        match str k with
        | Some (Obs.Json.Float f) -> f
        | Some (Obs.Json.Int i) -> float_of_int i
        | _ -> 0.0
      in
      let path = if prefix = "" then name else prefix ^ "/" ^ name in
      let acc =
        (path, { count = int_of_float (num "count"); total_s = num "total_s" })
        :: acc
      in
      (match str "children" with
      | Some (Obs.Json.List children) ->
          List.fold_left (fun acc c -> flatten path c acc) acc children
      | _ -> acc)
  | _ -> acc

let spans_of report =
  match Obs.Json.member "spans" report with
  | Some (Obs.Json.List roots) ->
      List.fold_left (fun acc r -> flatten "" r acc) [] roots |> List.rev
  | _ -> []

let counters_of report =
  match Obs.Json.member "counters" report with
  | Some (Obs.Json.Obj fields) ->
      List.filter_map
        (fun (k, v) ->
          match v with Obs.Json.Int i -> Some (k, i) | _ -> None)
        fields
  | _ -> []

(* ------------------------------------------------------------------ *)

module Stats = Bench_e2e.Stats

(* Per path, in first-seen order, the values of every report that has
   it. *)
let gather reports =
  let values = Hashtbl.create 64 and order = ref [] in
  List.iter
    (List.iter (fun (path, v) ->
         match Hashtbl.find_opt values path with
         | Some vs -> Hashtbl.replace values path (v :: vs)
         | None ->
             order := path :: !order;
             Hashtbl.replace values path [ v ]))
    reports;
  List.rev_map (fun path -> (path, Array.of_list (Hashtbl.find values path))) !order

let () =
  let threshold = ref 0.25 and min_seconds = ref 0.0005 in
  let positional = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        threshold := float_of_string v;
        parse_args rest
    | "--min-seconds" :: v :: rest ->
        min_seconds := float_of_string v;
        parse_args rest
    | ("--threshold" | "--min-seconds") :: [] -> usage ()
    | x :: rest ->
        positional := x :: !positional;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let rec split olds = function
    | "--" :: news -> (List.rev olds, news)
    | x :: rest -> split (x :: olds) rest
    | [] -> ([], [])
  in
  let old_paths, new_paths =
    match List.rev !positional with
    | [ a; b ] -> ([ a ], [ b ])
    | args -> (
        match split [] args with
        | (_ :: _ as olds), (_ :: _ as news) when not (List.mem "--" news) -> (olds, news)
        | _ -> usage ())
  in
  let old_reports = List.map parse old_paths
  and new_reports = List.map parse new_paths in
  let old_spans = List.map spans_of old_reports
  and new_spans = List.map spans_of new_reports in
  let totals = List.map (List.map (fun (path, s) -> (path, s.total_s))) in
  let old_by_path = gather (totals old_spans)
  and new_by_path = gather (totals new_spans) in
  let label = String.concat ", " in
  Printf.printf "bench-diff: %s -> %s (threshold %+.0f%%, floor %gs)\n"
    (label old_paths) (label new_paths) (100.0 *. !threshold) !min_seconds;
  if List.length old_paths > 1 || List.length new_paths > 1 then
    Printf.printf
      "medians of %d old and %d new report(s); a change within 2 x the old \
       IQR/median reads unresolved\n"
      (List.length old_paths) (List.length new_paths);
  print_newline ();
  Printf.printf "%-58s %12s %12s %9s\n" "span path" "old s" "new s" "delta";
  (* Spans present on only one side are reported explicitly as
     removed/new (a renamed phase shows up as one of each) and are
     never regressions: there is nothing to compare.  A span with zero
     old time has no meaningful relative delta either. *)
  let regressions = ref 0 and unresolved = ref 0 and removed = ref 0 and added = ref 0 in
  List.iter
    (fun (path, o) ->
      let old_s = Stats.median o in
      match List.assoc_opt path new_by_path with
      | None ->
          incr removed;
          Printf.printf "%-58s %12.6f %12s %9s\n" path old_s "-" "removed"
      | Some n ->
          let new_s = Stats.median n in
          if old_s > 0.0 then begin
            let delta = (new_s -. old_s) /. old_s in
            let over = old_s >= !min_seconds && delta > !threshold in
            let spread = 2.0 *. Stats.rel_iqr o in
            let flag =
              if not over then ""
              else if delta > spread then begin
                incr regressions;
                "  << REGRESSION"
              end
              else begin
                incr unresolved;
                Printf.sprintf "  unresolved (2 x old spread %+.0f%%)" (100.0 *. spread)
              end
            in
            Printf.printf "%-58s %12.6f %12.6f %+8.1f%%%s\n" path old_s new_s
              (100.0 *. delta) flag
          end
          else Printf.printf "%-58s %12.6f %12.6f %9s\n" path old_s new_s "n/a")
    old_by_path;
  List.iter
    (fun (path, n) ->
      if not (List.mem_assoc path old_by_path) then begin
        incr added;
        Printf.printf "%-58s %12s %12.6f %9s\n" path "-" (Stats.median n) "new"
      end)
    new_by_path;
  if !added > 0 || !removed > 0 then
    Printf.printf
      "\n%d span path(s) only in %s (new), %d only in %s (removed)\n" !added
      (label new_paths) !removed (label old_paths);
  (* a counter that differs between reports of one side shows its range *)
  let counters reports =
    let by_name = gather (List.map counters_of reports) in
    fun name ->
      match List.assoc_opt name by_name with
      | None -> "-"
      | Some vs ->
          let lo = Array.fold_left Int.min max_int vs
          and hi = Array.fold_left Int.max min_int vs in
          if lo = hi then string_of_int lo else Printf.sprintf "%d..%d" lo hi
  in
  let old_counter = counters old_reports and new_counter = counters new_reports in
  Printf.printf "\n%-58s %12s %12s\n" "counter" "old" "new";
  let names =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map fst (counters_of r)) (old_reports @ new_reports))
  in
  List.iter
    (fun name ->
      Printf.printf "%-58s %12s %12s\n" name (old_counter name) (new_counter name))
    names;
  if !unresolved > 0 then
    Printf.printf "\n%d span path(s) unresolved: past %+.0f%% but within 2 x the old spread\n"
      !unresolved (100.0 *. !threshold);
  if !regressions > 0 then begin
    Printf.printf "\n%d span path(s) regressed beyond %+.0f%%\n" !regressions
      (100.0 *. !threshold);
    exit 1
  end
  else print_endline "\nno span regressions"
