(* sitbench — the repository benchmark.

     sitbench run --workload NAME --seed N --seconds S --trace 0|1
     sitbench trace --workload NAME --seed N --seconds S
     sitbench compare A/ B/

   [run] prints one JSON object as its last line of output: the
   end-to-end metrics BENCHMARK.json lists (--trace 0) or its per-layer
   metrics (--trace 1), and whether every answer was correct.  The full
   result, with every value measured and the run's meta data, is also
   written to --out (default .sitbench/results/).  See README.md. *)

open Bench_e2e
module Json = Obs.Json

let usage () =
  prerr_endline
    "usage: sitbench run --workload NAME --seed N --seconds S --trace 0|1\n\
    \                    [--serve PATH] [--benchmark PATH]\n\
    \                    [--out FILE] [--dir DIR]\n\
    \       sitbench trace (the options of run, without --trace)\n\
    \       sitbench compare A/ B/ [--benchmark PATH]";
  exit 2

(* --key value pairs after the subcommand *)
let options args =
  let rec go acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | [] -> List.rev acc
    | _ -> usage ()
  in
  go [] args

let opt o k default = Option.value ~default (List.assoc_opt k o)

let int_opt o k default =
  match int_of_string_opt (opt o k (string_of_int default)) with
  | Some i -> i
  | None -> usage ()

let meta_common ctx =
  [
    ("nproc", Json.Int Daemon.nproc);
    ("seconds", Json.Float ctx.Protocol.seconds);
    ( "placement",
      Json.String
        (match !Daemon.daemon_cpus with
        | Some cpus -> "generator on CPU 0, busy-polling; daemons on CPUs " ^ cpus
        | None -> "unpinned; generator sleeps in select") );
    ( "daemon_defaults",
      Json.String
        "SIT_JOBS unset (jobs 1), queue 64, cache 128, no deadline, JSON lines; \
         repl.journal fsync on every append" );
  ]

let result_json ~trace (spec : Spec.t) (r : Workloads.result) =
  let selected = Spec.select (if trace then spec.per_layer else spec.end_to_end) r.metrics in
  let final =
    Json.Obj
      [
        ("correct", Json.Bool r.correct);
        ("attempted", Json.Int r.attempted);
        ("failed", Json.Int r.failed);
        ("metrics", Json.Obj (List.map Util.metric_json selected));
      ]
  in
  let full =
    Json.Obj
      [
        ("workload", Json.String r.workload);
        ("seed", Json.Int r.seed);
        ("trace", Json.Bool trace);
        ("correct", Json.Bool r.correct);
        ("attempted", Json.Int r.attempted);
        ("failed", Json.Int r.failed);
        ("metrics", Json.Obj (List.map Util.metric_json selected));
        ("all", Json.Obj (List.map Util.metric_json r.metrics));
        ("meta", Json.Obj r.meta);
        ("notes", Json.List (List.map (fun s -> Json.String s) r.notes));
      ]
  in
  (final, full)

let run_cmd ?(trace = false) o =
  let workload = opt o "--workload" "" in
  let spec_w =
    match Workloads.find workload with
    | Some w -> w
    | None ->
        prerr_endline ("sitbench: unknown workload " ^ workload);
        exit 2
  in
  let seed = int_opt o "--seed" 11 in
  let trace = trace || opt o "--trace" "0" = "1" in
  let bench = Spec.load (opt o "--benchmark" "BENCHMARK.json") in
  let stamp = Printf.sprintf "%s-s%d-t%d-%d" workload seed (Bool.to_int trace) (Unix.getpid ()) in
  let dir = opt o "--dir" (Filename.concat ".sitbench" stamp) in
  let ctx =
    {
      Protocol.serve = opt o "--serve" "_build/default/bin/sit_serve.exe";
      dir;
      seed;
      seconds = float_of_int (int_opt o "--seconds" 20);
      instances = 5;
      metrics = false;
      spin = Daemon.place ();
    }
  in
  if not (Sys.file_exists ctx.serve) then Util.fail "no sit_serve at %s" ctx.serve;
  Util.mkdir_p dir;
  let inputs = spec_w.prepare ctx in
  let r = if trace then Trace.run ctx spec_w inputs else Workloads.run ctx spec_w inputs in
  let r = { r with meta = meta_common ctx @ r.meta } in
  let final, full = result_json ~trace bench r in
  let out = opt o "--out" (Filename.concat ".sitbench/results" (stamp ^ ".json")) in
  Util.mkdir_p (Filename.dirname out);
  Util.write_file out (Json.to_string ~indent:2 full ^ "\n");
  List.iter (fun n -> prerr_endline ("sitbench: " ^ n)) r.notes;
  Util.rm_rf dir;
  print_endline (Json.to_string final);
  if not r.correct then exit 1

let () =
  let handle f =
    try f () with
    | Util.Bench_error e ->
        prerr_endline ("sitbench: " ^ e);
        exit 1
  in
  List.iter
    (fun s -> try Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)) with _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> handle (fun () -> run_cmd (options rest))
  | "trace" :: rest -> handle (fun () -> run_cmd ~trace:true (options rest))
  | "compare" :: a :: b :: rest ->
      handle (fun () ->
          let o = options rest in
          exit (Compare.run ~spec:(Spec.load (opt o "--benchmark" "BENCHMARK.json")) a b))
  | _ -> usage ()
