(* The smoke test: every workload of BENCHMARK.json for about a second
   at its lowest ladder rung, one daemon instance, every correctness
   check on; its result must carry each end-to-end metric the file
   lists, in the listed unit.  One traced run (view-point) does the same
   for the per-layer list.

     smoke --serve PATH --benchmark PATH *)

open Bench_e2e

let () =
  let arg k =
    let rec find = function
      | k' :: v :: _ when k' = k -> v
      | _ :: rest -> find rest
      | [] -> failwith ("smoke: missing " ^ k)
    in
    find (Array.to_list Sys.argv)
  in
  let bench = Spec.load (arg "--benchmark") in
  let dir = "smoke.tmp" in
  let check ~trace (spec : Protocol.spec) =
    let lowest = List.hd spec.ladder in
    let spec =
      {
        spec with
        read_rate = spec.read_rate *. lowest;
        write_rate = spec.write_rate *. lowest;
        ladder = [ 1.0 ];
      }
    in
    let ctx =
      {
        Protocol.serve = arg "--serve";
        dir = Filename.concat dir spec.name;
        seed = 11;
        seconds = 1.;
        instances = 1;
        metrics = false;
        spin = false;
      }
    in
    Util.mkdir_p ctx.dir;
    let inputs = spec.prepare ctx in
    let t0 = Util.now () in
    let r = if trace then Trace.run ctx spec inputs else Workloads.run ctx spec inputs in
    if not r.correct then
      Util.fail "%s: %d of %d operations failed: %s" spec.name r.failed r.attempted
        (String.concat "; " r.notes);
    let listed = Spec.select (if trace then bench.per_layer else bench.end_to_end) r.metrics in
    Printf.printf "%-17s %-6s %d ops, %d metrics, %.1f s\n%!" spec.name
      (if trace then "trace" else "run") r.attempted (List.length listed) (Util.now () -. t0)
  in
  Fun.protect
    ~finally:(fun () -> Util.rm_rf dir)
    (fun () ->
      try
        List.iter
          (fun name ->
            match Workloads.find name with
            | Some spec -> check ~trace:false spec
            | None -> Util.fail "BENCHMARK.json lists an unknown workload %s" name)
          bench.workloads;
        check ~trace:true Workloads.view_point
      with Util.Bench_error e ->
        prerr_endline ("smoke: " ^ e);
        exit 1)
