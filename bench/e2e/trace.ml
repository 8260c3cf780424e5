(* sitbench trace: the per-layer numbers.  Three parts, one workload:
   a run against plain daemons (the untraced values, and the baseline of
   [trace.overhead_frac]), a run against daemons started with
   --metrics, polled at 10 Hz (daemon histograms, replication and
   compaction counters, the client round trip at a low rate), and the
   in-process layer replay of {!Layers}. *)

let find name metrics =
  match List.find_opt (fun (n, _, _) -> n = name) metrics with
  | Some (_, v, _) -> v
  | None -> nan

(* Per-layer metrics a workload does not exercise (no writes, no
   journal, no fresh follower) read 0 there. *)
let not_applicable =
  [
    ("write_p50_ms", "ms");
    ("write_p99_ms", "ms");
    ("disk_mb", "MiB");
    ("restart_s", "s");
    ("catchup_s", "s");
    ("replicate.snapshot_installs", "count");
  ]

let run (ctx : Protocol.ctx) spec inputs =
  let base = Workloads.run { ctx with seconds = 0.40 *. ctx.seconds } spec inputs in
  let traced = Workloads.run { ctx with seconds = 0.45 *. ctx.seconds; metrics = true } spec inputs in
  let layers = Layers.measure ctx spec inputs in
  let failed = traced.failed + base.failed + List.length layers.notes in
  let attempted = traced.attempted + base.attempted in
  (* where both runs measure a metric, the untraced run's value *)
  let measured =
    [ ("error_frac", float_of_int failed /. float_of_int (max 1 attempted), "ratio") ]
    @ base.metrics @ traced.metrics @ layers.metrics
    @ [
        ( "transport.self_us",
          find "client.rtt_us" traced.metrics -. find "server.exec_read_us" layers.metrics,
          "us" );
        ( "trace.overhead_frac",
          (find "read_p50_ms" traced.metrics /. find "read_p50_ms" base.metrics) -. 1.,
          "ratio" );
      ]
    @ List.map (fun (n, u) -> (n, 0., u)) not_applicable
  in
  let metrics =
    List.rev
      (List.fold_left
         (fun acc ((n, _, _) as m) -> if List.exists (fun (k, _, _) -> k = n) acc then acc else m :: acc)
         [] measured)
  in
  {
    traced with
    correct = failed = 0;
    attempted;
    failed;
    metrics;
    notes = base.notes @ traced.notes @ layers.notes @ layers.warnings;
  }
