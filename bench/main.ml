(* The benchmark harness: regenerates every figure and screen of the
   paper (experiments E1-E26, printed as sections), times the
   computational kernels with Bechamel, and dumps the lib/obs metrics
   report of an instrumented pipeline run.

   Usage:
     dune exec bench/main.exe              runs everything
     dune exec bench/main.exe -- e6 e7     runs selected experiments
     dune exec bench/main.exe -- timings   Bechamel + the metrics report
     dune exec bench/main.exe -- metrics   only the metrics report

   The metrics report (per-phase spans, counters, query-latency
   histograms — see docs/ARCHITECTURE.md and docs/PERFORMANCE.md) is
   printed to stdout and saved to BENCH_pr16.json; override the path
   with --out FILE.  Compare two reports mechanically with
   `dune exec bench/diff.exe -- OLD.json NEW.json` (make bench-diff). *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Bechamel kernels: one per computational stage of the pipeline.      *)

let kernel_workloads =
  lazy
    (List.map
       (fun concepts ->
         let w =
           Workload.Generator.generate
             {
               Workload.Generator.default_params with
               seed = 9000 + concepts;
               concepts;
               population = Int.max 150 (concepts * 10);
             }
         in
         (concepts, w))
       [ 10; 20; 40 ])

let closure_test (concepts, w) =
  Test.make
    ~name:(Printf.sprintf "closure/%d-concepts" concepts)
    (Staged.stage (fun () ->
         let schemas = w.Workload.Generator.schemas in
         let eq =
           List.fold_left
             (fun eq s -> Integrate.Equivalence.register_schema s eq)
             Integrate.Equivalence.empty schemas
         in
         ignore eq;
         (* seeding a matrix performs the structural closure *)
         ignore (Integrate.Assertions.create schemas)))

let ranking_test (concepts, w) =
  let schemas = w.Workload.Generator.schemas in
  let s1 = List.nth schemas 0 and s2 = List.nth schemas 1 in
  let eq =
    Integrate.Protocol.collect_equivalences
      { Integrate.Protocol.defaults with exhaustive_attribute_pairs = true }
      s1 s2 w.Workload.Generator.oracle Integrate.Equivalence.empty
  in
  Test.make
    ~name:(Printf.sprintf "ranking/%d-concepts" concepts)
    (Staged.stage (fun () ->
         ignore (Integrate.Similarity.ranked_object_pairs s1 s2 eq)))

let ranking_cached_test (concepts, w) =
  let schemas = w.Workload.Generator.schemas in
  let s1 = List.nth schemas 0 and s2 = List.nth schemas 1 in
  let eq =
    Integrate.Protocol.collect_equivalences
      { Integrate.Protocol.defaults with exhaustive_attribute_pairs = true }
      s1 s2 w.Workload.Generator.oracle Integrate.Equivalence.empty
  in
  let index = Integrate.Acs_index.build eq in
  Test.make
    ~name:(Printf.sprintf "ranking-cached-index/%d-concepts" concepts)
    (Staged.stage (fun () ->
         ignore (Integrate.Similarity.ranked_object_pairs_with index s1 s2)))

let pipeline_test (concepts, w) =
  Test.make
    ~name:(Printf.sprintf "protocol+integrate/%d-concepts" concepts)
    (Staged.stage (fun () ->
         ignore
           (Integrate.Protocol.run w.Workload.Generator.schemas
              w.Workload.Generator.oracle)))

let rewrite_test (_concepts, w) =
  let result, _ =
    Integrate.Protocol.run w.Workload.Generator.schemas
      w.Workload.Generator.oracle
  in
  let s = List.hd w.Workload.Generator.schemas in
  let cls = List.hd (Ecr.Schema.objects s) in
  let q = Query.Ast.query (Ecr.Name.to_string cls.Ecr.Object_class.name) in
  Test.make ~name:"rewrite/view-to-integrated"
    (Staged.stage (fun () ->
         ignore
           (Query.Rewrite.to_integrated result.Integrate.Result.mapping ~view:s q)))

let paper_test =
  Test.make ~name:"paper/sc1+sc2-end-to-end"
    (Staged.stage (fun () -> ignore (Workload.Paper.integrate_sc1_sc2 ())))

let run_timings () =
  Experiments.section "TIMINGS" "Bechamel micro-benchmarks (ns per run)";
  let tests =
    let sized = Lazy.force kernel_workloads in
    [ paper_test ]
    @ List.map closure_test sized
    @ List.map ranking_test sized
    @ List.map ranking_cached_test sized
    @ List.map pipeline_test sized
    @ [ rewrite_test (List.hd sized) ]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Printf.printf "\n%-36s %16s %10s\n" "kernel" "ns/run" "r^2";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> e
            | _ -> nan
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> r
            | None -> nan
          in
          Printf.printf "%-36s %16.0f %10.4f\n" name estimate r2)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* The metrics report: one instrumented end-to-end run — the paper's
   worked example, a schema-analysis pass, and a synthetic workload
   driven through protocol, integration and the query layer — exported
   as JSON by lib/obs.  This is the repo's perf trajectory artefact:
   each PR that touches a hot path regenerates it and compares. *)

let default_metrics_out = "BENCH_pr16.json"

(* One journaled replay of the paper's session inside the metrics
   window, so the journal.* counters and the fsync histogram appear in
   the report without perturbing the protocol/query span totals. *)
let journal_session () =
  let path = Filename.temp_file "sit_metrics" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let _, j = Journal.open_ path in
      let ops =
        [
          Integrate.Op.Add_schema Workload.Paper.sc1;
          Integrate.Op.Add_schema Workload.Paper.sc2;
        ]
        @ List.map
            (fun (a, b) -> Integrate.Op.Declare_equivalent (a, b))
            Workload.Paper.equivalences
        @ List.map
            (fun (a, c, b) -> Integrate.Op.Assert_object (a, c, b))
            Workload.Paper.object_assertions
        @ List.map
            (fun (a, c, b) -> Integrate.Op.Assert_relationship (a, c, b))
            Workload.Paper.relationship_assertions
      in
      let ws = ref Integrate.Workspace.empty in
      List.iter
        (fun op ->
          ws := Integrate.Op.apply op !ws;
          Journal.append ~after:!ws j op)
        ops;
      Journal.checkpoint j !ws;
      let r = Journal.recover path in
      Journal.compact j r.Journal.workspace;
      Journal.close j)

let run_metrics ?(out = default_metrics_out) () =
  Experiments.section "METRICS" "instrumented pipeline run (lib/obs report)";
  Obs.enable ();
  Obs.reset ();
  (* the paper's worked example, end to end *)
  ignore (Workload.Paper.integrate_sc1_sc2 ());
  (* Phase-2/3 analysis over the paper schemas *)
  let ws =
    List.fold_left
      (fun ws (a, b) -> Integrate.Workspace.declare_equivalent a b ws)
      (Integrate.Workspace.add_schema Workload.Paper.sc2
         (Integrate.Workspace.add_schema Workload.Paper.sc1
            Integrate.Workspace.empty))
      Workload.Paper.equivalences
  in
  ignore (Integrate.Analysis.analyse ws);
  (* a synthetic workload: full protocol, then queries on instances *)
  let params =
    {
      Workload.Generator.default_params with
      seed = 4242;
      concepts = 20;
      population = 200;
    }
  in
  let w = Workload.Generator.generate params in
  let result, _stats =
    Integrate.Protocol.run w.Workload.Generator.schemas
      w.Workload.Generator.oracle
  in
  let stores = Workload.Generator.populate w in
  (* per-view queries, both evaluated locally and rewritten *)
  List.iter
    (fun (s, store) ->
      List.iter
        (fun oc ->
          let q =
            Query.Ast.query (Ecr.Name.to_string oc.Ecr.Object_class.name)
          in
          ignore (Query.Eval.run q store);
          ignore
            (Query.Rewrite.to_integrated result.Integrate.Result.mapping
               ~view:s q))
        (Ecr.Schema.objects s))
    stores;
  (* global queries unfolded onto the component stores *)
  let named_stores =
    List.map (fun (s, st) -> (Ecr.Schema.name s, st)) stores
  in
  List.iter
    (fun oc ->
      let q = Query.Ast.query (Ecr.Name.to_string oc.Ecr.Object_class.name) in
      ignore
        (Query.Rewrite.run_global result.Integrate.Result.mapping
           ~integrated:result.Integrate.Result.schema ~stores:named_stores q))
    (Ecr.Schema.objects result.Integrate.Result.schema);
  (* the journaled session: feeds journal.appends/fsyncs/... *)
  journal_session ();
  (* close the collection window first: the overhead measurement runs
     the protocol several more times, which would otherwise double the
     span totals (report generation reads the registries regardless of
     the enabled flag) *)
  Obs.disable ();
  let journal_overhead =
    let base, buffered, _, _ = Experiments.e20_overhead () Journal.Never in
    [
      ("baseline_s", Obs.Json.Float base);
      ("buffered_s", Obs.Json.Float buffered);
      ("overhead_frac", Obs.Json.Float ((buffered -. base) /. base));
    ]
  in
  let serving =
    (* the E21 serving sweep (throughput/latency per cache setting),
       run outside the collection window like the overhead probe *)
    Obs.Json.List
      (List.map
         (fun p ->
           Obs.Json.Obj
             [
               ("cache", Obs.Json.Int p.Experiments.sv_cache);
               ("sent", Obs.Json.Int p.Experiments.sv_sent);
               ("ok", Obs.Json.Int p.Experiments.sv_ok);
               ("cache_hits", Obs.Json.Int p.Experiments.sv_hits);
               ("req_per_s", Obs.Json.Float p.Experiments.sv_req_s);
               ("mean_ms", Obs.Json.Float p.Experiments.sv_mean_ms);
             ])
         (Experiments.e21_sweep ~requests:1000 ()))
  in
  let views =
    (* the E22 materialized-view sweep (recompute vs lazy view per
       update share), also outside the collection window *)
    Obs.Json.List
      (List.map
         (fun p ->
           Obs.Json.Obj
             [
               ("update_share", Obs.Json.Int p.Experiments.mv_share);
               ("reads", Obs.Json.Int p.Experiments.mv_reads);
               ("updates", Obs.Json.Int p.Experiments.mv_updates);
               ("eval_ms", Obs.Json.Float p.Experiments.mv_eval_ms);
               ("view_ms", Obs.Json.Float p.Experiments.mv_view_ms);
               ("speedup", Obs.Json.Float p.Experiments.mv_speedup);
             ])
         (Experiments.e22_sweep ()))
  in
  let dataplane =
    (* the E23 kernel sweep (string-keyed oracle vs flat kernel),
       also outside the collection window *)
    Obs.Json.Obj
      [
        ( "kernels",
          Obs.Json.List
            (List.map
               (fun p ->
                 Obs.Json.Obj
                   [
                     ("concepts", Obs.Json.Int p.Experiments.dpk_concepts);
                     ("owners", Obs.Json.Int p.Experiments.dpk_owners);
                     ("pairs", Obs.Json.Int p.Experiments.dpk_pairs);
                     ("oracle_ms", Obs.Json.Float p.Experiments.dpk_oracle_ms);
                     ("flat_ms", Obs.Json.Float p.Experiments.dpk_flat_ms);
                     ("speedup", Obs.Json.Float p.Experiments.dpk_speedup);
                   ])
               (Experiments.e23_kernels ())) );
      ]
  in
  let scenarios =
    (* the E24 scenario-engine sweep (generation cost and offline
       replay throughput), also outside the collection window *)
    Obs.Json.List
      (List.map
         (fun p ->
           Obs.Json.Obj
             [
               ("seed", Obs.Json.Int p.Experiments.scn_seed);
               ("schemas", Obs.Json.Int p.Experiments.scn_schemas);
               ("directives", Obs.Json.Int p.Experiments.scn_directives);
               ("ops", Obs.Json.Int p.Experiments.scn_ops);
               ("phases", Obs.Json.Int p.Experiments.scn_phases);
               ("gen_ms", Obs.Json.Float p.Experiments.scn_gen_ms);
               ("setup_ms", Obs.Json.Float p.Experiments.scn_setup_ms);
               ("replay_ms", Obs.Json.Float p.Experiments.scn_replay_ms);
               ("ops_per_s", Obs.Json.Float p.Experiments.scn_ops_s);
             ])
         (Experiments.e24_scenarios ()))
  in
  let replication =
    (* the E25 replication sweeps (journal-streaming write overhead per
       durability level, client failover latency percentiles), also
       outside the collection window *)
    Obs.Json.Obj
      [
        ( "overhead",
          Obs.Json.List
            (List.map
               (fun p ->
                 Obs.Json.Obj
                   [
                     ("config", Obs.Json.String p.Experiments.rl_label);
                     ("followers", Obs.Json.Int p.Experiments.rl_followers);
                     ("ack_replicas", Obs.Json.Int p.Experiments.rl_ack);
                     ("writes", Obs.Json.Int p.Experiments.rl_writes);
                     ("req_per_s", Obs.Json.Float p.Experiments.rl_req_s);
                     ("mean_ms", Obs.Json.Float p.Experiments.rl_mean_ms);
                     ("catchup_ms", Obs.Json.Float p.Experiments.rl_catchup_ms);
                   ])
               (Experiments.e25_replication ~writes:160 ())) );
        ( "failover",
          Obs.Json.List
            (List.map
               (fun p ->
                 Obs.Json.Obj
                   [
                     ("path", Obs.Json.String p.Experiments.fo_label);
                     ("reps", Obs.Json.Int p.Experiments.fo_reps);
                     ("p50_ms", Obs.Json.Float p.Experiments.fo_p50_ms);
                     ("p95_ms", Obs.Json.Float p.Experiments.fo_p95_ms);
                     ("max_ms", Obs.Json.Float p.Experiments.fo_max_ms);
                   ])
               (Experiments.e25_failover ())) );
      ]
  in
  let compaction =
    (* the E26 compaction sweep (snapshot cost, restart from snapshot +
       suffix, snapshot-transfer catch-up), also outside the window *)
    Obs.Json.List
      (List.map
         (fun p ->
           Obs.Json.Obj
             [
               ("config", Obs.Json.String p.Experiments.cp_label);
               ("writes", Obs.Json.Int p.Experiments.cp_writes);
               ("base_seq", Obs.Json.Int p.Experiments.cp_base_seq);
               ("compact_ms", Obs.Json.Float p.Experiments.cp_compact_ms);
               ("restart_ms", Obs.Json.Float p.Experiments.cp_restart_ms);
               ("catchup_ms", Obs.Json.Float p.Experiments.cp_catchup_ms);
               ("snapshot_installs", Obs.Json.Int p.Experiments.cp_installs);
             ])
         (Experiments.e26_compaction ~writes:160 ()))
  in
  let meta =
    [
      ("tool", Obs.Json.String "sit");
      ("report", Obs.Json.String "bench-metrics");
      ("cores", Obs.Json.Int (Stdlib.Domain.recommended_domain_count ()));
      ("journal_overhead", Obs.Json.Obj journal_overhead);
      ("serving", serving);
      ("views", views);
      ("dataplane", dataplane);
      ("scenarios", scenarios);
      ("replication", replication);
      ("compaction", compaction);
      ( "workload",
        Obs.Json.Obj
          [
            ("schemas", Obs.Json.Int params.Workload.Generator.schemas);
            ("concepts", Obs.Json.Int params.Workload.Generator.concepts);
            ("population", Obs.Json.Int params.Workload.Generator.population);
            ("seed", Obs.Json.Int params.Workload.Generator.seed);
          ] );
    ]
  in
  print_endline (Obs.Report.to_string ~meta ());
  Obs.Report.write ~meta out;
  Printf.printf "metrics report written to %s\n" out

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let out, args =
    let rec split acc = function
      | [ "--out" ] ->
          prerr_endline "--out requires a file argument";
          exit 2
      | "--out" :: path :: rest -> (Some path, List.rev_append acc rest)
      | x :: rest -> split (x :: acc) rest
      | [] -> (None, List.rev acc)
    in
    split [] args
  in
  match args with
  | [] ->
      List.iter (fun e -> e ()) Experiments.all;
      run_timings ();
      run_metrics ?out ()
  | ids ->
      List.iter
        (fun id ->
          match List.assoc_opt (String.lowercase_ascii id) Experiments.by_id with
          | Some e -> e ()
          | None when id = "timings" ->
              run_timings ();
              run_metrics ?out ()
          | None when id = "metrics" -> run_metrics ?out ()
          | None ->
              Printf.eprintf "unknown experiment %s (e1..e26, timings, metrics)\n"
                id;
              exit 2)
        ids
