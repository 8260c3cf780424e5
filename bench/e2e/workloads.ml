(* The four workloads and the end-to-end run that measures one of them. *)

open Protocol
module L = Loadgen

let seeded ctx salt = (ctx.seed * 1_000_003) + salt

let reads_exact files setup_frames deck =
  with_reference files setup_frames (fun t -> Array.map (exec_ok t) deck)

let paper_inputs ctx ~with_keys =
  let paper = Inputs.paper_population ~seed:ctx.seed ~with_keys in
  (paper, Inputs.write_paper_files ~dir:ctx.dir ~seed:ctx.seed paper)

let view_point =
  {
    name = "view-point";
    post = Reads_only;
    read_rate = 8000.;
    write_rate = 0.;
    ladder = [ 0.5; 1.0; 1.5; 2.0; 2.5 ];
    write_limit_ms = nan;
    leader_flags = [];
    followers = 0;
    prepare =
      (fun ctx ->
        let paper, files = paper_inputs ctx ~with_keys:false in
        let deck = Inputs.view_point_deck ~seed:ctx.seed paper in
        { files; setup_frames = []; deck; expect = Some (reads_exact files [] deck); paper = None });
  }

let federation_read =
  {
    name = "federation-read";
    post = Reads_only;
    read_rate = 1500.;
    write_rate = 0.;
    ladder = [ 0.5; 1.0; 1.5; 2.0; 2.5 ];
    write_limit_ms = nan;
    leader_flags = [];
    followers = 0;
    prepare =
      (fun ctx ->
        let fed = Inputs.federation ~dir:ctx.dir in
        {
          files = fed.fed_files;
          setup_frames = fed.define;
          deck = fed.reads;
          expect = Some (reads_exact fed.fed_files fed.define fed.reads);
          paper = None;
        });
  }

let write_inputs ctx =
  let paper, files = paper_inputs ctx ~with_keys:true in
  {
    files;
    setup_frames = List.map Inputs.define_frame Inputs.write_views;
    deck = Inputs.write_read_deck ~seed:ctx.seed;
    expect = None;
    paper = Some paper;
  }

let write_mix =
  {
    name = "write-mix";
    post = Restart;
    read_rate = 250.;
    write_rate = 250.;
    ladder = [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
    write_limit_ms = 10.;
    leader_flags = [ "--journal"; "--compact-every"; "500" ];
    followers = 0;
    prepare = write_inputs;
  }

let replicated_write =
  {
    name = "replicated-write";
    post = Replicas;
    read_rate = 250.;
    write_rate = 125.;
    ladder = [ 0.5; 1.0; 1.5; 2.0; 2.5 ];
    write_limit_ms = 25.;
    leader_flags = [ "--journal"; "--ack-replicas"; "1"; "--compact-every"; "500" ];
    followers = 2;
    prepare = write_inputs;
  }

let all = [ view_point; federation_read; write_mix; replicated_write ]
let find name = List.find_opt (fun s -> s.name = name) all

(* ---- end-of-run checks ---------------------------------------------- *)

let health_errors chk d =
  let errs = Util.member_int [ "responses_err" ] (Daemon.control d "health") in
  chk.checked <- chk.checked + 1;
  if errs > 0 then begin
    chk.bad <- chk.bad + 1;
    chk.notes <- Printf.sprintf "%s answered %d error responses" d.Daemon.name errs :: chk.notes
  end

let leader_seq d = Util.member_int [ "repl_seq" ] (Daemon.control d "health")

(* Checks that need the live daemons: the leader's final-state probes
   (compared with the offline replay afterwards), and on the last
   instance the kill -9 restart, or the followers and a fresh one.
   Returns the probes and the metrics these checks measure. *)
let live_checks ctx spec inputs d ~last chk =
  let probes = Inputs.write_final_probes in
  match spec.post with
  | Reads_only ->
      health_errors chk d.leader;
      ([], [])
  | Restart ->
      let live = answers d.leader probes in
      if not last then (live, [])
      else begin
        let t0 = Util.now () in
        Daemon.kill9 d.leader;
        let r =
          Daemon.spawn ~serve:ctx.serve ~dir:ctx.dir ~name:(spec.name ^ "-restarted") d.leader_args
        in
        d.restarted <- Some r;
        Daemon.wait_listening r;
        ignore (Daemon.control r "health");
        let restart_s = Util.now () -. t0 in
        compare_lists chk "after kill -9 restart" ~expected:live ~got:(answers r probes);
        (live, [ ("restart_s", restart_s, "s") ])
      end
  | Replicas ->
      let seq = leader_seq d.leader in
      List.iter
        (fun f -> Daemon.poll_until "follower catch-up" (fun () -> Daemon.caught_up f ~seq))
        d.followers;
      let live = answers d.leader probes in
      if not last then (live, [])
      else begin
        let frames = Array.to_list inputs.deck @ probes in
        let leader_answers = answers d.leader frames in
        List.iter
          (fun f -> compare_lists chk f.Daemon.name ~expected:leader_answers ~got:(answers f frames))
          d.followers;
        let t0 = Util.now () in
        let fresh =
          Daemon.spawn ~serve:ctx.serve ~dir:ctx.dir ~name:(spec.name ^ "-fresh")
            (daemon_files inputs.files @ [ "--follow"; Daemon.addr_string d.leader ])
        in
        d.restarted <- Some fresh;
        Daemon.wait_listening fresh;
        Daemon.poll_until "fresh follower catch-up" (fun () -> Daemon.caught_up fresh ~seq);
        let catchup_s = Util.now () -. t0 in
        compare_lists chk "fresh follower" ~expected:leader_answers ~got:(answers fresh frames);
        let installs = Util.member_int [ "snapshot_installs" ] (Daemon.control fresh "health") in
        ( live,
          [
            ("catchup_s", catchup_s, "s");
            ("replicate.snapshot_installs", float_of_int installs, "count");
          ] )
      end

(* ---- the traced run's daemon-side measurements ---------------------- *)

(* Leader and followers polled at 10 Hz while the load runs, over
   every instance of a traced run. *)
type watch = { mutable lag_max : int; mutable compactions : int }

let poll w d =
  let snap = ref (-1) in
  fun () ->
    try
      let s = Util.member_int [ "snapshot_seq" ] (Daemon.control d.leader "health") in
      if !snap >= 0 && s <> !snap then w.compactions <- w.compactions + 1;
      snap := s;
      List.iter
        (fun f ->
          w.lag_max <- max w.lag_max (Util.member_int [ "staleness_seq" ] (Daemon.control f "health")))
        d.followers
    with Util.Bench_error _ | Server.Client.Connection_error _ -> ()

(* Every daemon's lib/obs report, fetched with the [metrics] op. *)
let reports d =
  List.filter_map
    (fun x -> Obs.Json.member "report" (Daemon.control x "metrics"))
    (d.leader :: d.followers)

(* A histogram statistic from the daemon that observed it most; 0 when
   no daemon did (the layer was not exercised). *)
let hist reports name field =
  let path f = [ "histograms"; name; f ] in
  snd
    (List.fold_left
       (fun (bc, bv) r ->
         let c = Util.member_int (path "count") r in
         if c > bc then (c, Option.value ~default:0. (Util.member_float (path field) r)) else (bc, bv))
       (0, 0.) reports)

(* The client round trip the traced run measures at this rate. *)
let low_rate = 200.

let counters d () =
  let h = Daemon.control (read_node d) "health" in
  { hits = Util.member_int [ "cache"; "hits" ] h; misses = Util.member_int [ "cache"; "misses" ] h }

(* ---- one instance --------------------------------------------------- *)

type result = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** every value measured *)
  meta : (string * Obs.Json.t) list;
  notes : string list;
}

(* Write workloads: the ordered write stream on one connection to the
   leader, reads on another (to a follower when there is one).  Read
   workloads: two read connections to the one daemon.  Every instance
   [i] sends the same frames, on arrivals of its own. *)
let streams ctx spec inputs ~i d lg log =
  let arrivals salt = seeded ctx ((100 * i) + salt) in
  if spec.write_rate > 0. then
    let paper = Option.get inputs.paper in
    let w =
      L.add_stream lg ~port:d.leader.Daemon.port ~cls:L.write_cls ~seed:(arrivals 1)
        (write_source ~seed:ctx.seed paper log)
    in
    let r =
      L.add_stream lg ~port:(read_node d).Daemon.port ~cls:L.read_cls ~seed:(arrivals 2)
        (deck_source ~seed:(seeded ctx 3) ~k:0 ~n:1 inputs)
    in
    [ (w, spec.write_rate); (r, spec.read_rate) ]
  else
    List.init 2 (fun k ->
        ( L.add_stream lg ~port:d.leader.Daemon.port ~cls:L.read_cls ~seed:(arrivals (10 + k))
            (deck_source ~seed:(seeded ctx 3) ~k ~n:2 inputs),
          spec.read_rate /. 2. ))

let phase_totals (phases : L.phase list) =
  List.fold_left
    (fun (att, bad) (ph : L.phase) ->
      Array.fold_left
        (fun (att, bad) (c : L.cls_rec) -> (att + c.sent, bad + c.failed + c.mismatched + c.dropped))
        (att, bad) ph.classes)
    (0, 0) phases

type instance = {
  slice : slice;
  late : float array;  (** the generator's own lateness, nominal rung *)
  backlog_max : int;
  phases : L.phase list;
  problem : string option;  (** the first bad response, if any *)
  disk_mb : float option;
  written : written option;
  extra : (string * float * string) list;  (** from the live checks *)
  traced : (string * float * string) list;  (** last instance of a traced run *)
}

let instance (ctx : ctx) spec inputs ~instances ~i ~last ~watch d chk =
  let lg = L.create ~spin:ctx.spin () in
  let log = { sent = []; count = 0 } in
  if ctx.metrics then lg.tick <- Some (poll watch d);
  let slice =
    Fun.protect
      ~finally:(fun () -> L.close lg)
      (fun () ->
        measure
          ?low_rate:(if ctx.metrics then Some low_rate else None)
          ctx spec ~instances ~last ~counters:(counters d)
          ~rss:(fun () -> List.fold_left (fun a x -> a +. Daemon.hwm_mb x) 0. (daemons d))
          (streams ctx spec inputs ~i d lg log) lg)
  in
  let disk_mb = Option.map (fun j -> float_of_int (Util.dir_bytes j) /. 1048576.) d.journal in
  let reports = if ctx.metrics && last then reports d else [] in
  let compact_ms =
    if ctx.metrics && last then begin
      let t0 = Util.now () in
      ignore (Daemon.control d.leader "repl_compact");
      (Util.now () -. t0) *. 1000.
    end
    else nan
  in
  let probes, extra =
    try live_checks ctx spec inputs d ~last chk
    with Util.Bench_error e ->
      chk.bad <- chk.bad + 1;
      chk.notes <- e :: chk.notes;
      ([], [])
  in
  teardown d;
  let written =
    if spec.write_rate > 0. then
      let frames = Array.of_list (List.rev log.sent) in
      Some
        {
          frames;
          kept = Array.init (Array.length frames) (fun i -> if i < Array.length lg.kept then lg.kept.(i) else "");
          probes;
        }
    else None
  in
  let traced =
    if not (ctx.metrics && last) then []
    else
      let r = reports in
      let ms name v = (name, v, "ms") in
      [
        ms "server.query_ms.p50" (hist r "server.query_ms" "p50");
        ms "server.query_ms.p99" (hist r "server.query_ms" "p99");
        ms "server.update_ms.p50" (hist r "server.update_ms" "p50");
        ms "server.update_ms.p99" (hist r "server.update_ms" "p99");
        ms "par.pool_ms.p50" (hist r "par.pool_ms" "p50");
        ms "journal.fsync_ms.p50" (hist r "journal.fsync_ms" "p50");
        ms "journal.fsync_ms.p99" (hist r "journal.fsync_ms" "p99");
        ms "view.refresh_ms" (hist r "view.refresh_ms" "p50");
        ms "replicate.compact_ms" compact_ms;
        ("replicate.compactions", float_of_int watch.compactions, "count");
        ("replicate.follower_lag_seq_max", float_of_int watch.lag_max, "count");
        ( "client.rtt_us",
          (match slice.low with
          | Some ph -> Stats.mean (L.values ph.classes.(L.read_cls).lat) *. 1000.
          | None -> nan),
          "us" );
      ]
  in
  {
    slice;
    late = L.values slice.nominal.phase.late;
    backlog_max = slice.nominal.phase.backlog_max;
    phases = lg.phases;
    problem = lg.first_problem;
    disk_mb;
    written;
    extra;
    traced;
  }

(* ---- the run -------------------------------------------------------- *)

(* Set-up-only rounds before each instance, while they take under a
   tenth of the instance's share of the run, at most 7: cheap set-ups
   get 40 samples, spread over the whole run, so a slow stretch of the
   host does not decide their median. *)
let extra_setups (ctx : ctx) ~instances last_s =
  max 0 (min 7 (int_of_float (0.1 *. ctx.seconds /. float_of_int instances /. last_s) - 1))

let run (ctx : ctx) spec inputs =
  Util.mkdir_p ctx.dir;
  let instances = max 1 ctx.instances in
  let times = ref [] in
  let timed_deploy i =
    let t0 = Util.now () in
    let d = deploy ctx spec inputs i in
    times := (Util.now () -. t0) :: !times;
    d
  in
  let chk = { checked = 0; bad = 0; notes = [] } in
  let watch = { lag_max = 0; compactions = 0 } in
  let insts =
    List.init instances (fun i ->
        if !times = [] then teardown (timed_deploy 0);
        for _ = 1 to extra_setups ctx ~instances (List.hd !times) do
          teardown (timed_deploy 0)
        done;
        let d = timed_deploy (i + 1) in
        Fun.protect
          ~finally:(fun () -> List.iter Daemon.kill9 (daemons d))
          (fun () -> instance ctx spec inputs ~instances ~i ~last:(i = instances - 1) ~watch d chk))
  in
  (try verify_writes chk inputs (List.filter_map (fun i -> i.written) insts)
   with Util.Bench_error e ->
     chk.bad <- chk.bad + 1;
     chk.notes <- e :: chk.notes);
  let last = List.nth insts (instances - 1) in
  let att, bad = phase_totals (List.concat_map (fun i -> i.phases) insts) in
  let attempted = att + chk.checked and failed = bad + chk.bad in
  let over f = Stats.median (Array.of_list (List.map f insts)) in
  let nominal_lat i c = L.values i.slice.nominal.phase.classes.(c).lat in
  let pooled c = Array.concat (List.map (fun i -> nominal_lat i c) insts) in
  let reads = pooled L.read_cls and writes = pooled L.write_cls in
  let p q a = Stats.percentile a q in
  let ms name v = (name, v, "ms") in
  let peak_rps i =
    float_of_int i.slice.peak.completed /. (i.slice.peak.t1 -. i.slice.peak.t0)
  in
  (* p50 per instance, then the median over instances; p99 over the
     pooled samples, so that it has enough of them beyond it *)
  let p50 c = over (fun i -> p 0.50 (nominal_lat i c)) in
  let metrics =
    [
      ("setup_s", Stats.median (Array.of_list !times), "s");
      ("rss_mb", over (fun i -> i.slice.rss_mb), "MiB");
      ms "read_p50_ms" (p50 L.read_cls);
      ms "read_p99_ms" (p 0.99 reads);
      ("read_n", float_of_int (Array.length reads), "count");
      ("slo_rate_rps", slo_rate spec last.slice.rungs, "req/s");
      ("peak_rps", over peak_rps, "req/s");
      ("error_frac", float_of_int failed /. float_of_int (max 1 attempted), "ratio");
      ("server.plan_cache_hit_ratio", over (fun i -> i.slice.nominal.hit_ratio), "ratio");
      ms "loadgen.late_p99_ms" (p 0.99 (Array.concat (List.map (fun i -> i.late) insts)));
      ( "loadgen.backlog_max",
        float_of_int (List.fold_left (fun a i -> max a i.backlog_max) 0 insts),
        "count" );
    ]
    @ (if spec.write_rate > 0. then
         [
           ms "write_p50_ms" (p50 L.write_cls);
           ms "write_p99_ms" (p 0.99 writes);
           ("write_n", float_of_int (Array.length writes), "count");
         ]
       else [])
    @ (match last.disk_mb with Some mb -> [ ("disk_mb", mb, "MiB") ] | None -> [])
    @ last.extra @ last.traced
  in
  let rung_json (r : rung) =
    Obs.Json.Obj
      [
        ("mult", Obs.Json.Float r.mult);
        ("read_p99_ms", Util.num r.read_p99);
        ("write_p99_ms", Util.num r.write_p99);
        ("out_start", Obs.Json.Int r.phase.out_start);
        ("out_end", Obs.Json.Int r.phase.out_end);
        ("pass", Obs.Json.Bool r.pass);
      ]
  in
  let per_instance name f = (name, Obs.Json.List (List.map (fun i -> Util.num (f i)) insts)) in
  {
    workload = spec.name;
    seed = ctx.seed;
    correct = failed = 0;
    attempted;
    failed;
    metrics;
    meta =
      [
        ("instances", Obs.Json.Int instances);
        ("rungs", Obs.Json.List (List.map rung_json last.slice.rungs));
        ("setup_samples_s", Obs.Json.List (List.rev_map Util.num !times));
        per_instance "read_p50_ms" (fun i -> p 0.50 (nominal_lat i L.read_cls));
        per_instance "write_p50_ms" (fun i -> p 0.50 (nominal_lat i L.write_cls));
        per_instance "peak_rps" peak_rps;
        per_instance "rss_mb" (fun i -> i.slice.rss_mb);
      ];
    notes =
      List.rev chk.notes
      @ List.filter_map (fun i -> i.problem) insts
      @
      if spec.write_rate > 0. && Array.length writes < 1000 then
        [
          Printf.sprintf "write_n is %d: write_p99_ms has fewer than 10 samples beyond it"
            (Array.length writes);
        ]
      else [];
  }
