(* The in-process half of the traced run.  The workload's decks are
   replayed twice over identical state: through Server.exec (the whole
   dispatch a connection uses), and frame by frame through the public
   functions of each layer that dispatch calls (Wire, Query.Parser,
   Query.Rewrite, Query.Eval, View, Query.Update), timed call by call.
   The second replay must answer byte for byte like the first, so its
   stage times are a decomposition of the same work; what Server.exec
   spends beyond them (queue admission, the Par.async hop, counters,
   locks) is the server's dispatch self time. *)

module Json = Obs.Json
module W = Server.Wire
module Prng = Workload.Prng

(* ---- stage clocks --------------------------------------------------- *)

(* Every call's duration, in seconds. *)
type clock = Loadgen.samples

let clock () = Loadgen.samples ()
let calls (c : clock) = c.n
let tick (c : clock) dt = Loadgen.push c dt

(* Per-call cost in µs: the trimmed mean, 0 for a layer not called. *)
let mean_us c = if calls c = 0 then 0. else Stats.trimmed_mean (Loadgen.values c) *. 1e6
let median_us c = if calls c = 0 then 0. else Stats.median (Loadgen.values c) *. 1e6

type stages = {
  decode : clock;
  parse : clock;
  plan : clock;  (** plan-cache key and lookup, rewrite on a miss *)
  eval : clock;
  run_components : clock;
  view_read : clock;
  lookup_shape : clock;
  update_apply : clock;
  notify : clock;
  encode : clock;
  rewrite_view : clock;  (** uncached, timed beside the replay *)
  rewrite_global : clock;
  mutable frames : int;
  mutable rows : int;
  mutable row_reads : int;
  mutable bytes : int;
}

let stages () =
  {
    decode = clock ();
    parse = clock ();
    plan = clock ();
    eval = clock ();
    run_components = clock ();
    view_read = clock ();
    lookup_shape = clock ();
    update_apply = clock ();
    notify = clock ();
    encode = clock ();
    rewrite_view = clock ();
    rewrite_global = clock ();
    frames = 0;
    rows = 0;
    row_reads = 0;
    bytes = 0;
  }

(* [timed c f]: one call into a layer the replay pays for. *)
let timed c f =
  let t0 = Util.now () in
  let r = f () in
  tick c (Util.now () -. t0);
  r

(* [aside c f]: a call the replay does not need (an uncached rewrite
   the plan cache saves), timed for its own metric only. *)
let aside c f =
  let t0 = Util.now () in
  ignore (f ());
  tick c (Util.now () -. t0)

(* The stages that make up a frame's work, for the per-frame sum. *)
let in_sum st =
  [
    st.decode; st.parse; st.plan; st.eval; st.run_components; st.view_read; st.lookup_shape;
    st.update_apply; st.notify; st.encode;
  ]

(* Stage time per frame: each stage's per-call cost times its calls per
   frame. *)
let stage_sum_us st =
  if st.frames = 0 then 0.
  else
    List.fold_left
      (fun acc c -> acc +. (mean_us c *. float_of_int (calls c) /. float_of_int st.frames))
      0. (in_sum st)

(* ---- the layer-by-layer replay -------------------------------------- *)

type plan =
  | View_plan of Query.Ast.t * (Query.Eval.row list -> Query.Eval.row list)
  | Global_plan of Query.Rewrite.component_query list

type mirror = {
  session : Server.session;
  mutable merged : Instance.Store.t;
  views : Server.View.t;
  plans : (string, plan) Hashtbl.t;  (** emptied by every write *)
}

let mapping m = m.session.Server.result.Integrate.Result.mapping
let integrated m = m.session.Server.result.Integrate.Result.schema

let component m name =
  List.find_opt
    (fun s -> Ecr.Name.to_string (Ecr.Schema.name s) = name)
    m.session.Server.schemas

let stores m =
  List.map (fun (s, st) -> (Ecr.Schema.name s, st)) m.session.Server.component_stores

let cached m key compute =
  match Hashtbl.find_opt m.plans key with
  | Some p -> p
  | None ->
      let p = compute () in
      Hashtbl.replace m.plans key p;
      p

let view_plan m view q =
  let key = Ecr.Name.to_string (Ecr.Schema.name view) ^ "\x00" ^ Query.Ast.to_string q in
  match
    cached m key (fun () ->
        let q', back = Query.Rewrite.to_integrated (mapping m) ~view q in
        View_plan (q', back))
  with
  | View_plan (q', back) -> (q', back)
  | Global_plan _ -> Util.fail "plan kinds crossed"

let global_plan m q =
  match
    cached m ("\x00" ^ Query.Ast.to_string q) (fun () ->
        Global_plan (Query.Rewrite.to_components (mapping m) ~integrated:(integrated m) q))
  with
  | Global_plan parts -> parts
  | View_plan _ -> Util.fail "plan kinds crossed"

let rows_payload ?fresh rows =
  [ ("rows", W.rows_to_json rows); ("count", Json.Int (List.length rows)) ]
  @ match fresh with Some f -> [ ("fresh", Json.Bool f) ] | None -> []

(* One frame through the layers, in the order run_op calls them. *)
let step m st line =
  let req =
    match timed st.decode (fun () -> W.request_of_line line) with
    | Ok r -> r
    | Error (_, e) -> Util.fail "replay frame does not decode: %s" e
  in
  let text () =
    match req.W.text with Some t -> t | None -> Util.fail "replay frame has no text: %s" line
  in
  let read rows = st.rows <- st.rows + List.length rows; st.row_reads <- st.row_reads + 1 in
  let payload =
    match (req.W.op, req.W.view, req.W.text) with
    | "query", Some name, None when component m name = None ->
        let rows, fresh =
          match timed st.view_read (fun () -> Server.View.read m.views name m.merged) with
          | Ok r -> r
          | Error e -> Util.fail "%s" e
        in
        read rows;
        fun () -> rows_payload ~fresh rows
    | "query", Some v, Some _ ->
        let view = Option.get (component m v) in
        let q = timed st.parse (fun () -> Query.Parser.query_of_string (text ())) in
        let q', back = timed st.plan (fun () -> view_plan m view q) in
        aside st.rewrite_view (fun () -> Query.Rewrite.to_integrated (mapping m) ~view q);
        let rows =
          match
            timed st.lookup_shape (fun () ->
                Option.map back (Server.View.lookup_shape m.views q' m.merged))
          with
          | Some rows -> rows
          | None -> timed st.eval (fun () -> back (Query.Eval.run q' m.merged))
        in
        read rows;
        fun () -> rows_payload rows
    | "query", None, Some _ ->
        let q = timed st.parse (fun () -> Query.Parser.query_of_string (text ())) in
        let parts = timed st.plan (fun () -> global_plan m q) in
        aside st.rewrite_global (fun () ->
            Query.Rewrite.to_components (mapping m) ~integrated:(integrated m) q);
        let rows =
          timed st.run_components (fun () ->
              Query.Rewrite.run_components parts ~stores:(stores m))
        in
        read rows;
        fun () -> rows_payload rows
    | "rewrite", Some v, Some _ ->
        let view = Option.get (component m v) in
        let q = timed st.parse (fun () -> Query.Parser.query_of_string (text ())) in
        let q', _ = timed st.plan (fun () -> view_plan m view q) in
        aside st.rewrite_view (fun () -> Query.Rewrite.to_integrated (mapping m) ~view q);
        fun () -> [ ("query", Json.String (Query.Ast.to_string q')) ]
    | "rewrite", None, Some _ ->
        let q = timed st.parse (fun () -> Query.Parser.query_of_string (text ())) in
        let parts = timed st.plan (fun () -> global_plan m q) in
        aside st.rewrite_global (fun () ->
            Query.Rewrite.to_components (mapping m) ~integrated:(integrated m) q);
        fun () ->
          [
            ( "components",
              Json.List
                (List.map
                   (fun (p : Query.Rewrite.component_query) ->
                     Json.Obj
                       [
                         ("component", Json.String (Ecr.Name.to_string p.component));
                         ("query", Json.String (Query.Ast.to_string p.query));
                       ])
                   parts) );
          ]
    | "update", Some v, Some _ ->
        let view = Option.get (component m v) in
        let op = timed st.parse (fun () -> Query.Parser.update_of_string (text ())) in
        let op' = timed st.plan (fun () -> Query.Update.to_integrated (mapping m) ~view op) in
        let merged, n = timed st.update_apply (fun () -> Query.Update.apply op' m.merged) in
        m.merged <- merged;
        timed st.notify (fun () -> Server.View.notify_update m.views op' merged);
        Hashtbl.reset m.plans;
        fun () ->
          [ ("translated", Json.String (Query.Update.to_string op')); ("affected", Json.Int n) ]
    | op, _, _ -> Util.fail "the layer replay does not model op %s" op
  in
  let resp =
    timed st.encode (fun () -> Json.to_string (W.ok_response ?id:req.W.id (payload ())))
  in
  st.frames <- st.frames + 1;
  st.bytes <- st.bytes + String.length resp;
  resp

(* ---- replay --------------------------------------------------------- *)

type replay = {
  exec_us : float;  (** Server.exec per frame (trimmed mean) *)
  exec_read_us : float;  (** the same over read frames only *)
  st : stages;
  mismatches : int;
}

(* Two servers from the same files and setup frames: one answers
   through Server.exec, the other's state is driven by [step]. *)
let servers (inputs : Protocol.inputs) =
  let session = Protocol.session inputs.files in
  let a = Protocol.reference_of session and b = Protocol.reference_of session in
  List.iter (fun f -> ignore (Protocol.exec_ok a f); ignore (Protocol.exec_ok b f)) inputs.setup_frames;
  let m =
    Server.For_testing.with_state b (fun merged views ->
        { session; merged; views; plans = Hashtbl.create 256 })
  in
  (a, b, m)

(* Server.exec and the layer replay take the frames in alternating
   chunks: each chunk runs through Server.exec, then through [step], so
   neither disturbs the other's caches call by call, while the host's
   drift over the replay falls on both alike. *)
let chunk = 50

let replay a m frames =
  let st = stages () in
  let exec_us = clock () and exec_read_us = clock () and mismatches = ref 0 in
  let n = Array.length frames in
  let rec go i =
    if i < n then begin
      let sub = Array.sub frames i (min chunk (n - i)) in
      let answers =
        Array.map
          (fun f ->
            let t0 = Util.now () in
            let r = Server.exec a f in
            let dt = Util.now () -. t0 in
            tick exec_us dt;
            if Util.find_sub f "\"op\":\"update\"" = None then tick exec_read_us dt;
            r)
          sub
      in
      Array.iteri (fun k f -> if not (String.equal answers.(k) (step m st f)) then incr mismatches) sub;
      go (i + chunk)
    end
  in
  go 0;
  { exec_us = mean_us exec_us; exec_read_us = mean_us exec_read_us; st; mismatches = !mismatches }

(* The replay sequence: reads cycled from the deck in a seeded order,
   writes (write workloads) from a fresh writer in the workload's ratio. *)
let sequence ~seed (spec : Protocol.spec) (inputs : Protocol.inputs) n =
  let g = Prng.create (seed * 7727) in
  let deck = Array.of_list (Prng.shuffle g (Array.to_list inputs.deck)) in
  let writer = Option.map (Inputs.writer ~seed) inputs.paper in
  let every =
    if spec.write_rate > 0. then max 1 (int_of_float ((spec.read_rate +. spec.write_rate) /. spec.write_rate))
    else max_int
  in
  let r = ref 0 in
  Array.init n (fun i ->
      match writer with
      | Some w when i mod every = 0 -> Inputs.next_write w
      | _ ->
          incr r;
          deck.(!r mod Array.length deck))

(* ---- setup loaders -------------------------------------------------- *)

(* What Server.load_session does, one layer at a time; the median of up
   to three rounds. *)
let setup_timings (inputs : Protocol.inputs) =
  let f = inputs.files in
  let ms g =
    let t0 = Util.now () in
    let r = g () in
    ((Util.now () -. t0) *. 1000., r)
  in
  let round () =
    let ddl, schemas = ms (fun () -> Ddl.Parser.schemas_of_file f.ddl) in
    let integrate, result =
      ms (fun () ->
          let ws = List.fold_left (fun ws s -> Integrate.Workspace.add_schema s ws) Integrate.Workspace.empty schemas in
          let ws =
            match Integrate.Script.apply (Integrate.Script.parse_file f.script) ws with
            | Ok ws -> ws
            | Error e -> Util.fail "%s" (Integrate.Script.apply_error_to_string e)
          in
          Integrate.Workspace.integrate ws)
    in
    let load, stores = ms (fun () -> Instance.Loader.load_file ~schemas f.data) in
    let migrate, _ =
      ms (fun () ->
          Query.Migrate.run result.Integrate.Result.mapping ~integrated:result.Integrate.Result.schema
            stores)
    in
    let t = Protocol.reference f in
    let define, () =
      Fun.protect
        ~finally:(fun () -> Server.stop t)
        (fun () -> ms (fun () -> List.iter (fun fr -> ignore (Protocol.exec_ok t fr)) inputs.setup_frames))
    in
    [| ddl; integrate; load; migrate; define |]
  in
  let first = round () in
  let rounds = if Array.fold_left ( +. ) 0. first > 300. then [ first ] else [ first; round (); round () ] in
  Array.init 5 (fun i -> Stats.median (Array.of_list (List.map (fun r -> r.(i)) rounds)))

(* ---- the replication log -------------------------------------------- *)

(* Appends to a persisted log (one fsync each): µs per append and bytes
   the file grows per frame. *)
let log_append ~dir frames =
  let path = Filename.concat dir "layers.repl" in
  Util.rm_rf path;
  let log = Replicate.Log.create ~persist:path () in
  let t0 = Util.now () in
  Array.iter (fun f -> ignore (Replicate.Log.append log f)) frames;
  let dt = Util.now () -. t0 in
  let n = float_of_int (Array.length frames) in
  let bytes = float_of_int (Unix.stat path).Unix.st_size in
  Replicate.Log.close log;
  Util.rm_rf path;
  (dt /. n *. 1e6, bytes /. n)

(* Semi-sync floor: a follower thread acks each frame as soon as its
   long-poll wait sees it, so wait_acked measures only the log's own
   wake-up granularity. *)
let wait_acked ~samples =
  let log = Replicate.Log.create () in
  let stop = Atomic.make false in
  Replicate.Log.ack log ~node:"bench" 0;
  let acker =
    Thread.create
      (fun () ->
        let acked = ref 0 in
        while not (Atomic.get stop) do
          if Replicate.Log.wait log ~from:(!acked + 1) ~timeout_s:0.05 then begin
            acked := Replicate.Log.seq log;
            Replicate.Log.ack log ~node:"bench" !acked
          end
        done)
      ()
  in
  let times =
    Array.init samples (fun _ ->
        let s = Replicate.Log.append log "{}" in
        let t0 = Util.now () in
        if not (Replicate.Log.wait_acked log ~seq:s ~replicas:1 ~timeout_s:2.) then
          Util.fail "wait_acked timed out in-process";
        (Util.now () -. t0) *. 1000.)
  in
  Atomic.set stop true;
  Thread.join acker;
  Replicate.Log.close log;
  Stats.mean times

(* ---- the measurement ------------------------------------------------ *)

(* Server.For_testing.set_delay_after_op_ms 1 adds a 1 ms Thread.delay
   after every op: all of it must land in dispatch self time, and no
   layer's per-call median may move by more than 10%.  What a 1 ms
   delay lasts depends on the host (1.02-1.2 ms on a 2-vCPU VM, more
   when it is loaded), so the rise is held against the same delay timed
   in the client: it must match within 200 µs.  Server.exec runs with
   and without the delay in alternating rounds; the layer replay, which
   never sleeps, runs in its own loops (a call right after a sleep
   meets cold caches), also alternating, so the host's drift falls on
   both sides alike.  Read-only frames only: every loop replays the
   same state.  The verdicts are warnings: they judge the attribution,
   not the program's answers. *)
let self_check a m frames =
  let delay ms = Server.For_testing.set_delay_after_op_ms ms in
  Fun.protect
    ~finally:(fun () -> delay 0)
    (fun () ->
      (* without the delay, the client sleeps the same 1 ms before each
         frame instead, timed, so both sides run equally cold after a
         sleep *)
      let with_delay = clock () and without = clock () and slept = clock () in
      let exec ms c =
        delay ms;
        Array.iter
          (fun f ->
            if ms = 0 then timed slept (fun () -> Thread.delay 0.001);
            timed c (fun () -> ignore (Server.exec a f)))
          frames
      in
      for _ = 1 to 4 do
        exec 1 with_delay;
        exec 0 without
      done;
      let exec_on = mean_us with_delay and exec_off = mean_us without in
      let steps ms =
        delay ms;
        let st = stages () in
        Array.iter (fun f -> ignore (step m st f)) frames;
        st
      in
      ignore (steps 0);
      let rounds = List.init 16 (fun _ -> (steps 1, steps 0)) in
      let on = List.map fst rounds and off = List.map snd rounds in
      let sum sts = Stats.mean (Array.of_list (List.map stage_sum_us sts)) in
      let delta = exec_on -. sum on -. (exec_off -. sum off) in
      let median_of get sts = Stats.median (Array.of_list (List.map (fun st -> median_us (get st)) sts)) in
      let moved =
        List.filter_map
          (fun (name, get) ->
            let b = median_of get off and d = median_of get on in
            if Float.abs (d -. b) > (0.10 *. b) +. 0.25 then
              Some (Printf.sprintf "%s %.2f -> %.2f us" name b d)
            else None)
          [
            ("decode", fun s -> s.decode);
            ("parse", fun s -> s.parse);
            ("plan", fun s -> s.plan);
            ("eval", fun s -> s.eval);
            ("run_components", fun s -> s.run_components);
            ("view_read", fun s -> s.view_read);
            ("lookup_shape", fun s -> s.lookup_shape);
            ("encode", fun s -> s.encode);
          ]
      in
      let slept_us = mean_us slept in
      let warnings =
        (if Float.abs (delta -. slept_us) > 200. then
           [
             Printf.sprintf
               "self-check: injected 1 ms (%.0f us slept) moved dispatch self time by %.0f us"
               slept_us delta;
           ]
         else [])
        @ List.map (fun s -> "self-check: a layer moved under the injected delay: " ^ s) moved
      in
      (delta, warnings))

type result = {
  metrics : (string * float * string) list;
  notes : string list;  (** failures: the replay answered unlike Server.exec *)
  warnings : string list;  (** the self-check's verdicts *)
}

let measure (ctx : Protocol.ctx) (spec : Protocol.spec) (inputs : Protocol.inputs) =
  let setup = setup_timings inputs in
  let a, b, m = servers inputs in
  Fun.protect
    ~finally:(fun () ->
      Server.stop a;
      Server.stop b)
    (fun () ->
      (* warm both sides (plan caches, lazy views), then size the
         measured replay to 5% of the run's seconds of Server.exec time *)
      let warm = sequence ~seed:ctx.seed spec inputs (2 * Array.length inputs.deck) in
      let w = replay a m warm in
      let per_frame = Float.max 1. w.exec_us in
      let n = max 200 (min 50_000 (int_of_float (0.05 *. ctx.seconds *. 1e6 /. per_frame))) in
      let frames = sequence ~seed:(ctx.seed + 1) spec inputs n in
      let r = replay a m frames in
      let exec_us = r.exec_us in
      let self_delta, warnings =
        self_check a m (Array.init 100 (fun i -> inputs.deck.(i mod Array.length inputs.deck)))
      in
      let writes =
        match inputs.paper with
        | Some p ->
            let w = Inputs.writer ~seed:ctx.seed p in
            Array.init 300 (fun _ -> Inputs.next_write w)
        | None -> Array.init 300 (fun i -> inputs.deck.(i mod Array.length inputs.deck))
      in
      let append_us, bytes_per_write = log_append ~dir:ctx.dir writes in
      let acked_ms = wait_acked ~samples:40 in
      let st = r.st in
      let us name v = (name, v, "us") in
      let dispatch = exec_us -. stage_sum_us st in
      {
        metrics =
          [
            us "server.exec_us" exec_us;
            us "server.exec_read_us" r.exec_read_us;
            us "server.dispatch_self_us" dispatch;
            ("trace.unaccounted_frac", dispatch /. exec_us, "ratio");
            us "wire.decode_us" (mean_us st.decode);
            us "wire.encode_us" (mean_us st.encode);
            ( "wire.response_bytes",
              float_of_int st.bytes /. float_of_int (max 1 st.frames),
              "bytes" );
            us "query.parse_us" (mean_us st.parse);
            us "server.plan_us" (mean_us st.plan);
            us "query.rewrite_view_us" (mean_us st.rewrite_view);
            us "query.rewrite_global_us" (mean_us st.rewrite_global);
            us "query.eval_us" (mean_us st.eval);
            us "query.run_components_us" (mean_us st.run_components);
            ( "query.rows_per_read",
              float_of_int st.rows /. float_of_int (max 1 st.row_reads),
              "rows" );
            us "query.update_apply_us" (mean_us st.update_apply);
            us "view.read_us" (mean_us st.view_read);
            us "view.lookup_shape_us" (mean_us st.lookup_shape);
            us "view.notify_update_us" (mean_us st.notify);
            us "replicate.log_append_us" append_us;
            ("journal.bytes_per_write", bytes_per_write, "bytes");
            ("replicate.wait_acked_ms", acked_ms, "ms");
            ("setup.ddl_parse_ms", setup.(0), "ms");
            ("setup.integrate_ms", setup.(1), "ms");
            ("setup.instance_load_ms", setup.(2), "ms");
            ("setup.migrate_ms", setup.(3), "ms");
            ("setup.define_views_ms", setup.(4), "ms");
            us "trace.selfcheck_delay_us" self_delta;
          ];
        notes =
          (if r.mismatches > 0 then
             [ Printf.sprintf "layer replay answered %d frames unlike Server.exec" r.mismatches ]
           else []);
        warnings;
      })
