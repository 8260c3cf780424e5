(* The run protocol shared by every workload: build the offline
   reference, set the daemons up several times, warm up, climb the rate
   ladder, measure closed-loop peak throughput, then run the end-of-run
   correctness checks.  Workload-specific parts are the [spec] fields. *)

module Prng = Workload.Prng
module L = Loadgen

type ctx = {
  serve : string;  (** path of the sit_serve executable *)
  dir : string;  (** scratch directory of this run *)
  seed : int;
  seconds : float;
  instances : int;  (** daemon deployments measured, one after another *)
  metrics : bool;  (** start daemons with [--metrics] (the traced run) *)
  spin : bool;  (** the generator busy-polls (it has a CPU of its own) *)
}

type deployment = {
  tag : string;  (** names the daemons' logs and metrics reports *)
  leader : Daemon.t;
  leader_args : string list;
  followers : Daemon.t list;
  journal : string option;
  mutable restarted : Daemon.t option;
}

let daemons d = (d.leader :: d.followers) @ Option.to_list d.restarted

(* Where the read stream goes: a follower when there is one. *)
let read_node d = match d.followers with f :: _ -> f | [] -> d.leader

type inputs = {
  files : Inputs.files;
  setup_frames : string list;  (** applied to the leader at set-up *)
  deck : string array;  (** distinct read frames, cycled *)
  expect : string array option;
      (** the reference's answer to each deck frame, when reads are
          exact (no writes run beside them) *)
  paper : Inputs.paper option;  (** write workloads: the population *)
}

(* What the end-of-run checks do beyond the per-response ones. *)
type post =
  | Reads_only  (** every read was already compared byte for byte *)
  | Restart  (** replay the writes offline, kill -9, restart, compare *)
  | Replicas  (** replay the writes, compare every follower, bootstrap a fresh one *)

type spec = {
  name : string;
  post : post;
  read_rate : float;  (** nominal reads per second *)
  write_rate : float;  (** nominal writes per second; 0 for read-only *)
  ladder : float list;  (** rate multipliers, ascending; 1.0 is nominal *)
  write_limit_ms : float;  (** p99 limit of writes on a ladder rung *)
  leader_flags : string list;
  followers : int;
  prepare : ctx -> inputs;
}

let daemon_files (f : Inputs.files) = [ f.ddl; "-s"; f.script; "--data"; f.data ]

(* --metrics turns a daemon's lib/obs layer on; the report is read over
   the wire (the [metrics] op) while the daemon runs. *)
let metrics_flags ctx name =
  if ctx.metrics then [ "--metrics"; Filename.concat ctx.dir (name ^ ".metrics.json") ] else []

(* ---- the offline reference ------------------------------------------ *)

(* An in-process server built from the same files, driven through
   Server.exec: the byte-exact answers a daemon must give. *)
let session (files : Inputs.files) =
  match
    Server.load_session
      {
        Server.schema_files = [ files.ddl ];
        script = Some files.script;
        data = Some files.data;
        journal = None;
        name = None;
      }
  with
  | Error e -> Util.fail "reference session: %s" e
  | Ok s -> s

let reference_of session =
  match Server.create session (Server.default_config (Server.Wire.Tcp ("127.0.0.1", 0))) with
  | Error e -> Util.fail "reference server: %s" e
  | Ok t -> t

let reference files = reference_of (session files)

let exec_ok t frame =
  let r = Server.exec t frame in
  if not (L.is_ok (Bytes.unsafe_of_string r) 0 (String.length r)) then
    Util.fail "reference answered %s with %s" frame r;
  r

let with_reference files setup_frames f =
  let t = reference files in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      List.iter (fun fr -> ignore (exec_ok t fr)) setup_frames;
      f t)

(* ---- set-up --------------------------------------------------------- *)

let deploy ctx spec inputs i =
  let tag = Printf.sprintf "%s-%d" spec.name i in
  let journal =
    if List.mem "--journal" spec.leader_flags then begin
      let j = Filename.concat ctx.dir (tag ^ ".journal") in
      Util.rm_rf j;
      Some j
    end
    else None
  in
  let leader_args =
    daemon_files inputs.files
    @ List.concat_map
        (fun f -> if f = "--journal" then [ f; Option.get journal ] else [ f ])
        spec.leader_flags
    @ metrics_flags ctx (tag ^ "-leader")
  in
  let leader = Daemon.spawn ~serve:ctx.serve ~dir:ctx.dir ~name:(tag ^ "-leader") leader_args in
  Daemon.wait_listening leader;
  let followers =
    List.init spec.followers (fun k ->
        let name = Printf.sprintf "%s-follower%d" tag k in
        Daemon.spawn ~serve:ctx.serve ~dir:ctx.dir ~name
          (daemon_files inputs.files
          @ [ "--follow"; Daemon.addr_string leader ]
          @ metrics_flags ctx name))
  in
  List.iter Daemon.wait_listening followers;
  if followers <> [] then
    (* a semi-sync leader holds every write until a follower acks it,
       so the followers attach before the setup frames go in *)
    Daemon.poll_until "followers to attach" (fun () ->
        match Obs.Json.member "followers" (Daemon.control leader "repl_status") with
        | Some (Obs.Json.List l) -> List.length l >= spec.followers
        | _ -> false);
  Daemon.apply leader inputs.setup_frames;
  let seq () = Util.member_int [ "repl_seq" ] (Daemon.control leader "health") in
  let s = seq () in
  List.iter
    (fun f -> Daemon.poll_until "follower catch-up" (fun () -> Daemon.caught_up f ~seq:s))
    followers;
  { tag; leader; leader_args; followers; journal; restarted = None }

let teardown d =
  List.iter Daemon.stop (daemons d);
  Option.iter Util.rm_rf d.journal

(* ---- streams -------------------------------------------------------- *)

(* Cycles the deck in a seeded order; stream [k] starts [k]/[n] of the
   way round so two streams do not send the same frame together. *)
let deck_source ~seed ~k ~n inputs =
  let g = Prng.create seed in
  let order = Array.of_list (Prng.shuffle g (List.init (Array.length inputs.deck) Fun.id)) in
  let pos = ref (k * Array.length order / max 1 n) in
  fun () ->
    let i = order.(!pos mod Array.length order) in
    incr pos;
    ( inputs.deck.(i),
      match inputs.expect with Some e -> L.Exact e.(i) | None -> L.Ok_only )

type writes = { mutable sent : string list; mutable count : int }

let write_source ~seed paper log =
  let w = Inputs.writer ~seed paper in
  fun () ->
    let f = Inputs.next_write w in
    log.sent <- f :: log.sent;
    log.count <- log.count + 1;
    (f, L.Keep (log.count - 1))

(* ---- measurement ---------------------------------------------------- *)

(* The read node's plan-cache counters, sampled at the edges of a rung. *)
type counters = { hits : int; misses : int }

type rung = {
  mult : float;
  phase : L.phase;
  hit_ratio : float;  (** the read node's plan cache during the rung *)
  read_p99 : float;
  write_p99 : float;
  pass : bool;
}

let cls_p (ph : L.phase) cls q = Stats.percentile (L.values ph.classes.(cls).lat) q

let errors (ph : L.phase) =
  Array.fold_left (fun n (c : L.cls_rec) -> n + c.failed + c.mismatched + c.dropped) 0 ph.classes

(* p99 limit of reads on a ladder rung, every workload *)
let read_limit_ms = 5.

let rung_pass spec (ph : L.phase) =
  let read_p99 = cls_p ph L.read_cls 0.99 and write_p99 = cls_p ph L.write_cls 0.99 in
  let within v lim = Float.is_nan v || v <= lim in
  ( read_p99,
    write_p99,
    within read_p99 read_limit_ms
    && within write_p99 spec.write_limit_ms
    && errors ph = 0
    && ph.out_end <= max (2 * ph.out_start) 8 )

(* One daemon instance's share of the run. *)
type slice = {
  nominal : rung;
  rss_mb : float;  (** the daemons' summed peak RSS when the nominal rung ends *)
  rungs : rung list;  (** the ladder climbed, in order (last instance only) *)
  peak : L.phase;  (** closed loop *)
  low : L.phase option;  (** reads only, at [low_rate] (traced run, last instance) *)
}

(* Phase lengths are shares of the run's seconds, the instance phases
   split evenly over the [instances]: 10% warm-up at the nominal rate,
   50% nominal rung, 20% closed-loop peak on every connection.  The
   last instance also climbs the rest of the ladder at 5% a rung: the
   rungs below nominal before its nominal slice, the rungs above after
   it, stopping at the first rung that fails.  [rss] is read when the
   nominal rung ends: past it the daemons run saturated, where how far
   their heaps grow depends on how fast the host lets them go. *)
let measure ?low_rate ctx spec ~instances ~last ~counters ~rss (streams : (L.stream * float) list)
    lg =
  let s = ctx.seconds and share = ctx.seconds /. float_of_int instances in
  let set_rates mult = List.iter (fun ((st : L.stream), r) -> st.rate <- r *. mult) streams in
  let rung mult duration =
    set_rates mult;
    let c0 = counters () in
    let ph = L.open_loop lg ~label:(Printf.sprintf "rung x%g" mult) ~duration in
    let c1 = counters () in
    let hits = c1.hits - c0.hits and misses = c1.misses - c0.misses in
    let read_p99, write_p99, pass = rung_pass spec ph in
    {
      mult;
      phase = ph;
      hit_ratio = (if hits + misses = 0 then nan else float_of_int hits /. float_of_int (hits + misses));
      read_p99;
      write_p99;
      pass;
    }
  in
  set_rates 1.0;
  ignore (L.open_loop lg ~label:"warmup" ~duration:(0.10 *. share));
  let ladder = List.filter (fun m -> m <> 1.0) spec.ladder in
  let below =
    if last then List.map (fun m -> rung m (0.05 *. s)) (List.filter (fun m -> m < 1.0) ladder)
    else []
  in
  let nominal = rung 1.0 (0.50 *. share) in
  let rss_mb = rss () in
  let rec climb acc = function
    | m :: rest when List.for_all (fun r -> r.pass) acc ->
        climb (acc @ [ rung m (0.05 *. s) ]) rest
    | _ -> acc
  in
  let rungs =
    if last then climb (below @ [ nominal ]) (List.filter (fun m -> m > 1.0) ladder) else []
  in
  L.drain lg ~timeout:30.;
  let peak = L.closed_loop lg ~label:"peak" ~duration:(0.20 *. share) in
  L.drain lg ~timeout:30.;
  let low =
    match low_rate with
    | Some rate when last ->
        let readers = List.filter (fun ((st : L.stream), _) -> st.cls = L.read_cls) streams in
        List.iter
          (fun ((st : L.stream), _) ->
            st.rate <- (if st.cls = L.read_cls then rate /. float_of_int (List.length readers) else 0.))
          streams;
        let ph = L.open_loop lg ~label:"low rate" ~duration:(0.05 *. s) in
        L.drain lg ~timeout:30.;
        Some ph
    | _ -> None
  in
  { nominal; rss_mb; rungs; peak; low }

(* Highest rung reached with every rung below it passing. *)
let slo_rate spec rungs =
  let total mult = (spec.read_rate +. spec.write_rate) *. mult in
  let rec go best = function
    | r :: rest when r.pass -> go (total r.mult) rest
    | _ -> best
  in
  go 0. rungs

(* ---- end-of-run checks ---------------------------------------------- *)

type check_result = { mutable checked : int; mutable bad : int; mutable notes : string list }

let expect_same chk what ~expected ~got =
  chk.checked <- chk.checked + 1;
  if not (String.equal expected got) then begin
    chk.bad <- chk.bad + 1;
    if List.length chk.notes < 5 then
      chk.notes <-
        Printf.sprintf "%s: expected %s, got %s" what
          (String.sub expected 0 (min 200 (String.length expected)))
          (String.sub got 0 (min 200 (String.length got)))
        :: chk.notes
  end

let compare_lists chk what ~expected ~got =
  if List.length expected <> List.length got then
    expect_same chk what
      ~expected:(Printf.sprintf "%d answers" (List.length expected))
      ~got:(Printf.sprintf "%d answers" (List.length got))
  else
    List.iteri
      (fun i (e, g) -> expect_same chk (Printf.sprintf "%s %d" what i) ~expected:e ~got:g)
      (List.combine expected got)

let answers d frames = List.map (Daemon.roundtrip d) frames

(* What one instance's write stream left behind: every write it sent
   (a prefix of the one seeded sequence all instances share), the
   responses kept per write, and the final-state probes as the leader
   answered them after the run. *)
type written = { frames : string array; kept : string array; probes : string list }

(* The write stream replayed offline, in order, on a fresh reference:
   every acknowledged write of every instance must have been answered
   exactly as the replay answers it, and each instance's final state
   must equal the replay's state after that instance's last write. *)
let verify_writes chk inputs (ws : written list) =
  let longest =
    List.fold_left (fun a w -> if Array.length w.frames > Array.length a then w.frames else a) [||] ws
  in
  if ws <> [] then
    with_reference inputs.files inputs.setup_frames (fun t ->
        let probes_at i =
          let ready = List.filter (fun w -> Array.length w.frames = i) ws in
          if ready <> [] then begin
            let replayed = List.map (Server.exec t) Inputs.write_final_probes in
            List.iter (fun w -> compare_lists chk "final state" ~expected:replayed ~got:w.probes) ready
          end
        in
        Array.iteri
          (fun i f ->
            probes_at i;
            let r = Server.exec t f in
            List.iter
              (fun w ->
                if i < Array.length w.frames then begin
                  if not (String.equal w.frames.(i) f) then
                    Util.fail "write streams diverged at write %d" i;
                  if w.kept.(i) <> "" then
                    expect_same chk (Printf.sprintf "write %d" i) ~expected:r ~got:w.kept.(i)
                end)
              ws)
          longest;
        probes_at (Array.length longest))
