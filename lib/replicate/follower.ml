module Json = Obs.Json

type progress = {
  applied : int Atomic.t;
  leader_seq : int Atomic.t;
  connected : bool Atomic.t;
  attempts : int Atomic.t;
  apply_errors : int Atomic.t;
  snapshots : int Atomic.t;
  last_error : string Atomic.t;
  stop : bool Atomic.t;
}

let make_progress () =
  {
    applied = Atomic.make 0;
    leader_seq = Atomic.make 0;
    connected = Atomic.make false;
    attempts = Atomic.make 0;
    apply_errors = Atomic.make 0;
    snapshots = Atomic.make 0;
    last_error = Atomic.make "";
    stop = Atomic.make false;
  }

(* Stable across restarts, so a rejoining follower cannot double-count
   toward a quorum; never an address, which NAT can share. *)
let node_id dir =
  let fresh () =
    let host = try Unix.gethostname () with Unix.Unix_error _ -> "" in
    Printf.sprintf "n-%08x"
      (Hashtbl.hash (host, Unix.getpid (), Unix.gettimeofday (), Unix.times ())
      land 0xffffffff)
  in
  match Option.map (fun d -> Filename.concat d "node_id") dir with
  | None -> fresh ()
  | Some path -> (
      match In_channel.with_open_text path In_channel.input_line with
      | Some id when String.trim id <> "" -> String.trim id
      | _ | (exception Sys_error _) ->
          let id = fresh () in
          (try
             Out_channel.with_open_text path (fun oc ->
                 output_string oc (id ^ "\n"))
           with Sys_error _ -> ());
          id)

let staleness p = max 0 (Atomic.get p.leader_seq - Atomic.get p.applied)
let last_error p = Atomic.get p.last_error
let request_stop p = Atomic.set p.stop true

let status p ~leader ~node ~detail =
  let i a = Json.Int (Atomic.get a) in
  if detail then
    [
      ("role", Json.String "follower");
      ("leader", Json.String leader);
      ("applied_seq", i p.applied);
      ("leader_seq", i p.leader_seq);
      ("staleness_seq", Json.Int (staleness p));
      ("connected", Json.Bool (Atomic.get p.connected));
      ("apply_errors", i p.apply_errors);
      ("snapshot_installs", i p.snapshots);
      ("last_error", Json.String (last_error p));
      ("node", Json.String node);
    ]
  else
    [
      ("role", Json.String "follower");
      ("applied_seq", i p.applied);
      ("staleness_seq", Json.Int (staleness p));
      ("repl_connected", Json.Bool (Atomic.get p.connected));
      ("repl_apply_errors", i p.apply_errors);
      ("snapshot_installs", i p.snapshots);
      ("repl_last_error", Json.String (last_error p));
    ]

(* Frames are built and parsed with Obs.Json directly: this module sits
   below lib/server, so it speaks the protocol by its documented shape
   rather than through Wire. *)
let handshake_line ~node =
  Json.to_string
    (Json.Obj [ ("op", Json.String "repl_handshake"); ("node", Json.String node) ])

let pull_line ~node ~from ~batch ~wait_ms =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.String "repl_pull");
         ("node", Json.String node);
         ("seq", Json.Int from);
         ("max", Json.Int batch);
         ("wait_ms", Json.Int wait_ms);
       ])

let snapshot_line ~node ~chunk =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.String "repl_snapshot");
         ("node", Json.String node);
         ("seq", Json.Int chunk);
       ])

let is_ok v = match Json.member "ok" v with Some (Json.Bool b) -> b | _ -> false

exception Retry of string

let retry fmt = Printf.ksprintf (fun s -> raise (Retry s)) fmt

let parse line =
  match Json.of_string line with
  | Ok v -> v
  | Error e -> retry "unparseable response: %s" e

let error_field name resp =
  match Json.member "error" resp with
  | Some err -> (
      match Json.member name err with Some (Json.String s) -> Some s | _ -> None)
  | None -> None

let note_leader_seq progress resp =
  match Json.member "repl_seq" resp with
  | Some (Json.Int s) -> Atomic.set progress.leader_seq s
  | _ -> ()

let run ~node ~connect ~close ~roundtrip ~apply ~progress
    ?(backoff = Backoff.fresh ()) ?(batch = 64) ?(wait_ms = 200)
    ?(throttle_ms = 0)
    ?(install = fun _ _ -> Error "this follower cannot install snapshots")
    ?(log = fun (_ : string) -> ()) () =
  let delays = Array.of_list (Backoff.delays backoff) in
  let delay_idx = ref 0 in
  (* sleep in small slices so request_stop stays responsive *)
  let sleep_ms ms =
    let until = Unix.gettimeofday () +. (ms /. 1000.) in
    while (not (Atomic.get progress.stop)) && Unix.gettimeofday () < until do
      Thread.delay 0.005
    done
  in
  let backoff_sleep () =
    Atomic.incr progress.attempts;
    if Array.length delays > 0 then begin
      sleep_ms delays.(min !delay_idx (Array.length delays - 1));
      incr delay_idx
    end
  in
  (* A refusal from a node that answers [not_leader] is not an outage:
     the follower is (mis)configured to tail a non-leader.  Surface it
     distinctly — named error, warning with the advertised leader — so
     it is diagnosable from health/repl_status instead of looking like
     "leader briefly down" forever. *)
  let refused what resp =
    match error_field "code" resp with
    | Some "not_leader" ->
        let where =
          match error_field "leader" resp with
          | Some addr -> Printf.sprintf " (it advertises leader %s)" addr
          | None -> ""
        in
        log
          (Printf.sprintf
             "%s refused: the configured leader is itself a follower%s — \
              check --follow"
             what where);
        retry "%s refused: peer is not a leader%s" what where
    | _ -> retry "%s refused" what
  in
  (* The leader's truncation point, updated from every handshake/pull
     response.  When [applied] falls at or below it, the frames this
     node needs are gone — switch to the snapshot-transfer leg. *)
  let base = ref 0 in
  let note resp =
    note_leader_seq progress resp;
    match Json.member "base_seq" resp with
    | Some (Json.Int b) -> base := b
    | _ -> ()
  in
  let apply_batch items =
    List.iter
      (fun item ->
        let next = Atomic.get progress.applied + 1 in
        match (Json.member "seq" item, Json.member "frame" item) with
        | Some (Json.Int s), Some (Json.String _) when s < next ->
            () (* already applied: a duplicate after a reconnect *)
        | Some (Json.Int s), Some (Json.String frame) when s = next -> (
            match apply s frame with
            | Ok () -> Atomic.set progress.applied s
            | Error e ->
                (* do NOT advance [applied]: the next pull's [from]
                   acks everything before it, and a frame this node
                   failed to apply must never count toward the
                   leader's semi-sync quorum.  Stop the tail instead;
                   the reconnect loop re-pulls from this exact seq, so
                   the node wedges here — visibly (staleness grows,
                   apply_errors counts, last_error names the frame) —
                   rather than acking past a divergence. *)
                Atomic.incr progress.apply_errors;
                log (Printf.sprintf "frame %d failed to apply: %s" s e);
                retry "frame %d failed to apply: %s" s e)
        | _ -> retry "gap or malformed frame in repl_pull response")
      items
  in
  (* Snapshot transfer: pull every chunk of the leader's current
     snapshot (the chunk index rides the [seq] field), install the
     reassembled payload, and resume the tail from its seq.  A failed
     install wedges exactly like a failed frame apply: [applied] stays
     put, the error is counted and named, and the reconnect loop
     retries — the node never acks state it does not hold. *)
  let fetch_snapshot conn =
    let fetch i =
      let resp = parse (roundtrip conn (snapshot_line ~node ~chunk:i)) in
      if not (is_ok resp) then refused "snapshot" resp;
      note resp;
      match
        ( Json.member "snapshot_seq" resp,
          Json.member "chunks" resp,
          Json.member "chunk" resp )
      with
      | Some (Json.Int sseq), Some (Json.Int total), Some (Json.String c)
        when total >= 1 ->
          (sseq, total, c)
      | _ -> retry "malformed repl_snapshot response"
    in
    let sseq, total, c0 = fetch 0 in
    let buf = Buffer.create (String.length c0 * total) in
    Buffer.add_string buf c0;
    for i = 1 to total - 1 do
      let s, _, c = fetch i in
      if s <> sseq then
        retry "snapshot changed mid-transfer (seq %d became %d)" sseq s;
      Buffer.add_string buf c
    done;
    match install sseq (Buffer.contents buf) with
    | Ok () ->
        Atomic.set progress.applied sseq;
        Atomic.incr progress.snapshots;
        log (Printf.sprintf "installed leader snapshot at seq %d" sseq)
    | Error e ->
        Atomic.incr progress.apply_errors;
        log (Printf.sprintf "snapshot at seq %d failed to install: %s" sseq e);
        retry "snapshot at seq %d failed to install: %s" sseq e
  in
  let tail conn =
    let resp = parse (roundtrip conn (handshake_line ~node)) in
    if not (is_ok resp) then refused "handshake" resp;
    note resp;
    Atomic.set progress.connected true;
    delay_idx := 0;
    while not (Atomic.get progress.stop) do
      if Atomic.get progress.applied < !base then fetch_snapshot conn;
      let from = Atomic.get progress.applied + 1 in
      let resp = parse (roundtrip conn (pull_line ~node ~from ~batch ~wait_ms)) in
      if not (is_ok resp) then refused "pull" resp;
      note resp;
      (match Json.member "frames" resp with
      | Some (Json.List items) -> apply_batch items
      | _ -> retry "repl_pull response has no frames");
      if throttle_ms > 0 then sleep_ms (float throttle_ms)
    done
  in
  let note_error e =
    Atomic.set progress.last_error
      (match e with Retry msg -> msg | e -> Printexc.to_string e)
  in
  while not (Atomic.get progress.stop) do
    match connect () with
    | exception e ->
        note_error e;
        Atomic.set progress.connected false;
        backoff_sleep ()
    | conn -> (
        match tail conn with
        | () -> ( try close conn with _ -> ())
        | exception e ->
            (* the transport is opaque (the caller's connect/roundtrip
               raise their own exception types), so every failure is a
               disconnect: mark, back off, reconnect *)
            note_error e;
            (try close conn with _ -> ());
            Atomic.set progress.connected false;
            backoff_sleep ())
  done;
  Atomic.set progress.connected false
