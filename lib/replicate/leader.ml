module Json = Obs.Json

type state = {
  apply : int -> string -> (unit, string) result;
  snapshot : unit -> string;
  install : int -> string -> (unit, string) result;
}

type t = {
  log : Log.t;
  dir : string option;
  write_mu : Mutex.t;
      (* held from apply to append and through compaction, so log order
         is application order and no snapshot interleaves a write *)
  snap_mu : Mutex.t;
  mutable latest : (int * string) option;  (* (seq, payload), under snap_mu *)
  compact_every : int;
  ack_replicas : int;
  ack_timeout_ms : int;
  warn : string -> unit;
}

let create ~dir ~liveness_s ~compact_every ~ack_replicas ~ack_timeout_ms ~warn =
  let persist = Option.map (fun d -> Filename.concat d "repl.journal") dir in
  {
    log = Log.create ?persist ~liveness_s ();
    dir;
    write_mu = Mutex.create ();
    snap_mu = Mutex.create ();
    latest = None;
    compact_every;
    ack_replicas;
    ack_timeout_ms;
    warn;
  }

let snapshot_seq t =
  Mutex.protect t.snap_mu (fun () ->
      match t.latest with Some (s, _) -> s | None -> 0)

let set_latest t s = Mutex.protect t.snap_mu (fun () -> t.latest <- Some s)

(* ---- restart ------------------------------------------------------- *)

let recover t state =
  match t.dir with
  | None -> Ok ()
  | Some dir -> (
      let base = Log.base_seq t.log in
      match Snapshot.load ~dir with
      | Some (sseq, payload) when sseq >= base ->
          state.install sseq payload
          |> Result.map (fun () -> set_latest t (sseq, payload))
          |> Result.map_error (( ^ ) "cannot restart from snapshot: ")
      | _ when base = 0 -> Ok ()
      | _ ->
          Error
            (Printf.sprintf
               "the replication log is truncated to seq %d but no valid \
                snapshot could be read from %s"
               base dir))

(* Every logged frame was acknowledged, so one that no longer applies
   refuses the start rather than drop an acknowledged write. *)
let replay t state =
  List.fold_left
    (fun acc (s, frame) ->
      Result.bind acc (fun () ->
          Result.map_error
            (Printf.sprintf
               "the replication log frame at seq %d no longer applies: %s" s)
            (state.apply s frame)))
    (Ok ())
    (Log.from t.log (snapshot_seq t + 1) ~max:(Log.seq t.log))

(* ---- compaction ---------------------------------------------------- *)

(* Snapshot at the log's seq, persist it, and truncate the prefix
   nothing needs; the caller holds [write_mu].  The truncation floor is
   the minimum of the snapshot's seq, the oldest retained snapshot (a
   restart that finds the newest one torn falls back to it and needs
   the frames after it) and the lowest live follower ack (a follower's
   next frame is never truncated under it; a dead one stops pinning
   the floor when its liveness window passes). *)
let compact_locked t state =
  let seq = Log.seq t.log in
  let cur = snapshot_seq t in
  let sseq, keep_floor =
    if seq > cur then begin
      let payload = state.snapshot () in
      let floor =
        match t.dir with
        | Some dir -> List.fold_left min seq (Snapshot.save ~dir ~seq payload)
        | None -> seq
      in
      set_latest t (seq, payload);
      (seq, floor)
    end
    else
      ( cur,
        match t.dir with
        | Some dir -> List.fold_left min cur (Snapshot.retained ~dir)
        | None -> cur )
  in
  let ack_floor = Option.value ~default:sseq (Log.lowest_live_ack t.log) in
  (sseq, Log.truncate t.log (min keep_floor ack_floor))

(* Due every [compact_every] frames past the snapshot; a failed attempt
   leaves the snapshot put, so the next boundary retries it. *)
let compact_if_due t state seq =
  let gap = seq - snapshot_seq t in
  if t.compact_every > 0 && gap > 0 && gap mod t.compact_every = 0 then
    try ignore (compact_locked t state)
    with e ->
      t.warn
        (Printf.sprintf
           "compaction at seq %d failed: %s (retried at the next boundary)"
           seq (Printexc.to_string e))

(* ---- the commit path ----------------------------------------------- *)

let write t state f =
  let logged =
    Mutex.protect t.write_mu (fun () ->
        let resp, frame = f () in
        match Option.map (Log.append t.log) frame with
        | seq ->
            Option.iter (compact_if_due t state) seq;
            Ok (resp, seq)
        | exception e ->
            Error
              (Printf.sprintf "the write was applied but could not be logged: %s"
                 (Printexc.to_string e)))
  in
  match logged with
  | Error msg -> Error msg
  | Ok (resp, None) -> Ok resp
  | Ok (resp, Some seq) ->
      if
        Log.wait_acked t.log ~seq ~replicas:t.ack_replicas
          ~timeout_s:(float t.ack_timeout_ms /. 1000.)
      then Ok resp
      else
        Error
          (Printf.sprintf
             "write %d applied locally but fewer than %d replicas \
              acknowledged it within %d ms — outcome is replicated-unknown"
             seq t.ack_replicas t.ack_timeout_ms)

(* ---- the repl_* operations ----------------------------------------- *)

let status t ~detail =
  [
    ("role", Json.String "leader");
    ("repl_seq", Json.Int (Log.seq t.log));
    ("base_seq", Json.Int (Log.base_seq t.log));
    ("snapshot_seq", Json.Int (snapshot_seq t));
  ]
  @
  if not detail then []
  else
    [
      ("ack_replicas", Json.Int t.ack_replicas);
      ( "followers",
        Json.List
          (List.map
             (fun (node, acked) ->
               Json.Obj [ ("node", Json.String node); ("acked", Json.Int acked) ])
             (Log.acks t.log)) );
    ]

let ops =
  [ "repl_handshake"; "repl_pull"; "repl_frame"; "repl_snapshot"; "repl_compact" ]

(* a snapshot goes one bounded chunk per round-trip *)
let snap_chunk_bytes = 1 lsl 20

let serve t state op ~node ~seq ~batch ~wait_ms =
  let bad fmt = Printf.ksprintf (fun s -> Error (`Bad_request, s)) fmt in
  let seqs () =
    [
      ("repl_seq", Json.Int (Log.seq t.log));
      ("base_seq", Json.Int (Log.base_seq t.log));
    ]
  in
  (* the one registration: a handshake or a snapshot fetch keeps the
     node alive, and pulling from [from] acks everything before it *)
  (match (node, op, seq) with
  | Some node, ("repl_handshake" | "repl_snapshot"), _ -> Log.ack t.log ~node 0
  | Some node, "repl_pull", Some from when from >= 1 ->
      Log.ack t.log ~node (from - 1)
  | _ -> ());
  match op with
  | "repl_handshake" -> Ok (("role", Json.String "leader") :: seqs ())
  | "repl_pull" -> (
      match seq with
      | None -> bad "op \"repl_pull\" needs a \"seq\" field"
      | Some from when from < 1 -> bad "\"seq\" must be >= 1"
      | Some from ->
          let batch = min 1024 (max 1 (Option.value ~default:64 batch)) in
          let wait_ms = min 10_000 (max 0 (Option.value ~default:0 wait_ms)) in
          let read () = Log.from t.log from ~max:batch in
          let frames =
            match read () with
            | [] when wait_ms > 0 ->
                (* long poll, until a frame arrives, the budget runs
                   out or a drain interrupts the log *)
                ignore
                  (Log.wait t.log ~from ~timeout_s:(float wait_ms /. 1000.));
                read ()
            | frames -> frames
          in
          let frame (s, f) =
            Json.Obj [ ("seq", Json.Int s); ("frame", Json.String f) ]
          in
          Ok (seqs () @ [ ("frames", Json.List (List.map frame frames)) ]))
  | "repl_frame" -> (
      match seq with
      | None -> bad "op \"repl_frame\" needs a \"seq\" field"
      | Some s -> (
          match Log.get t.log s with
          | Some f -> Ok [ ("seq", Json.Int s); ("frame", Json.String f) ]
          | None ->
              bad "no replicated frame %d (log is at %d)" s (Log.seq t.log)))
  | "repl_snapshot" -> (
      (* the chunk index rides [seq]; every chunk repeats the covered
         seq, so a follower sees a snapshot replaced mid-transfer *)
      match Mutex.protect t.snap_mu (fun () -> t.latest) with
      | None -> bad "no snapshot available (the log has never been compacted)"
      | Some (sseq, payload) ->
          let len = String.length payload in
          let total = max 1 ((len + snap_chunk_bytes - 1) / snap_chunk_bytes) in
          let i = Option.value ~default:0 seq in
          if i < 0 || i >= total then
            bad "snapshot chunk %d out of range (0..%d)" i (total - 1)
          else
            let at = i * snap_chunk_bytes in
            Ok
              [
                ("snapshot_seq", Json.Int sseq);
                ("chunks", Json.Int total);
                ( "chunk",
                  Json.String
                    (String.sub payload at (min snap_chunk_bytes (len - at))) );
                ("base_seq", Json.Int (Log.base_seq t.log));
                ("repl_seq", Json.Int (Log.seq t.log));
              ])
  | "repl_compact" -> (
      match Mutex.protect t.write_mu (fun () -> compact_locked t state) with
      | sseq, dropped ->
          Ok
            [
              ("snapshot_seq", Json.Int sseq);
              ("base_seq", Json.Int (Log.base_seq t.log));
              ("dropped", Json.Int dropped);
            ]
      | exception e ->
          Error
            ( `Internal,
              Printf.sprintf "compaction failed: %s" (Printexc.to_string e) ))
  | op -> bad "not a leader op: %s" op

let interrupt t = Log.interrupt t.log
let close t = Log.close t.log
