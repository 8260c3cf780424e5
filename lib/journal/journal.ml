(* The session journal: Integrate.Op payload semantics (op text for
   ops, Dictionary documents for snapshots) layered over the generic
   framed log in frames.ml. *)

module Frames = Frames

let magic = "SITJRNL1"

type fsync_policy = Frames.fsync_policy = Never | Every of int | Always

type t = {
  frames : Frames.t;
  checkpoint_every : int;
  mu : Mutex.t;
      (* serializes every mutation (append/checkpoint/compact/reset/
         close), so concurrent appenders get a total order: seq numbers
         are dense and frames hit the file in seq order *)
  mutable seq : int;
  mutable since_checkpoint : int;
  mutable closed : bool;
}

type recovery = {
  workspace : Integrate.Workspace.t;
  seq : int;
  records : int;
  truncated_bytes : int;
}

(* ------------------------------------------------------------------ *)
(* Observability.  (fsyncs/fsync_ms/truncated_bytes live in Frames.)   *)

let c_appends = Obs.Counter.make "journal.appends"
let c_recovered = Obs.Counter.make "journal.recovered_records"

(* ------------------------------------------------------------------ *)
(* Fault injection: the hook lives at the byte layer.                  *)

module For_testing = Frames.For_testing

(* ------------------------------------------------------------------ *)
(* Record (de)serialisation.                                           *)

exception Corrupt
(* Internal: a CRC-valid record whose payload does not parse.  Recovery
   treats it exactly like a checksum failure — truncate there. *)

type record =
  | Rop of int * Integrate.Op.t
  | Rsnap of int * Integrate.Workspace.t

let payload_of_record = function
  | Rop (seq, op) -> Printf.sprintf "op %d\n%s" seq (Integrate.Op.to_string op)
  | Rsnap (seq, ws) -> Printf.sprintf "snap %d\n%s" seq (Dictionary.to_string ws)

let record_of_payload payload =
  match String.index_opt payload '\n' with
  | None -> raise Corrupt
  | Some i -> (
      let header = String.sub payload 0 i in
      let body = String.sub payload (i + 1) (String.length payload - i - 1) in
      match String.split_on_char ' ' header with
      | [ "op"; s ] -> (
          match int_of_string_opt s with
          | Some seq -> (
              match Integrate.Op.of_string body with
              | Ok op -> Rop (seq, op)
              | Error _ -> raise Corrupt)
          | None -> raise Corrupt)
      | [ "snap"; s ] -> (
          match int_of_string_opt s with
          | Some seq -> Rsnap (seq, Dictionary.of_string body)
          | None -> raise Corrupt)
      | _ -> raise Corrupt)

let valid_payload payload =
  match record_of_payload payload with _ -> true | exception _ -> false

(* ------------------------------------------------------------------ *)
(* Recovery: replay the longest valid record prefix.                   *)

let replay records =
  List.fold_left
    (fun (ws, _) r ->
      match r with
      | Rsnap (seq, w) -> (w, seq)
      | Rop (seq, op) -> (Integrate.Op.apply op ws, seq))
    (Integrate.Workspace.empty, 0)
    records

let ops_since_snapshot records =
  List.fold_left
    (fun acc r -> match r with Rsnap _ -> 0 | Rop _ -> acc + 1)
    0 records

let recovery_of (fr : Frames.recovery) =
  let records = List.map record_of_payload fr.Frames.payloads in
  let workspace, seq = replay records in
  Obs.Counter.add c_recovered (List.length records);
  ( { workspace; seq; records = List.length records;
      truncated_bytes = fr.Frames.truncated_bytes },
    records )

let recover path =
  fst (recovery_of (Frames.recover ~validate:valid_payload ~magic path))

(* ------------------------------------------------------------------ *)
(* The append side.                                                    *)

let open_ ?(fsync = Every 8) ?(checkpoint_every = 64) path =
  let fr, frames = Frames.open_ ~fsync ~validate:valid_payload ~magic path in
  let recovery, records = recovery_of fr in
  ( recovery,
    {
      frames;
      checkpoint_every = Int.max 1 checkpoint_every;
      mu = Mutex.create ();
      seq = recovery.seq;
      since_checkpoint = ops_since_snapshot records;
      closed = false;
    } )

let check_open t = if t.closed then invalid_arg "Journal: journal is closed"

let checkpoint_locked t ws =
  check_open t;
  Frames.append_raw t.frames (payload_of_record (Rsnap (t.seq, ws)));
  t.since_checkpoint <- 0;
  Frames.sync_now t.frames

let checkpoint t ws = Mutex.protect t.mu (fun () -> checkpoint_locked t ws)

let append ?after t op =
  Mutex.protect t.mu (fun () ->
      check_open t;
      Frames.append t.frames (payload_of_record (Rop (t.seq + 1, op)));
      t.seq <- t.seq + 1;
      t.since_checkpoint <- t.since_checkpoint + 1;
      Obs.Counter.incr c_appends;
      match after with
      | Some ws when t.since_checkpoint >= t.checkpoint_every ->
          checkpoint_locked t ws
      | _ -> ())

let reset t =
  Mutex.protect t.mu (fun () ->
      check_open t;
      Frames.reset t.frames;
      t.seq <- 0;
      t.since_checkpoint <- 0)

let compact t ws =
  Mutex.protect t.mu (fun () ->
      check_open t;
      Frames.rewrite t.frames [ payload_of_record (Rsnap (t.seq, ws)) ];
      t.since_checkpoint <- 0)

let seq (t : t) = Mutex.protect t.mu (fun () -> t.seq)
let path (t : t) = Frames.path t.frames

let close t =
  Mutex.protect t.mu (fun () ->
      if not t.closed then begin
        Frames.close t.frames;
        t.closed <- true
      end)
