(* The session journal: Integrate.Op payload semantics (directive
   syntax for ops, Dictionary documents for snapshots) layered over the
   generic framed log in frames.ml. *)

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

let op_to_string op =
  let qn = Ecr.Qname.to_string in
  let qa = Ecr.Qname.Attr.to_string in
  match op with
  | Integrate.Op.Add_schema s -> "schema\n" ^ Ddl.Printer.to_string s
  | Integrate.Op.Remove_schema n -> "rmschema " ^ Ecr.Name.to_string n
  | Integrate.Op.Declare_equivalent (a, b) ->
      Printf.sprintf "equiv %s %s" (qa a) (qa b)
  | Integrate.Op.Separate_attribute a -> "sep " ^ qa a
  | Integrate.Op.Assert_object (a, c, b) ->
      Printf.sprintf "object %s %d %s" (qn a) (Integrate.Assertion.code c) (qn b)
  | Integrate.Op.Assert_relationship (a, c, b) ->
      Printf.sprintf "rel %s %d %s" (qn a) (Integrate.Assertion.code c) (qn b)
  | Integrate.Op.Retract_object (a, b) ->
      Printf.sprintf "retract %s %s" (qn a) (qn b)
  | Integrate.Op.Retract_relationship (a, b) ->
      Printf.sprintf "retractrel %s %s" (qn a) (qn b)
  | Integrate.Op.Rename (a, b, forced) ->
      Printf.sprintf "name %s %s %s" (qn a) (qn b) forced

let op_of_string text =
  let qattr s =
    match String.split_on_char '.' s with
    | [ a; b; c ] -> Ecr.Qname.Attr.v a b c
    | _ -> raise Corrupt
  in
  let qname s =
    match String.split_on_char '.' s with
    | [ a; b ] -> Ecr.Qname.v a b
    | _ -> raise Corrupt
  in
  let code s =
    match Option.bind (int_of_string_opt s) Integrate.Assertion.of_code with
    | Some a -> a
    | None -> raise Corrupt
  in
  if String.length text >= 7 && String.sub text 0 7 = "schema\n" then
    let ddl = String.sub text 7 (String.length text - 7) in
    match Ddl.Parser.schemas_of_string ddl with
    | [ s ] -> Integrate.Op.Add_schema s
    | _ -> raise Corrupt
  else
    match String.split_on_char ' ' text |> List.filter (fun s -> s <> "") with
    | [ "rmschema"; n ] -> Integrate.Op.Remove_schema (Ecr.Name.v n)
    | [ "equiv"; a; b ] -> Integrate.Op.Declare_equivalent (qattr a, qattr b)
    | [ "sep"; a ] -> Integrate.Op.Separate_attribute (qattr a)
    | [ "object"; a; c; b ] ->
        Integrate.Op.Assert_object (qname a, code c, qname b)
    | [ "rel"; a; c; b ] ->
        Integrate.Op.Assert_relationship (qname a, code c, qname b)
    | [ "retract"; a; b ] -> Integrate.Op.Retract_object (qname a, qname b)
    | [ "retractrel"; a; b ] ->
        Integrate.Op.Retract_relationship (qname a, qname b)
    | [ "name"; a; b; forced ] when Ecr.Name.is_valid forced ->
        Integrate.Op.Rename (qname a, qname b, forced)
    | _ -> raise Corrupt

type record =
  | Rop of int * Integrate.Op.t
  | Rsnap of int * Integrate.Workspace.t

let payload_of_record = function
  | Rop (seq, op) -> Printf.sprintf "op %d\n%s" seq (op_to_string op)
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
          | Some seq -> Rop (seq, op_of_string body)
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
