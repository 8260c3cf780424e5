(* The byte layer shared by every framed log in the system: magic
   header, length+CRC framing, longest-valid-prefix recovery, fsync
   policy, atomic rewrite.  Payload semantics live in the callers
   (journal.ml, lib/replicate's log and snapshots). *)

type fsync_policy = Never | Every of int | Always

type t = {
  path : string;
  magic : string;
  mutable fd : Unix.file_descr;
  fsync : fsync_policy;
  mutable unsynced : int;
  mutable closed : bool;
}

type recovery = { payloads : string list; truncated_bytes : int }

(* Shared by every framed log (the session journal, the replication
   log, snapshots): their fsyncs land on the same journal.*
   observability names. *)
let c_fsyncs = Obs.Counter.make "journal.fsyncs"
let c_truncated = Obs.Counter.make "journal.truncated_bytes"
let h_fsync_ms = Obs.Histogram.make "journal.fsync_ms"

module For_testing = struct
  exception Crash

  let write_limit : int option ref = ref None
end

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* All appended bytes funnel through here so the crash hook can cut any
   record short at an arbitrary byte offset. *)
let write_raw fd s =
  match !For_testing.write_limit with
  | None -> write_all fd s
  | Some budget ->
      let k = Int.min budget (String.length s) in
      For_testing.write_limit := Some (budget - k);
      write_all fd (String.sub s 0 k);
      if k < String.length s then raise For_testing.Crash

let frame payload =
  let header = Bytes.create 8 in
  Bytes.set_int32_le header 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_le header 4 (Int32.of_int (Crc32.digest payload));
  Bytes.to_string header ^ payload

let u32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Recovery: scan the longest valid record prefix.                     *)

(* Returns the payloads and the byte offset where validity ends.  Every
   failure mode — short header, length beyond EOF, CRC mismatch, a
   payload the caller's [validate] rejects — stops the scan at the
   current offset; nothing is ever raised. *)
let scan ~validate ~magic data =
  let n = String.length data in
  if n < String.length magic || String.sub data 0 (String.length magic) <> magic
  then ([], 0)
  else begin
    let payloads = ref [] in
    let pos = ref (String.length magic) in
    let stop = ref false in
    while not !stop do
      if !pos + 8 > n then stop := true
      else begin
        let len = u32 data !pos and crc = u32 data (!pos + 4) in
        if len > n - !pos - 8 then stop := true
        else begin
          let payload = String.sub data (!pos + 8) len in
          if Crc32.digest payload <> crc then stop := true
          else if not (try validate payload with _ -> false) then stop := true
          else begin
            payloads := payload :: !payloads;
            pos := !pos + 8 + len
          end
        end
      end
    done;
    (List.rev !payloads, !pos)
  end

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* payloads, valid-prefix end, file length *)
let scan_file ~validate ~magic path =
  match read_file path with
  | None -> (([], 0), 0)
  | Some data -> (scan ~validate ~magic data, String.length data)

let recover ?(validate = fun _ -> true) ~magic path =
  let (payloads, valid_end), file_len = scan_file ~validate ~magic path in
  Obs.Counter.add c_truncated (file_len - valid_end);
  { payloads; truncated_bytes = file_len - valid_end }

(* ------------------------------------------------------------------ *)
(* The append side.                                                    *)

let do_fsync t =
  let t0 = Unix.gettimeofday () in
  Unix.fsync t.fd;
  Obs.Histogram.observe h_fsync_ms ((Unix.gettimeofday () -. t0) *. 1000.);
  Obs.Counter.incr c_fsyncs

let open_ ?(fsync = Every 8) ?(validate = fun _ -> true) ~magic path =
  let (payloads, valid_end), file_len = scan_file ~validate ~magic path in
  Obs.Counter.add c_truncated (file_len - valid_end);
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let t = { path; magic; fd; fsync; unsynced = 0; closed = false } in
  if valid_end = 0 then begin
    (* missing, empty or headerless file: start clean.  An empty file
       is not truncated: on some file systems truncating costs tens of
       milliseconds even when there is nothing to cut. *)
    if file_len > 0 then Unix.ftruncate fd 0;
    write_all fd magic
  end
  else if valid_end < file_len then
    (* drop the torn/corrupt tail so appends extend the valid prefix *)
    Unix.ftruncate fd valid_end;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  if fsync <> Never && (valid_end = 0 || valid_end < file_len) then do_fsync t;
  ({ payloads; truncated_bytes = file_len - valid_end }, t)

let check_open t = if t.closed then invalid_arg "Frames: log is closed"

(* Appends the framed payload and applies the fsync policy; callers
   that batch policy application (Journal's snapshot path) use
   [append_raw] + [sync_policy] separately. *)
let append_raw t payload =
  check_open t;
  write_raw t.fd (frame payload)

let sync_now t =
  if t.fsync <> Never then begin
    do_fsync t;
    t.unsynced <- 0
  end

let sync_policy t =
  match t.fsync with
  | Always -> do_fsync t
  | Every n ->
      t.unsynced <- t.unsynced + 1;
      if t.unsynced >= Int.max 1 n then begin
        do_fsync t;
        t.unsynced <- 0
      end
  | Never -> ()

let append t payload =
  append_raw t payload;
  sync_policy t

let reset t =
  check_open t;
  Unix.ftruncate t.fd (String.length t.magic);
  ignore (Unix.lseek t.fd 0 Unix.SEEK_END);
  t.unsynced <- 0;
  if t.fsync <> Never then do_fsync t

let rewrite_regular t payloads =
  let tmp = t.path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd t.magic;
      List.iter (fun p -> write_all fd (frame p)) payloads;
      Unix.fsync fd);
  (* the rename is the commit point: readers see either the old log or
     the rewritten one, never a partial file *)
  Sys.rename tmp t.path;
  Unix.close t.fd;
  t.fd <- Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644;
  t.unsynced <- 0

let rewrite t payloads =
  check_open t;
  match (Unix.lstat t.path).Unix.st_kind with
  | exception Unix.Unix_error _ -> rewrite_regular t payloads
  | Unix.S_REG -> rewrite_regular t payloads
  | _ ->
      (* renaming over a non-regular path (/dev/null, a fifo) would
         destroy it; rewrite in place instead — not atomic, but the
         target is not a recoverable log anyway *)
      reset t;
      List.iter (fun p -> append_raw t p) payloads;
      sync_now t

let fsync_policy t = t.fsync
let path t = t.path

let close t =
  if not t.closed then begin
    if t.fsync <> Never then do_fsync t;
    Unix.close t.fd;
    t.closed <- true
  end
