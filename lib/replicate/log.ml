module Frames = Journal.Frames

let magic = "SITREPL1"

(* A truncated log persists its base as a special first record.  Data
   frames are canonical JSON request lines (they start with '{'), so a
   "base N" payload can never be mistaken for one. *)
let base_header b = Printf.sprintf "base %d" b

let parse_base_header p =
  if String.length p > 5 && String.sub p 0 5 = "base " then
    int_of_string_opt (String.sub p 5 (String.length p - 5))
  else None

type t = {
  mu : Mutex.t;
  mutable base : int;  (* seqs [1..base] are compacted away *)
  mutable frames : string array;  (* seq s lives at index s - base - 1 *)
  mutable len : int;  (* live frames; highest seq is base + len *)
  mutable file : Frames.t option;
  mutable closed : bool;
  mutable interrupted : bool;  (* waits return at once; set by [close] too *)
  truncated : int;
  liveness_s : float;
  acks : (string, int * float) Hashtbl.t;
      (* node id -> (highest applied seq, last seen) *)
}

let create ?persist ?(liveness_s = 30.) () =
  let payloads, truncated, file =
    match persist with
    | None -> ([], 0, None)
    | Some path ->
        (* fsync every record: an acknowledged write must be on disk *)
        let recovery, f = Frames.open_ ~fsync:Frames.Always ~magic path in
        (recovery.Frames.payloads, recovery.Frames.truncated_bytes, Some f)
  in
  let base, payloads =
    match payloads with
    | p :: rest -> (
        match parse_base_header p with
        | Some b -> (b, rest)
        | None -> (0, payloads))
    | [] -> (0, [])
  in
  let len = List.length payloads in
  let frames = Array.make (max 64 len) "" in
  List.iteri (fun i p -> frames.(i) <- p) payloads;
  {
    mu = Mutex.create ();
    base;
    frames;
    len;
    file;
    closed = false;
    interrupted = false;
    truncated;
    liveness_s = Float.max 0.001 liveness_s;
    acks = Hashtbl.create 8;
  }

let truncated_bytes t = t.truncated
let seq t = Mutex.protect t.mu (fun () -> t.base + t.len)
let base_seq t = Mutex.protect t.mu (fun () -> t.base)

let append t frame =
  Mutex.protect t.mu (fun () ->
      if t.closed then invalid_arg "Replicate.Log.append: log is closed";
      if t.len = Array.length t.frames then begin
        let bigger = Array.make (2 * Array.length t.frames) "" in
        Array.blit t.frames 0 bigger 0 t.len;
        t.frames <- bigger
      end;
      (* disk first: a crash between the two leaves the frame
         recoverable, never acknowledged-but-lost *)
      (match t.file with Some f -> Frames.append f frame | None -> ());
      t.frames.(t.len) <- frame;
      t.len <- t.len + 1;
      t.base + t.len)

let get t s =
  Mutex.protect t.mu (fun () ->
      if s > t.base && s <= t.base + t.len then Some t.frames.(s - t.base - 1)
      else None)

let from t s ~max:m =
  Mutex.protect t.mu (fun () ->
      let lo = max (t.base + 1) s in
      let hi = min (t.base + t.len) (lo + max 0 m - 1) in
      if hi < lo then []
      else
        List.init (hi - lo + 1) (fun i ->
            (lo + i, t.frames.(lo + i - t.base - 1))))

(* Waiters poll under a small sleep instead of a condition variable:
   the stdlib [Condition] has no timed wait, and a few milliseconds of
   granularity is far below every timeout used here. *)
let poll_until ~timeout_s f =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec loop () =
    match f () with
    | Some v -> v
    | None ->
        if Unix.gettimeofday () >= deadline then false
        else begin
          Thread.delay 0.003;
          loop ()
        end
  in
  loop ()

let wait t ~from ~timeout_s =
  poll_until ~timeout_s (fun () ->
      Mutex.protect t.mu (fun () ->
          if t.base + t.len >= from then Some true
          else if t.interrupted then Some false
          else None))

(* ---- acks ----------------------------------------------------------
   Keyed by the follower-generated node id it sends in repl_handshake —
   NOT by anything the transport implies — and expired after
   [liveness_s] without a pull, so a restarted or vanished follower
   can neither double-count toward a quorum nor pin the truncation
   point (or the repl_status listing) forever. *)

let prune_locked t =
  let now = Unix.gettimeofday () in
  let dead =
    Hashtbl.fold
      (fun node (_, seen) acc ->
        if now -. seen > t.liveness_s then node :: acc else acc)
      t.acks []
  in
  List.iter (Hashtbl.remove t.acks) dead

let ack t ~node s =
  Mutex.protect t.mu (fun () ->
      prune_locked t;
      let now = Unix.gettimeofday () in
      let prev =
        match Hashtbl.find_opt t.acks node with Some (p, _) -> p | None -> 0
      in
      Hashtbl.replace t.acks node (max prev s, now))

let acks t =
  Mutex.protect t.mu (fun () ->
      prune_locked t;
      Hashtbl.fold (fun n (s, _) acc -> (n, s) :: acc) t.acks []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let acked_by_locked t s =
  prune_locked t;
  Hashtbl.fold
    (fun _ (applied, _) n -> if applied >= s then n + 1 else n)
    t.acks 0

let acked_by t s = Mutex.protect t.mu (fun () -> acked_by_locked t s)

let lowest_live_ack t =
  Mutex.protect t.mu (fun () ->
      prune_locked t;
      Hashtbl.fold
        (fun _ (applied, _) acc ->
          match acc with
          | None -> Some applied
          | Some lo -> Some (min lo applied))
        t.acks None)

let wait_acked t ~seq ~replicas ~timeout_s =
  replicas <= 0
  || poll_until ~timeout_s (fun () ->
         Mutex.protect t.mu (fun () ->
             if acked_by_locked t seq >= replicas then Some true
             else if t.interrupted then Some false
             else None))

(* ---- compaction ---------------------------------------------------- *)

let truncate t upto =
  Mutex.protect t.mu (fun () ->
      let bound = min upto (t.base + t.len) in
      if bound <= t.base then 0
      else begin
        let dropped = bound - t.base in
        let remaining = t.len - dropped in
        let frames = Array.make (max 64 remaining) "" in
        Array.blit t.frames dropped frames 0 remaining;
        t.frames <- frames;
        t.len <- remaining;
        t.base <- bound;
        (* the on-disk prefix goes with it, atomically (tmp + rename),
           with the new base recorded as the leading header record *)
        (match t.file with
        | Some f ->
            Frames.rewrite f
              (base_header bound :: Array.to_list (Array.sub frames 0 remaining))
        | None -> ());
        dropped
      end)

let interrupt t = Mutex.protect t.mu (fun () -> t.interrupted <- true)

let close t =
  Mutex.protect t.mu (fun () ->
      t.interrupted <- true;
      if not t.closed then begin
        t.closed <- true;
        match t.file with
        | Some f ->
            (try Frames.close f with Sys_error _ -> ());
            t.file <- None
        | None -> ()
      end)
