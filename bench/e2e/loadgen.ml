(* The load generator: one thread, one Unix.select loop, one TCP
   connection per stream, JSON-lines framing.

   Open loop: each stream draws Poisson arrivals from its own seeded
   generator; a request falls due on that schedule whether or not
   earlier ones were answered.  A connection carries one request at a
   time, as a client with a pool of connections does, so requests that
   fall due while their connection is busy wait in the generator's
   queue.  Every request is timed from its due time, so a stall is
   charged to all the requests queued behind it.

   Why no pipelining: sit_serve leaves Nagle's algorithm on.  A
   response written while the previous one is still unacknowledged
   waits for the client's next segment, and from then on every
   response waits for the next request (delayed ACK on the client side
   keeps the chain going).  A pipelining client would measure that
   interaction, at a latency that depends on the arrival rate, rather
   than the server.

   Closed loop: each stream keeps exactly one request outstanding.
   Every response is checked as it arrives. *)

module Prng = Workload.Prng

type check =
  | Exact of string  (** the response line must equal this *)
  | Ok_only  (** the response must be ok *)
  | Keep of int  (** ok, and the line is kept at this slot of [kept] *)

(* ---- per-phase records ---------------------------------------------- *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.; n = 0 }

let push s v =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let values s = Array.sub s.a 0 s.n

type cls_rec = {
  lat : samples;  (** ms from due time to a good response *)
  mutable sent : int;
  mutable good : int;
  mutable failed : int;  (** error responses, [overloaded] included *)
  mutable mismatched : int;
  mutable dropped : int;  (** never answered *)
}

let read_cls = 0
let write_cls = 1

type phase = {
  label : string;
  classes : cls_rec array;  (** indexed by [read_cls] / [write_cls] *)
  late : samples;  (** ms the generator itself ran behind a due time *)
  mutable completed : int;  (** responses that arrived inside the window *)
  mutable t0 : float;
  mutable t1 : float;
  mutable out_start : int;
  mutable out_end : int;
  mutable backlog_max : int;
}

let new_phase label =
  {
    label;
    classes =
      Array.init 2 (fun _ ->
          { lat = samples (); sent = 0; good = 0; failed = 0; mismatched = 0; dropped = 0 });
    late = samples ();
    completed = 0;
    t0 = 0.;
    t1 = 0.;
    out_start = 0;
    out_end = 0;
    backlog_max = 0;
  }

(* ---- streams -------------------------------------------------------- *)

type req = { due : float; frame : string; check : check; phase : phase }

type stream = {
  fd : Unix.file_descr;
  cls : int;
  source : unit -> string * check;  (** the next frame and its check *)
  g : Prng.t;  (** arrival process *)
  mutable rate : float;  (** open loop, requests per second *)
  mutable next_due : float;
  waiting : req Queue.t;  (** fallen due, not sent yet *)
  mutable inflight : req option;
  mutable out : string;  (** the in-flight frame, newline included *)
  mutable out_pos : int;
  mutable inb : Bytes.t;
  mutable in_pos : int;
  mutable in_len : int;
  mutable eof : bool;
}

type t = {
  spin : bool;
      (** busy-poll instead of sleeping in select, so a response is
          seen as it arrives and a due time is met to the microsecond;
          only when the generator has a CPU of its own *)
  mutable tick : (unit -> unit) option;
      (** called every [tick_s] while a phase runs (the traced run's
          health polling) *)
  mutable last_tick : float;
  mutable streams : stream list;
  mutable phases : phase list;  (** newest first *)
  mutable cur : phase;
  mutable kept : string array;
  mutable first_problem : string option;
}

let create ~spin () =
  {
    spin;
    tick = None;
    last_tick = 0.;
    streams = [];
    phases = [];
    cur = new_phase "idle";
    kept = [||];
    first_problem = None;
  }

let tick_s = 0.1

(* Runs the tick when it is due; returns when the next one is. *)
let ticked t now =
  match t.tick with
  | None -> infinity
  | Some f ->
      if now >= t.last_tick +. tick_s then begin
        t.last_tick <- now;
        f ()
      end;
      t.last_tick +. tick_s

let add_stream t ~port ~cls ~seed source =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.set_nonblock fd;
  let s =
    {
      fd;
      cls;
      source;
      g = Prng.create seed;
      rate = 0.;
      next_due = infinity;
      waiting = Queue.create ();
      inflight = None;
      out = "";
      out_pos = 0;
      inb = Bytes.create 262144;
      in_pos = 0;
      in_len = 0;
      eof = false;
    }
  in
  t.streams <- t.streams @ [ s ];
  s

let outstanding t =
  List.fold_left
    (fun n s -> n + Queue.length s.waiting + if s.inflight = None then 0 else 1)
    0 t.streams

let close t =
  List.iter (fun s -> try Unix.close s.fd with Unix.Unix_error _ -> ()) t.streams;
  t.streams <- []

let problem t fmt =
  Printf.ksprintf (fun s -> if t.first_problem = None then t.first_problem <- Some s) fmt

(* ---- sending -------------------------------------------------------- *)

let flush s =
  let len = String.length s.out in
  let rec go () =
    if s.out_pos < len && not s.eof then
      match Unix.write_substring s.fd s.out s.out_pos (len - s.out_pos) with
      | n ->
          s.out_pos <- s.out_pos + n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> s.eof <- true
  in
  go ()

(* Puts the next waiting request on the wire if the connection is idle. *)
let start_next s =
  if s.inflight = None && not s.eof then
    match Queue.take_opt s.waiting with
    | None -> ()
    | Some r ->
        s.inflight <- Some r;
        s.out <- r.frame ^ "\n";
        s.out_pos <- 0;
        flush s

let fall_due t s ~due ~now =
  let frame, check = s.source () in
  let ph = t.cur in
  Queue.push { due; frame; check; phase = ph } s.waiting;
  let cr = ph.classes.(s.cls) in
  cr.sent <- cr.sent + 1;
  push ph.late ((now -. due) *. 1000.);
  start_next s

(* ---- receiving ------------------------------------------------------ *)

let ok_marker = "\"ok\":true"

(* Responses are canonical one-line JSON whose "ok" field follows at
   most a short "id". *)
let is_ok buf pos len =
  let k = String.length ok_marker in
  let rec at i j = j = k || (Bytes.unsafe_get buf (i + j) = ok_marker.[j] && at i (j + 1)) in
  let rec scan i = i + k <= pos + min len 96 && (at i 0 || scan (i + 1)) in
  scan pos

let equal_sub buf pos len s =
  String.length s = len
  &&
  let rec go i = i = len || (Bytes.unsafe_get buf (pos + i) = String.unsafe_get s i && go (i + 1)) in
  go 0

let keep t slot line =
  if slot >= Array.length t.kept then begin
    let b = Array.make (max 1024 (2 * slot)) "" in
    Array.blit t.kept 0 b 0 (Array.length t.kept);
    t.kept <- b
  end;
  t.kept.(slot) <- line

let response t s ~now pos len =
  match s.inflight with
  | None -> problem t "unsolicited response: %s" (Bytes.sub_string s.inb pos (min len 300))
  | Some r ->
      s.inflight <- None;
      let cr = r.phase.classes.(s.cls) in
      let ok = is_ok s.inb pos len in
      let good =
        match r.check with
        | Ok_only -> ok
        | Exact e -> ok && equal_sub s.inb pos len e
        | Keep slot ->
            if ok then keep t slot (Bytes.sub_string s.inb pos len);
            ok
      in
      if good then begin
        cr.good <- cr.good + 1;
        push cr.lat ((now -. r.due) *. 1000.)
      end
      else begin
        if ok then cr.mismatched <- cr.mismatched + 1 else cr.failed <- cr.failed + 1;
        problem t "%s response to %s: %s"
          (if ok then "mismatched" else "failed")
          r.frame
          (Bytes.sub_string s.inb pos (min len 300))
      end;
      if r.phase.t1 = 0. then r.phase.completed <- r.phase.completed + 1;
      start_next s

let read_stream t s =
  if s.in_len = Bytes.length s.inb then begin
    let live = s.in_len - s.in_pos in
    let b = if live < Bytes.length s.inb / 2 then s.inb else Bytes.create (2 * Bytes.length s.inb) in
    Bytes.blit s.inb s.in_pos b 0 live;
    s.inb <- b;
    s.in_pos <- 0;
    s.in_len <- live
  end;
  match Unix.read s.fd s.inb s.in_len (Bytes.length s.inb - s.in_len) with
  | 0 -> s.eof <- true
  | n ->
      let now = Util.now () in
      let scan_from = s.in_len in
      s.in_len <- s.in_len + n;
      let rec nl i =
        if i >= s.in_len then -1 else if Bytes.unsafe_get s.inb i = '\n' then i else nl (i + 1)
      in
      let rec lines from =
        let i = nl from in
        if i >= 0 then begin
          let pos = s.in_pos in
          s.in_pos <- i + 1;
          response t s ~now pos (i - pos);
          lines s.in_pos
        end
      in
      lines scan_from;
      if s.in_pos = s.in_len then begin
        s.in_pos <- 0;
        s.in_len <- 0
      end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> s.eof <- true

(* One select round: finish partial writes, read what arrived. *)
let io t ~timeout =
  let live = List.filter (fun s -> not s.eof) t.streams in
  let rd = List.map (fun s -> s.fd) live in
  let wr = List.filter_map (fun s -> if s.out_pos < String.length s.out then Some s.fd else None) live in
  match Unix.select rd wr [] (Float.max 0. timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
      List.iter (fun s -> if List.memq s.fd writable then flush s) live;
      List.iter (fun s -> if List.memq s.fd readable then read_stream t s) live

(* ---- phases --------------------------------------------------------- *)

let expo g rate = -.log (1. -. Prng.float g) /. rate

let begin_phase t label =
  let ph = new_phase label in
  ph.t0 <- Util.now ();
  ph.out_start <- outstanding t;
  t.cur <- ph;
  t.phases <- ph :: t.phases;
  ph

let end_phase t ph =
  ph.t1 <- Util.now ();
  ph.out_end <- outstanding t

(* Open loop at the streams' current rates for [duration] seconds.  The
   next phase continues from the backlog this one leaves. *)
let open_loop t ~label ~duration =
  let ph = begin_phase t label in
  let t_end = ph.t0 +. duration in
  List.iter
    (fun s -> s.next_due <- (if s.rate > 0. then ph.t0 +. expo s.g s.rate else infinity))
    t.streams;
  let rec loop () =
    let now = Util.now () in
    if now < t_end then begin
      List.iter
        (fun s ->
          while s.next_due <= now do
            fall_due t s ~due:s.next_due ~now;
            s.next_due <- s.next_due +. expo s.g s.rate
          done)
        t.streams;
      let o = outstanding t in
      if o > ph.backlog_max then ph.backlog_max <- o;
      let next = List.fold_left (fun m s -> Float.min m s.next_due) t_end t.streams in
      let next = Float.min next (ticked t now) in
      io t ~timeout:(if t.spin then 0. else next -. Util.now ());
      loop ()
    end
  in
  loop ();
  end_phase t ph;
  ph

(* Closed loop: every stream keeps one request in flight. *)
let closed_loop t ~label ~duration =
  let ph = begin_phase t label in
  let t_end = ph.t0 +. duration in
  let rec loop () =
    let now = Util.now () in
    if now < t_end then begin
      List.iter
        (fun s ->
          if s.inflight = None && Queue.is_empty s.waiting then fall_due t s ~due:now ~now)
        t.streams;
      io t ~timeout:(if t.spin then 0. else Float.min t_end (ticked t now) -. now);
      loop ()
    end
  in
  loop ();
  end_phase t ph;
  ph

(* Waits for every outstanding response; what never arrives is dropped. *)
let drain t ~timeout =
  let deadline = Util.now () +. timeout in
  let busy s = (s.inflight <> None || not (Queue.is_empty s.waiting)) && not s.eof in
  let rec loop () =
    if List.exists busy t.streams && Util.now () < deadline then begin
      io t ~timeout:(Float.min 0.05 (deadline -. Util.now ()));
      loop ()
    end
  in
  loop ();
  List.iter
    (fun s ->
      let drop (r : req) =
        let cr = r.phase.classes.(s.cls) in
        cr.dropped <- cr.dropped + 1;
        problem t "no response to %s" r.frame
      in
      Option.iter drop s.inflight;
      s.inflight <- None;
      Queue.iter drop s.waiting;
      Queue.clear s.waiting)
    t.streams
