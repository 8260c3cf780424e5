module Json = Obs.Json

exception Connection_error of string
(* Every transport-layer failure — refused, reset, EOF mid-roundtrip,
   per-attempt timeout — maps to this one retryable exception; protocol
   failures stay [Failure] (fatal: retrying cannot help). *)

let conn_fail fmt = Printf.ksprintf (fun s -> raise (Connection_error s)) fmt

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
}

let connect ?timeout_ms addr =
  let pretty = Wire.addr_to_string addr in
  let connect_fd fd sockaddr =
    try Unix.connect fd sockaddr
    with e -> (
      (try Unix.close fd with Unix.Unix_error _ -> ());
      match e with
      | Unix.Unix_error (err, _, _) ->
          conn_fail "cannot connect to %s: %s" pretty (Unix.error_message err)
      | e -> raise e)
  in
  let fd =
    match addr with
    | Wire.Unix_path path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        connect_fd fd (Unix.ADDR_UNIX path);
        fd
    | Wire.Tcp (host, port) ->
        let inet =
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } ->
                conn_fail "cannot connect to %s: cannot resolve %s" pretty host
            | { Unix.h_addr_list; _ } -> h_addr_list.(0)
            | exception Not_found ->
                conn_fail "cannot connect to %s: cannot resolve %s" pretty host)
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        connect_fd fd (Unix.ADDR_INET (inet, port));
        fd
  in
  (* per-attempt timeout: a read or write that stalls past the budget
     fails the roundtrip as a [Connection_error] instead of hanging the
     caller on a dead peer *)
  (match timeout_ms with
  | Some ms when ms > 0 ->
      let s = float ms /. 1000. in
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
       with Unix.Unix_error _ -> ())
  | _ -> ());
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c =
  (* flushing then closing the fd once; the channels share it *)
  (try flush c.oc with Sys_error _ -> ());
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let roundtrip_raw c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let roundtrip c line =
  try roundtrip_raw c line with
  | End_of_file -> conn_fail "connection closed by server mid-roundtrip"
  | Sys_blocked_io -> conn_fail "timed out waiting for the server"
  | Sys_error e -> conn_fail "connection error: %s" e
  | Unix.Unix_error (err, fn, _) ->
      conn_fail "connection error: %s (%s)" (Unix.error_message err) fn

let request c ?id ?view ?text ?base ?policy ?deadline_ms op =
  let line =
    roundtrip c (Wire.request_to_line ?id ?view ?text ?base ?policy ?deadline_ms op)
  in
  match Json.of_string line with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "unparseable response %S: %s" line e)

let is_ok resp = match Json.member "ok" resp with Some (Json.Bool b) -> b | _ -> false

let error_code resp =
  match Json.find [ "error"; "code" ] resp with
  | Some (Json.String c) -> Some c
  | _ -> None

(* {1 Failover} *)

type failover = {
  eps : Wire.addr array;
  retry : Replicate.Backoff.policy;
  timeout_ms : int option;
  mutable conn : t option;
  mutable cur : int;  (** index into [eps] of the endpoint [conn] is to *)
  mutable failovers : int;
  mutable redirects : int;
}

(* The default retry policy takes a fresh jitter seed per handle:
   optional-argument defaults are evaluated at every call, so two clients
   built at the same instant still back off on different schedules
   instead of hammering a recovering leader in lockstep.  Tests that
   need reproducible delays pass [Replicate.Backoff.default]
   explicitly. *)
let failover ?(retry = Replicate.Backoff.fresh ()) ?timeout_ms endpoints =
  if endpoints = [] then invalid_arg "Client.failover: no endpoints";
  {
    eps = Array.of_list endpoints;
    retry;
    timeout_ms;
    conn = None;
    cur = 0;
    failovers = 0;
    redirects = 0;
  }

let fo_drop f =
  (match f.conn with Some c -> (try close c with _ -> ()) | None -> ());
  f.conn <- None

let failover_close = fo_drop
let failover_stats f = (f.failovers, f.redirects)

(* Where a [not_leader] response points; [None] when the advertised
   address is absent or unparseable. *)
let advertised_leader resp =
  match Json.find [ "error"; "leader" ] resp with
  | Some (Json.String s) -> (
      match Wire.addr_of_string s with Ok a -> Some a | Error _ -> None)
  | _ -> None

let index_of_addr eps a =
  let n = Array.length eps in
  let rec go i = if i >= n then None else if eps.(i) = a then Some i else go (i + 1) in
  go 0

(* One logical roundtrip against whichever endpoint answers.  Transport
   failures ([Connection_error]) advance to the next endpoint under the
   backoff budget; a [not_leader] response jumps straight to the
   advertised leader (no sleep — the redirect is information, not a
   fault) but still consumes an attempt so a redirect loop terminates.
   When the budget runs out, the last response (or the transport error)
   is what the caller sees. *)
let failover_roundtrip f line =
  let delays = Array.of_list (Replicate.Backoff.delays f.retry) in
  let attempts = max 1 f.retry.Replicate.Backoff.attempts in
  let rec attempt k last_resp =
    let next_endpoint () =
      fo_drop f;
      f.cur <- (f.cur + 1) mod Array.length f.eps;
      f.failovers <- f.failovers + 1
    in
    let sleep_before_retry () =
      if k < attempts - 1 && k < Array.length delays then
        let d = delays.(k) in
        if d > 0. then Thread.delay (d /. 1000.)
    in
    if k >= attempts then
      match last_resp with
      | Some resp -> resp
      | None ->
          conn_fail "no endpoint answered after %d attempt(s) (tried %d failover(s))"
            attempts f.failovers
    else
      match
        let c =
          match f.conn with
          | Some c -> c
          | None ->
              let c = connect ?timeout_ms:f.timeout_ms f.eps.(f.cur) in
              f.conn <- Some c;
              c
        in
        roundtrip c line
      with
      | exception Connection_error _ ->
          next_endpoint ();
          sleep_before_retry ();
          attempt (k + 1) last_resp
      | resp -> (
          match Json.of_string resp with
          | Ok v when error_code v = Some "not_leader" ->
              f.redirects <- f.redirects + 1;
              fo_drop f;
              (match advertised_leader v with
              | Some a -> (
                  match index_of_addr f.eps a with
                  | Some i -> f.cur <- i
                  | None -> f.cur <- (f.cur + 1) mod Array.length f.eps)
              | None -> f.cur <- (f.cur + 1) mod Array.length f.eps);
              attempt (k + 1) (Some resp)
          | _ -> resp)
  in
  attempt 0 None

type drive_stats = {
  sent : int;
  ok : int;
  failed : int;
  by_code : (string * int) list;
  mismatches : int;
  wall_s : float;
}

(* Per-worker transport: a plain connection to [addr], or — when
   [endpoints] is given — a failover handle walking the endpoint list,
   so the whole load harness (and every scenario leg built on it)
   tolerates a dying server without changing what it asserts. *)
let worker_transport ?endpoints ?retry ?timeout_ms addr =
  match endpoints with
  | Some (_ :: _ as eps) ->
      let f = failover ?retry ?timeout_ms eps in
      (failover_roundtrip f, fun () -> failover_close f)
  | Some [] | None ->
      let c = connect ?timeout_ms addr in
      (roundtrip c, fun () -> close c)

let drive ?endpoints ?retry ?timeout_ms ~addr ~conns ~frames () =
  let conns = max 1 conns in
  let n = Array.length frames in
  let mu = Mutex.create () in
  let first = Hashtbl.create 997 in
  let codes = Hashtbl.create 16 in
  let ok = ref 0 and failed = ref 0 and mismatches = ref 0 in
  let record frame resp =
    Mutex.protect mu (fun () ->
        (match Hashtbl.find_opt first frame with
        | None -> Hashtbl.add first frame resp
        | Some r -> if not (String.equal r resp) then incr mismatches);
        match Json.of_string resp with
        | Ok v when is_ok v -> incr ok
        | Ok v ->
            incr failed;
            let code = Option.value ~default:"?" (error_code v) in
            Hashtbl.replace codes code
              (1 + Option.value ~default:0 (Hashtbl.find_opt codes code))
        | Error _ ->
            incr failed;
            Hashtbl.replace codes "unparseable"
              (1 + Option.value ~default:0 (Hashtbl.find_opt codes "unparseable")))
  in
  let worker k () =
    let rt, fin = worker_transport ?endpoints ?retry ?timeout_ms addr in
    Fun.protect ~finally:fin (fun () ->
        let i = ref k in
        while !i < n do
          record frames.(!i) (rt frames.(!i));
          i := !i + conns
        done)
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init (min conns (max 1 n)) (fun k -> Thread.create (worker k) ()) in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    sent = n;
    ok = !ok;
    failed = !failed;
    by_code =
      Hashtbl.fold (fun c k acc -> (c, k) :: acc) codes []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    mismatches = !mismatches;
    wall_s;
  }

(* Responses in frame order, workers striding by connection as [drive]
   does — each index is written by exactly one worker, so no lock is
   needed around [out].  With [conns = 1] this is a plain sequential
   replay on a single connection. *)
let play ?endpoints ?retry ?timeout_ms ~addr ~conns frames =
  let conns = max 1 conns in
  let n = Array.length frames in
  let out = Array.make n "" in
  let worker k () =
    let rt, fin = worker_transport ?endpoints ?retry ?timeout_ms addr in
    Fun.protect ~finally:fin (fun () ->
        let i = ref k in
        while !i < n do
          out.(!i) <- rt frames.(!i);
          i := !i + conns
        done)
  in
  let threads =
    List.init (min conns (max 1 n)) (fun k -> Thread.create (worker k) ())
  in
  List.iter Thread.join threads;
  out

let pp_drive_stats ppf s =
  Format.fprintf ppf
    "sent %d: %d ok, %d errors%s; %d mismatch(es); %.3fs wall (%.0f req/s)"
    s.sent s.ok s.failed
    (match s.by_code with
    | [] -> ""
    | codes ->
        " ("
        ^ String.concat ", "
            (List.map (fun (c, k) -> Printf.sprintf "%s: %d" c k) codes)
        ^ ")")
    s.mismatches s.wall_s
    (if s.wall_s > 0. then float s.sent /. s.wall_s else 0.)
