(* sit_serve processes: spawn on the workload's files, learn the port
   the kernel picked, query them over the control ops, stop them.
   Every spawned process is killed and reaped at exit, whatever path
   the benchmark leaves by. *)

type t = {
  name : string;
  pid : int;
  log : string;  (** the daemon's stderr *)
  mutable port : int;
  mutable alive : bool;
}

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  Hashtbl.remove live pid

let kill_all () =
  Hashtbl.iter
    (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    live;
  List.iter reap (Hashtbl.fold (fun pid () acc -> pid :: acc) live [])

let () = at_exit kill_all

(* The shipped defaults apply: [SIT_JOBS] is removed, so every daemon
   runs Par.default_jobs () = 1. *)
let env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"SIT_JOBS=" kv))
  |> Array.of_list

(* CPU placement.  With two or more CPUs and taskset available, the
   load generator keeps CPU 0 to itself (and busy-polls it) and every
   daemon runs on the others, so generator and daemons never compete
   for a core and the generator never pays a wake-up.  Otherwise
   nothing is pinned and the generator blocks in select. *)
let taskset = "/usr/bin/taskset"
let daemon_cpus : string option ref = ref None

(* CPUs available, read at start-up: once [place] pins this process to
   CPU 0, the runtime reports 1. *)
let nproc = Domain.recommended_domain_count ()

let place () =
  let cpus = Printf.sprintf "1-%d" (nproc - 1) in
  let ok cmd = Sys.command (cmd ^ " >/dev/null 2>&1") = 0 in
  if
    nproc >= 2 && Sys.file_exists taskset
    && ok (Printf.sprintf "%s -c %s true" taskset cpus)
    && ok (Printf.sprintf "%s -pc 0 %d" taskset (Unix.getpid ()))
  then daemon_cpus := Some cpus;
  !daemon_cpus <> None

let spawn ~serve ~dir ~name args =
  let log = Filename.concat dir (name ^ ".log") in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv = Array.of_list (serve :: args @ [ "--listen"; "127.0.0.1:0" ]) in
  let serve, argv =
    match !daemon_cpus with
    | Some cpus -> (taskset, Array.append [| "taskset"; "-c"; cpus |] argv)
    | None -> (serve, argv)
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close err;
        Unix.close devnull)
      (fun () -> Unix.create_process_env serve argv (env ()) devnull devnull err)
  in
  Hashtbl.replace live pid ();
  { name; pid; log; port = 0; alive = true }

let log_text t = try Util.read_file t.log with Sys_error _ -> ""

let exited t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ ->
      Hashtbl.remove live t.pid;
      t.alive <- false;
      true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let listening_port text =
  let key = "listening on port " in
  match Util.find_sub text key with
  | None -> None
  | Some i ->
      let j = i + String.length key in
      let k = ref j in
      while !k < String.length text && text.[!k] >= '0' && text.[!k] <= '9' do
        incr k
      done;
      int_of_string_opt (String.sub text j (!k - j))

(* Polls the daemon's stderr for the port line; 0.2 ms steps so the
   set-up time is not rounded up to a coarse poll interval. *)
let wait_listening ?(timeout = 60.) t =
  let deadline = Util.now () +. timeout in
  let rec go () =
    match listening_port (log_text t) with
    | Some p -> t.port <- p
    | None ->
        if exited t then Util.fail "%s exited during start-up:\n%s" t.name (log_text t)
        else if Util.now () > deadline then
          Util.fail "%s did not start listening within %.0f s" t.name timeout
        else begin
          Unix.sleepf 0.0002;
          go ()
        end
  in
  go ()

let addr t = Server.Wire.Tcp ("127.0.0.1", t.port)
let addr_string t = Printf.sprintf "127.0.0.1:%d" t.port

let wait_exit ~timeout t =
  let deadline = Util.now () +. timeout in
  let rec go () =
    if exited t then true
    else if Util.now () > deadline then false
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  (not t.alive) || go ()

(* SIGTERM drains the daemon (and writes its --metrics report). *)
let stop t =
  if t.alive then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    if not (wait_exit ~timeout:20. t) then begin
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap t.pid;
      t.alive <- false;
      Util.fail "%s did not drain within 20 s of SIGTERM" t.name
    end
  end

let kill9 t =
  if t.alive then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap t.pid;
    t.alive <- false
  end

(* Peak resident set from /proc, in MiB. *)
let hwm_mb t =
  match Util.read_file (Printf.sprintf "/proc/%d/status" t.pid) with
  | exception Sys_error _ -> 0.
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some kb -> kb /. 1024.
                  | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0. (String.split_on_char '\n' text)

(* ---- control ops ---------------------------------------------------- *)

let with_client t f =
  let c = Server.Client.connect (addr t) in
  Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () -> f c)

let roundtrip t line = with_client t (fun c -> Server.Client.roundtrip c line)

let control t op =
  with_client t (fun c ->
      let r = Server.Client.request c op in
      if not (Server.Client.is_ok r) then
        Util.fail "%s: %s answered %s" t.name op (Obs.Json.to_string r);
      r)

(* Applies setup frames in order; each must answer ok. *)
let apply t frames =
  with_client t (fun c ->
      List.iter
        (fun f ->
          let r = Server.Client.roundtrip c f in
          match Obs.Json.of_string r with
          | Ok j when Server.Client.is_ok j -> ()
          | _ -> Util.fail "%s: setup frame %s answered %s" t.name f r)
        frames)

let poll_until ?(timeout = 30.) ?(step = 0.001) what f =
  let deadline = Util.now () +. timeout in
  let rec go () =
    if f () then ()
    else if Util.now () > deadline then Util.fail "timed out waiting for %s" what
    else begin
      Unix.sleepf step;
      go ()
    end
  in
  go ()

(* A follower is caught up when it has applied at least [seq] and
   reports no staleness. *)
let caught_up t ~seq =
  let h = control t "health" in
  Util.member_int [ "applied_seq" ] h >= seq
  && Util.member_int [ "staleness_seq" ] h = 0
