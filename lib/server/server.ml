(* The daemon core.  One thread per connection runs its requests to
   completion behind a bounded in-flight counter; mutations take one
   write lock.  See server.mli for the full model and docs/SERVING.md
   for the wire protocol. *)

module Wire = Wire
module Lru = Lru
module Client = Client
module View = View
module Json = Obs.Json

(* ---- observability ------------------------------------------------ *)
(* Mirrored into plain atomics (see [stats]) so `health` can report
   them even while lib/obs is disabled. *)

let c_requests = Obs.Counter.make "server.requests"
let c_ok = Obs.Counter.make "server.responses_ok"
let c_err = Obs.Counter.make "server.responses_err"
let c_overloaded = Obs.Counter.make "server.overloaded"
let c_deadline = Obs.Counter.make "server.deadline_exceeded"
let c_cache_hits = Obs.Counter.make "server.cache_hits"
let c_cache_misses = Obs.Counter.make "server.cache_misses"
let c_cache_evictions = Obs.Counter.make "server.cache_evictions"
let c_connections = Obs.Counter.make "server.connections"

let op_histograms =
  List.map
    (fun op -> (op, Obs.Histogram.make (Printf.sprintf "server.%s_ms" op)))
    [ "query"; "rewrite"; "update"; "migrate" ]

let observe_op op ms =
  match List.assoc_opt op op_histograms with
  | Some h -> Obs.Histogram.observe h ms
  | None -> ()

(* ---- session ------------------------------------------------------ *)

type session = {
  schemas : Ecr.Schema.t list;
  result : Integrate.Result.t;
  component_stores : (Ecr.Schema.t * Instance.Store.t) list;
  initial_merged : Instance.Store.t;
  migration : Query.Migrate.report;
  journal_dir : string option;
}

let make_session ?journal_dir ~result ~stores () =
  let merged, migration =
    Query.Migrate.run result.Integrate.Result.mapping
      ~integrated:result.Integrate.Result.schema stores
  in
  {
    schemas = List.map fst stores;
    result;
    component_stores = stores;
    initial_merged = merged;
    migration;
    journal_dir;
  }

type setup = {
  schema_files : string list;
  script : string option;
  data : string option;
  journal : string option;
  name : string option;
}

exception Setup of string

let setup_fail fmt = Printf.ksprintf (fun s -> raise (Setup s)) fmt

let load_session setup =
  try
    let schemas =
      match setup.schema_files with
      | [] -> setup_fail "no schema files given"
      | files ->
          List.concat_map
            (fun file ->
              try Ddl.Parser.schemas_of_file file
              with Ddl.Parser.Error (msg, line, col) ->
                setup_fail "%s:%d:%d: %s" file line col msg)
            files
    in
    List.iter
      (fun s ->
        match Ecr.Schema.validate s with
        | [] -> ()
        | errors ->
            setup_fail "%s"
              (String.concat "\n" (List.map Ecr.Schema.error_to_string errors)))
      schemas;
    let directives =
      match setup.script with
      | None -> []
      | Some path -> (
          try Integrate.Script.parse_file path
          with Integrate.Script.Parse_error _ as e ->
            setup_fail "%s" (Integrate.Script.parse_error_to_string e))
    in
    (* always rebuilt from the inputs, so a restart picks up an edit *)
    let ws =
      List.fold_left
        (fun ws s -> Integrate.Workspace.add_schema s ws)
        Integrate.Workspace.empty schemas
    in
    let ws =
      match Integrate.Script.apply directives ws with
      | Ok ws -> ws
      | Error e -> setup_fail "%s" (Integrate.Script.apply_error_to_string e)
    in
    (match setup.journal with
    | Some dir when not (Sys.file_exists dir) -> (
        try Unix.mkdir dir 0o755
        with Unix.Unix_error (e, _, _) ->
          setup_fail "cannot create journal directory %s: %s" dir
            (Unix.error_message e))
    | _ -> ());
    let result = Integrate.Workspace.integrate ?name:setup.name ws in
    let stores =
      match setup.data with
      | Some path -> (
          try Instance.Loader.load_file ~schemas path
          with Instance.Loader.Error _ as e ->
            setup_fail "%s" (Instance.Loader.error_to_string e))
      | None -> List.map (fun s -> (s, Instance.Store.create s)) schemas
    in
    Ok (make_session ?journal_dir:setup.journal ~result ~stores ())
  with Setup msg -> Error msg

(* ---- server state ------------------------------------------------- *)

type role = Leader | Follower of Wire.addr

type repl_config = {
  role : role;
  ack_replicas : int;
  ack_timeout_ms : int;
  batch : int;
  wait_ms : int;
  throttle_ms : int;
  compact_every : int;
  liveness_s : float;
}

let default_repl =
  {
    role = Leader;
    ack_replicas = 0;
    ack_timeout_ms = 10_000;
    batch = 64;
    wait_ms = 200;
    throttle_ms = 0;
    compact_every = 0;
    liveness_s = 30.;
  }

type config = {
  listen : Wire.addr;
  queue : int;
  deadline_ms : int option;
  cache : int;
  debug : bool;
  repl : repl_config;
}

let default_config listen =
  {
    listen;
    queue = 64;
    deadline_ms = None;
    cache = 128;
    debug = false;
    repl = default_repl;
  }

type stats = {
  requests : int;
  ok : int;
  errors : int;
  overloaded : int;
  deadline_exceeded : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  connections : int;
}

type plan =
  | View_plan of Query.Ast.t * (Query.Eval.row list -> Query.Eval.row list)
  | Global_plan of Query.Rewrite.component_query list

type t = {
  cfg : config;
  session : session;
  listen_fd : Unix.file_descr;
  bound_port : int option;
  mutable merged : Instance.Store.t;  (** under [state_mu] *)
  state_mu : Mutex.t;
  cache : (string, plan) Lru.t;  (** under [cache_mu] *)
  cache_mu : Mutex.t;
  cache_epoch : int Atomic.t;
      (** bumped by every mutation; part of every plan key, so cached
          plans from before a state change can never be served after it *)
  views : View.t;  (** under [state_mu], like the store they index *)
  repl_log : Replicate.Log.t option;  (** [Some] iff this node leads *)
  repl_mu : Mutex.t;
      (** serializes mutating ops end to end (execute, then append to
          [repl_log] on success), so log order is application order;
          compaction runs under it too, so a snapshot never interleaves
          with a mutation *)
  node_id : string;
      (** this node's stable replication identity: read from (or first
          written to) DIR/node_id when journalled, generated per process
          otherwise.  Sent in [repl_handshake]; the leader keys acks by
          it, never by a transport address *)
  snap_mu : Mutex.t;
  mutable snapshot : (int * string) option;
      (** the latest state snapshot (seq, payload) a leader serves to
          catching-up followers; under [snap_mu] *)
  repl_progress : Replicate.Follower.progress;  (** follower tail state *)
  mutable follower_thread : Thread.t option;  (** under [conns_mu] *)
  inflight : int Atomic.t;
  stop_requested : bool Atomic.t;  (** accept loop should wind down *)
  stopping : bool Atomic.t;  (** drain started: reject new data ops *)
  conns_mu : Mutex.t;
  live_conns : (int, Unix.file_descr) Hashtbl.t;  (** under [conns_mu] *)
  mutable live_threads : (int * Thread.t) list;  (** under [conns_mu] *)
  mutable finished_threads : Thread.t list;  (** under [conns_mu] *)
  mutable next_conn : int;
  t0 : float;
  (* the server's own counters, live even when lib/obs is off *)
  s_requests : int Atomic.t;
  s_ok : int Atomic.t;
  s_err : int Atomic.t;
  s_overloaded : int Atomic.t;
  s_deadline : int Atomic.t;
  s_hits : int Atomic.t;
  s_misses : int Atomic.t;
  s_evictions : int Atomic.t;
  s_conns : int Atomic.t;
  mutable serve_thread : Thread.t option;
  mutable drained : bool;  (** under [conns_mu] *)
}

let stats t =
  {
    requests = Atomic.get t.s_requests;
    ok = Atomic.get t.s_ok;
    errors = Atomic.get t.s_err;
    overloaded = Atomic.get t.s_overloaded;
    deadline_exceeded = Atomic.get t.s_deadline;
    cache_hits = Atomic.get t.s_hits;
    cache_misses = Atomic.get t.s_misses;
    cache_evictions = Atomic.get t.s_evictions;
    connections = Atomic.get t.s_conns;
  }

let port t = t.bound_port

(* ---- socket setup ------------------------------------------------- *)

let bind_listen addr =
  match addr with
  | Wire.Unix_path path ->
      (* a stale socket file from a crashed run would fail the bind *)
      (match (Unix.lstat path).Unix.st_kind with
      | Unix.S_SOCK -> (try Unix.unlink path with Unix.Unix_error _ -> ())
      | _ -> setup_fail "listen path %s exists and is not a socket" path
      | exception Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 128;
      (fd, None)
  | Wire.Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } -> setup_fail "cannot resolve %s" host
          | { Unix.h_addr_list; _ } -> h_addr_list.(0)
          | exception Not_found -> setup_fail "cannot resolve %s" host)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      Unix.listen fd 128;
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> Some p
        | _ -> None
      in
      (fd, bound)

(* The node's replication identity.  It must be stable across restarts
   of the same data directory (so a rejoining follower re-registers as
   itself instead of double-counting toward an ack quorum) and must NOT
   be a transport address (two nodes can advertise the same address
   through NAT/containers, and a restart can change an ephemeral port).
   With a journal directory the id lives in DIR/node_id; without one
   the node is ephemeral by construction, so a per-process id is the
   correct lifetime. *)
let fresh_node_id () =
  let host = try Unix.gethostname () with _ -> "unknown" in
  let pid = try Unix.getpid () with _ -> 0 in
  let now = Unix.gettimeofday () in
  Printf.sprintf "n-%08x"
    (Hashtbl.hash (host, pid, now, Unix.times ()) land 0xffffffff)

let load_node_id journal_dir =
  match journal_dir with
  | None -> fresh_node_id ()
  | Some dir -> (
      let path = Filename.concat dir "node_id" in
      match
        let ic = open_in path in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
            String.trim (input_line ic))
      with
      | id when id <> "" -> id
      | _ | (exception Sys_error _) | (exception End_of_file) -> (
          let id = fresh_node_id () in
          match
            (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
             with Unix.Unix_error _ -> ());
            let oc = open_out path in
            Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
                output_string oc (id ^ "\n"))
          with
          | () -> id
          | exception Sys_error _ -> id))

(* Binds the socket and builds the record; the durable state is
   recovered by [create] below, which needs the op dispatch defined
   after this. *)
let create_bound session cfg =
  match bind_listen cfg.listen with
  | exception Setup msg -> Error msg
  | exception Unix.Unix_error (e, fn, arg) ->
      Error
        (Printf.sprintf "cannot listen on %s: %s (%s %s)"
           (Wire.addr_to_string cfg.listen)
           (Unix.error_message e) fn arg)
  | listen_fd, bound_port ->
      Ok
        {
          cfg = { cfg with queue = max 1 cfg.queue };
          session;
          listen_fd;
          bound_port;
          merged = session.initial_merged;
          state_mu = Mutex.create ();
          cache = Lru.create ~capacity:(max 0 cfg.cache);
          cache_mu = Mutex.create ();
          cache_epoch = Atomic.make 0;
          views = View.create ();
          repl_log =
            (match cfg.repl.role with
            | Follower _ -> None
            | Leader ->
                let persist =
                  Option.map
                    (fun dir -> Filename.concat dir "repl.journal")
                    session.journal_dir
                in
                Some
                  (Replicate.Log.create ?persist
                     ~liveness_s:cfg.repl.liveness_s ()));
          repl_mu = Mutex.create ();
          node_id = load_node_id session.journal_dir;
          snap_mu = Mutex.create ();
          snapshot = None;
          repl_progress = Replicate.Follower.make_progress ();
          follower_thread = None;
          inflight = Atomic.make 0;
          stop_requested = Atomic.make false;
          stopping = Atomic.make false;
          conns_mu = Mutex.create ();
          live_conns = Hashtbl.create 64;
          live_threads = [];
          finished_threads = [];
          next_conn = 0;
          t0 = Unix.gettimeofday ();
          s_requests = Atomic.make 0;
          s_ok = Atomic.make 0;
          s_err = Atomic.make 0;
          s_overloaded = Atomic.make 0;
          s_deadline = Atomic.make 0;
          s_hits = Atomic.make 0;
          s_misses = Atomic.make 0;
          s_evictions = Atomic.make 0;
          s_conns = Atomic.make 0;
          serve_thread = None;
          drained = false;
        }

(* ---- request execution -------------------------------------------- *)

exception Deadline

exception Op_error of Wire.error_code * string
(* Internal to request execution: a typed failure raised where a
   payload would otherwise be built; [execute] maps it to an error
   response. *)

let op_fail code fmt = Printf.ksprintf (fun s -> raise (Op_error (code, s))) fmt

let check_deadline ~t_start ~deadline =
  match deadline with
  | Some ms when (Unix.gettimeofday () -. t_start) *. 1000. > float ms ->
      raise Deadline
  | _ -> ()

let find_view t name =
  List.find_opt
    (fun s -> String.equal (Ecr.Name.to_string (Ecr.Schema.name s)) name)
    t.session.schemas

let require_view t req =
  match req.Wire.view with
  | None -> None
  | Some name -> (
      match find_view t name with
      | Some s -> Some s
      | None -> op_fail Wire.Unknown_view "unknown view %s" name)

let require_text op req =
  match req.Wire.text with
  | Some text -> text
  | None ->
      raise
        (Invalid_argument
           (Printf.sprintf "op %S needs a \"%s\" field" op
              (if op = "update" then "u" else "q")))

let cached_plan t key compute =
  if Lru.capacity t.cache = 0 then compute ()
  else
    let hit = Mutex.protect t.cache_mu (fun () -> Lru.find t.cache key) in
    match hit with
    | Some plan ->
        Atomic.incr t.s_hits;
        Obs.Counter.incr c_cache_hits;
        plan
    | None ->
        Atomic.incr t.s_misses;
        Obs.Counter.incr c_cache_misses;
        let plan = compute () in
        let evicted =
          Mutex.protect t.cache_mu (fun () -> Lru.add t.cache key plan)
        in
        (match evicted with
        | Some _ ->
            Atomic.incr t.s_evictions;
            Obs.Counter.incr c_cache_evictions
        | None -> ());
        plan

(* Plans are keyed by (cache epoch, view class, query shape), the shape
   being the canonical printing of the parsed query.  Printing
   normalises whitespace, keyword case and predicate parenthesisation,
   so textually different spellings of one query share a plan.  The
   epoch is bumped by every mutation ([update], [migrate] and the
   view-catalog ops — on a follower too, via the replicated-apply
   path), which structurally prevents a plan computed against
   pre-mutation state from being served afterwards: entries from an
   older epoch can never be looked up again and simply age out of the
   LRU.  Today's plans happen to depend only on the session mapping,
   but that is an accident of the current rewrite engine, not a
   contract — a stale-plan bug here surfaces as silently wrong answer
   bytes after [migrate], which is the worst possible failure mode for
   a differential tool. *)
let plan_epoch t = Atomic.get t.cache_epoch

let view_plan t view q =
  let key =
    Printf.sprintf "e%d:view:%s\x00%s" (plan_epoch t)
      (Ecr.Name.to_string (Ecr.Schema.name view))
      (Query.Ast.to_string q)
  in
  match
    cached_plan t key (fun () ->
        let q', back =
          Query.Rewrite.to_integrated t.session.result.Integrate.Result.mapping
            ~view q
        in
        View_plan (q', back))
  with
  | View_plan (q', back) -> (q', back)
  | Global_plan _ -> assert false (* keys are namespaced by "view:"/"global:" *)

let global_plan t q =
  let key =
    Printf.sprintf "e%d:global:\x00%s" (plan_epoch t) (Query.Ast.to_string q)
  in
  match
    cached_plan t key (fun () ->
        Global_plan
          (Query.Rewrite.to_components t.session.result.Integrate.Result.mapping
             ~integrated:t.session.result.Integrate.Result.schema q))
  with
  | Global_plan parts -> parts
  | View_plan _ -> assert false

(* ---- the view catalog --------------------------------------------- *)

(* A view definition's plan: [source] parsed, then rewritten through
   the component view [base] when there is one.  [define_view] and a
   snapshot install both build a view's plan here. *)
let definition_plan t ~base source =
  match Query.Parser.query_of_string source with
  | exception Query.Parser.Error msg -> Error (Wire.Parse_error, msg)
  | q -> (
      match base with
      | None -> Ok (q, fun rows -> rows)
      | Some b -> (
          match find_view t b with
          | None -> Error (Wire.Unknown_view, Printf.sprintf "unknown view %s" b)
          | Some view -> (
              match view_plan t view q with
              | plan -> Ok plan
              | exception Query.Rewrite.Unmapped msg ->
                  Error (Wire.Unmapped, msg))))

(* Parse, rewrite (through [base] if given) and register one view
   definition.  The catalog keeps no log of its own: the replication
   log's [define_view]/[drop_view] frames and its snapshots are its
   durable history. *)
let define_view_core t ~name ~base ~policy ~source =
  if find_view t name <> None then
    Error
      ( Wire.Bad_request,
        Printf.sprintf "view name %s collides with a component schema" name )
  else
    match definition_plan t ~base source with
    | Error _ as e -> e
    | Ok (q', post) ->
        Mutex.protect t.state_mu (fun () ->
            match
              View.define t.views ~name ?base ~policy ~source ~query:q' ~post
                t.merged
            with
            | Error msg -> Error (Wire.Bad_request, msg)
            | Ok () -> Ok ())

let view_info_json (i : View.info) =
  Json.Obj
    [
      ("name", Json.String i.View.name);
      ( "base",
        match i.View.base with Some b -> Json.String b | None -> Json.Null );
      ("policy", Json.String (View.policy_to_string i.View.policy));
      ("q", Json.String i.View.source);
      ("fresh", Json.Bool i.View.fresh);
      ("rows", Json.Int i.View.rows);
      ("hits", Json.Int i.View.hits);
      ("stale_marks", Json.Int i.View.stale_marks);
      ("refreshes", Json.Int i.View.refreshes);
      ("delta_appends", Json.Int i.View.delta_appends);
      ("last_refresh_ms", Json.Float i.View.last_refresh_ms);
    ]

let views_payload t =
  let infos = Mutex.protect t.state_mu (fun () -> View.infos t.views) in
  [
    ("views", Json.List (List.map view_info_json infos));
    ("count", Json.Int (List.length infos));
  ]

let migration_report_json (r : Query.Migrate.report) =
  Json.Obj
    [
      ("entities_in", Json.Int r.Query.Migrate.entities_in);
      ("entities_out", Json.Int r.Query.Migrate.entities_out);
      ("fused", Json.Int r.Query.Migrate.fused);
      ("links_in", Json.Int r.Query.Migrate.links_in);
      ("links_out", Json.Int r.Query.Migrate.links_out);
    ]

let named_stores t =
  List.map
    (fun (s, st) -> (Ecr.Schema.name s, st))
    t.session.component_stores

(* The payload of one data operation.  Raises only the typed
   query-layer exceptions (mapped to error responses by
   [execute]) — anything else is a bug answered as [internal]. *)
let run_op_inner t (req : Wire.request) =
  match req.Wire.op with
  | "query" -> (
      match (req.Wire.view, req.Wire.text) with
      | Some name, None when find_view t name = None ->
          (* a materialized read: the view name addresses the extent *)
          Mutex.protect t.state_mu (fun () ->
              match View.read t.views name t.merged with
              | Error msg -> op_fail Wire.Unknown_view "%s" msg
              | Ok (rows, fresh) ->
                  [
                    ("rows", Wire.rows_to_json rows);
                    ("count", Json.Int (List.length rows));
                    ("fresh", Json.Bool fresh);
                  ])
      | _ -> (
          let text = require_text "query" req in
          let q = Query.Parser.query_of_string text in
          match require_view t req with
          | Some view -> (
              let q', back = view_plan t view q in
              (* an ad-hoc query whose shape matches a registered view is
                 served from the materialized extent when that cannot be
                 told apart from evaluating (fresh, or freshened here) *)
              let served =
                Mutex.protect t.state_mu (fun () ->
                    match View.lookup_shape t.views q' t.merged with
                    | Some raw -> Ok (back raw)
                    | None -> Error t.merged)
              in
              let rows =
                match served with
                | Ok rows -> rows
                | Error store -> back (Query.Eval.run q' store)
              in
              [
                ("rows", Wire.rows_to_json rows);
                ("count", Json.Int (List.length rows));
              ])
          | None ->
              let parts = global_plan t q in
              let rows =
                Query.Rewrite.run_components parts ~stores:(named_stores t)
              in
              [
                ("rows", Wire.rows_to_json rows);
                ("count", Json.Int (List.length rows));
              ]))
  | "rewrite" -> (
      let text = require_text "rewrite" req in
      let q = Query.Parser.query_of_string text in
      match require_view t req with
      | Some view ->
          let q', _ = view_plan t view q in
          [ ("query", Json.String (Query.Ast.to_string q')) ]
      | None ->
          let parts = global_plan t q in
          [
            ( "components",
              Json.List
                (List.map
                   (fun part ->
                     Json.Obj
                       [
                         ( "component",
                           Json.String
                             (Ecr.Name.to_string part.Query.Rewrite.component) );
                         ( "query",
                           Json.String
                             (Query.Ast.to_string part.Query.Rewrite.query) );
                       ])
                   parts) );
          ])
  | "update" -> (
      let text = require_text "update" req in
      match require_view t req with
      | None ->
          raise (Invalid_argument "op \"update\" needs a \"view\" field")
      | Some view ->
          let op = Query.Parser.update_of_string text in
          let op' =
            Query.Update.to_integrated t.session.result.Integrate.Result.mapping
              ~view op
          in
          let affected =
            Mutex.protect t.state_mu (fun () ->
                let merged', n = Query.Update.apply op' t.merged in
                t.merged <- merged';
                (* maintain the materialized extents against the store
                   they were computed over, before the lock is released *)
                View.notify_update t.views op' merged';
                n)
          in
          [
            ("translated", Json.String (Query.Update.to_string op'));
            ("affected", Json.Int affected);
          ])
  | "migrate" ->
      (* re-derive the integrated instance from the component stores,
         discarding every update applied since the last migration *)
      let merged, report =
        Query.Migrate.run t.session.result.Integrate.Result.mapping
          ~integrated:t.session.result.Integrate.Result.schema
          t.session.component_stores
      in
      let dropped =
        Mutex.protect t.state_mu (fun () ->
            t.merged <- merged;
            View.notify_reset t.views merged)
      in
      [
        ("report", migration_report_json report);
        ("views_dropped", Json.List (List.map (fun n -> Json.String n) dropped));
      ]
  | "define_view" -> (
      let name =
        match req.Wire.view with
        | Some v -> v
        | None ->
            raise (Invalid_argument "op \"define_view\" needs a \"view\" field")
      in
      let source = require_text "define_view" req in
      let policy =
        match req.Wire.policy with
        | None -> View.Lazy
        | Some p -> (
            match View.policy_of_string p with
            | Some p -> p
            | None ->
                raise
                  (Invalid_argument
                     (Printf.sprintf
                        "bad policy %S (expected eager, lazy or manual)" p)))
      in
      match define_view_core t ~name ~base:req.Wire.base ~policy ~source with
      | Error (code, msg) -> raise (Op_error (code, msg))
      | Ok () ->
          let rows =
            Mutex.protect t.state_mu (fun () ->
                match View.info t.views name with
                | Some i -> i.View.rows
                | None -> 0)
          in
          [
            ("defined", Json.String name);
            ("policy", Json.String (View.policy_to_string policy));
            ("rows", Json.Int rows);
          ])
  | "drop_view" -> (
      let name =
        match req.Wire.view with
        | Some v -> v
        | None ->
            raise (Invalid_argument "op \"drop_view\" needs a \"view\" field")
      in
      Mutex.protect t.state_mu (fun () ->
          if View.drop t.views name then [ ("dropped", Json.String name) ]
          else op_fail Wire.Unknown_view "unknown view %s" name))
  | "refresh_view" -> (
      let name =
        match req.Wire.view with
        | Some v -> v
        | None ->
            raise (Invalid_argument "op \"refresh_view\" needs a \"view\" field")
      in
      Mutex.protect t.state_mu (fun () ->
          match View.refresh t.views name t.merged with
          | Error msg -> op_fail Wire.Unknown_view "%s" msg
          | Ok ms ->
              [ ("refreshed", Json.String name); ("ms", Json.Float ms) ]))
  | "sleep" ->
      (* test-only (config.debug): hold a queue slot for a chosen time *)
      let ms =
        match req.Wire.text with
        | Some s -> Option.value ~default:0 (int_of_string_opt (String.trim s))
        | None -> 0
      in
      Unix.sleepf (float ms /. 1000.);
      [ ("slept_ms", Json.Int ms) ]
  | op -> raise (Invalid_argument (Printf.sprintf "no such field op %S" op))

(* Every mutation that completes opens a new cache epoch — whether it
   ran on the leader's write path or through the follower's
   replicated-apply path, both of which land here. *)
let run_op t (req : Wire.request) =
  let payload = run_op_inner t req in
  if Wire.mutating req.Wire.op then Atomic.incr t.cache_epoch;
  payload

(* ---- replication -------------------------------------------------- *)

(* The replication log stores the canonical request line of every
   acknowledged mutation, stripped of client-only fields (id,
   deadline_ms) so identical mutations replicate as identical bytes. *)
let repl_line (req : Wire.request) =
  Wire.request_to_line ?view:req.Wire.view ?text:req.Wire.text
    ?base:req.Wire.base ?policy:req.Wire.policy req.Wire.op

(* Apply one replicated frame to local state — the follower tail path
   and the leader's restart self-replay.  Bypasses the queue and the
   follower write gate by design: the stream is already serialized and
   already acknowledged by the leader. *)
let apply_repl t _seq line =
  match Wire.request_of_line line with
  | Error (_, e) -> Error e
  | Ok req -> (
      match run_op t req with
      | (_ : (string * Json.t) list) -> Ok ()
      | exception Op_error (_, msg) -> Error msg
      | exception e -> Error (Printexc.to_string e))

(* A leader restarting over a journal directory rebuilds its runtime
   state by replaying its recovered replication log — the same
   snapshot + log-shipping a follower does over the wire.  Every logged
   frame was acknowledged, so a frame that no longer applies refuses
   the start rather than silently drop an acknowledged write. *)
let replay_repl_log t ~from =
  match t.repl_log with
  | None -> Ok ()
  | Some log ->
      List.fold_left
        (fun acc (s, line) ->
          Result.bind acc (fun () ->
              Result.map_error
                (Printf.sprintf
                   "the replication log frame at seq %d no longer applies: %s"
                   s)
                (apply_repl t s line)))
        (Ok ())
        (Replicate.Log.from log from ~max:(Replicate.Log.seq log))

(* ---- state snapshots ---------------------------------------------- *)

(* A snapshot is the full serving state at a log seq: the merged store
   (as Instance.Loader text, whose round-trip preserves query-answer
   bytes) plus the view catalog with each materialized extent and
   freshness flag carried {e verbatim} — a Manual view legitimately
   serves a stale extent, and its [fresh] flag is part of read-response
   bytes, so re-deriving extents on the installing node would change
   what its clients see.  Component stores are not included: they are
   immutable at runtime, and every node rebuilds them from its own
   session inputs.

   Values inside view rows use a tagged encoding ([{"s":..}] / ["i"] /
   ["r"] / ["b"] / ["d"] / [null]) rather than [Wire.value_to_json],
   which flattens [Date] and [Str] into the same JSON string and could
   not be decoded back. *)

let tagged_of_value = function
  | Instance.Value.Null -> Json.Null
  | Instance.Value.Str s -> Json.Obj [ ("s", Json.String s) ]
  | Instance.Value.Int i -> Json.Obj [ ("i", Json.Int i) ]
  | Instance.Value.Real r -> Json.Obj [ ("r", Json.Float r) ]
  | Instance.Value.Bool b -> Json.Obj [ ("b", Json.Bool b) ]
  | Instance.Value.Date (y, m, d) ->
      Json.Obj [ ("d", Json.List [ Json.Int y; Json.Int m; Json.Int d ]) ]

let value_of_tagged = function
  | Json.Null -> Some Instance.Value.Null
  | Json.Obj [ ("s", Json.String s) ] -> Some (Instance.Value.Str s)
  | Json.Obj [ ("i", Json.Int i) ] -> Some (Instance.Value.Int i)
  | Json.Obj [ ("r", Json.Float r) ] -> Some (Instance.Value.Real r)
  | Json.Obj [ ("r", Json.Int r) ] -> Some (Instance.Value.Real (float_of_int r))
  | Json.Obj [ ("b", Json.Bool b) ] -> Some (Instance.Value.Bool b)
  | Json.Obj [ ("d", Json.List [ Json.Int y; Json.Int m; Json.Int d ]) ] ->
      Some (Instance.Value.Date (y, m, d))
  | _ -> None

let snap_row_to_json (row : Query.Eval.row) =
  Json.Obj
    (List.map
       (fun (k, v) -> (Ecr.Name.to_string k, tagged_of_value v))
       (Ecr.Name.Map.bindings row))

let snap_row_of_json = function
  | Json.Obj fields ->
      List.fold_left
        (fun acc (k, v) ->
          match (acc, Ecr.Name.of_string_opt k, value_of_tagged v) with
          | Some m, Some name, Some value ->
              Some (Ecr.Name.Map.add name value m)
          | _ -> None)
        (Some Ecr.Name.Map.empty) fields
  | _ -> None

let snapshot_payload t =
  Mutex.protect t.state_mu (fun () ->
      let schema = t.session.result.Integrate.Result.schema in
      let store = Instance.Loader.to_string schema t.merged in
      let views =
        List.map
          (fun ((i : View.info), rows) ->
            Json.Obj
              ([ ("name", Json.String i.View.name) ]
              @ (match i.View.base with
                | Some b -> [ ("base", Json.String b) ]
                | None -> [])
              @ [
                  ("policy", Json.String (View.policy_to_string i.View.policy));
                  ("q", Json.String i.View.source);
                  ("fresh", Json.Bool i.View.fresh);
                  ("rows", Json.List (List.map snap_row_to_json rows));
                ]))
          (View.dump t.views)
      in
      Json.to_string
        (Json.Obj
           [
             ("v", Json.Int 1);
             ("store", Json.String store);
             ("views", Json.List views);
           ]))

(* Install a snapshot payload as this node's serving state: decode
   everything first (store text through the loader, every view's plan
   and rows), then swap under [state_mu] — a snapshot that fails to
   decode never half-installs.  Runs on the follower's tail thread and
   on a restarting leader before it serves. *)
let install_snapshot t seq payload =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match Json.of_string payload with
  | Error e -> fail "snapshot %d does not parse: %s" seq e
  | Ok o ->
      let schema = t.session.result.Integrate.Result.schema in
      let* store =
        match Json.member "store" o with
        | Some (Json.String text) -> (
            match Instance.Loader.load_string ~schemas:[ schema ] text with
            | [ (_, st) ] -> Ok st
            | _ -> fail "snapshot %d: store text loaded to no store" seq
            | exception (Instance.Loader.Error _ as e) ->
                fail "snapshot %d: %s" seq (Instance.Loader.error_to_string e))
        | _ -> fail "snapshot %d has no store" seq
      in
      let* decoded =
        match Json.member "views" o with
        | None -> Ok []
        | Some (Json.List objs) ->
            let* rev =
              List.fold_left
                (fun acc vo ->
                  let* acc = acc in
                  let str k =
                    match Json.member k vo with
                    | Some (Json.String s) -> Some s
                    | _ -> None
                  in
                  match (str "name", str "q") with
                  | Some name, Some source ->
                      let base = str "base" in
                      let policy =
                        Option.value ~default:View.Lazy
                          (Option.bind (str "policy") View.policy_of_string)
                      in
                      let fresh =
                        match Json.member "fresh" vo with
                        | Some (Json.Bool b) -> b
                        | _ -> true
                      in
                      let* rows =
                        match Json.member "rows" vo with
                        | Some (Json.List rs) ->
                            List.fold_left
                              (fun acc r ->
                                let* acc = acc in
                                match snap_row_of_json r with
                                | Some row -> Ok (row :: acc)
                                | None ->
                                    fail "snapshot %d: view %s has a bad row"
                                      seq name)
                              (Ok []) rs
                            |> Result.map List.rev
                        | _ -> fail "snapshot %d: view %s has no rows" seq name
                      in
                      let* query, post =
                        definition_plan t ~base source
                        |> Result.map_error (fun (_, msg) ->
                               Printf.sprintf "snapshot %d: view %s: %s" seq
                                 name msg)
                      in
                      Ok ((name, base, policy, source, fresh, rows, query, post)
                          :: acc)
                  | _ -> fail "snapshot %d: malformed view entry" seq)
                (Ok []) objs
            in
            Ok (List.rev rev)
        | Some _ -> fail "snapshot %d: malformed views field" seq
      in
      let* () =
        Mutex.protect t.state_mu (fun () ->
            t.merged <- store;
            List.iter
              (fun n -> ignore (View.drop t.views n))
              (View.names t.views);
            List.fold_left
              (fun acc (name, base, policy, source, fresh, rows, query, post) ->
                let* () = acc in
                View.install t.views ~name ?base ~policy ~source ~query ~post
                  ~rows ~fresh ())
              (Ok ()) decoded)
      in
      Atomic.incr t.cache_epoch;
      Ok ()

(* ---- compaction ---------------------------------------------------- *)

let snapshot_seq t =
  Mutex.protect t.snap_mu (fun () ->
      match t.snapshot with Some (s, _) -> s | None -> 0)

(* Take a snapshot at the current log seq, persist it (journalled
   leaders), and truncate the prefix nothing still needs.  The caller
   holds [repl_mu], so the snapshot never interleaves with a mutation
   and the lock order (repl_mu, then state_mu inside
   [snapshot_payload]) matches the write path.

   The truncation bound is the minimum of three floors:
   - the seq the snapshot covers (frames above it are not yet covered);
   - the oldest {e retained} snapshot on disk — a restart that finds
     the newest snapshot torn falls back to the previous one and must
     still find the frames after it;
   - the lowest live follower ack, so no tailing follower has its
     next frame truncated out from under it (a dead follower's ack
     expires with the log's liveness window rather than pinning the
     bound forever). *)
let compact_locked t log =
  let seq = Replicate.Log.seq log in
  let cur = snapshot_seq t in
  let sseq, keep_floor =
    if seq > cur then begin
      let payload = snapshot_payload t in
      let floor =
        match t.session.journal_dir with
        | Some dir ->
            let retained = Replicate.Snapshot.save ~dir ~seq payload in
            List.fold_left min seq retained
        | None -> seq
      in
      Mutex.protect t.snap_mu (fun () -> t.snapshot <- Some (seq, payload));
      (seq, floor)
    end
    else
      ( cur,
        match t.session.journal_dir with
        | Some dir -> (
            match Replicate.Snapshot.retained ~dir with
            | [] -> cur
            | l -> List.fold_left min cur l)
        | None -> cur )
  in
  let ack_floor =
    match Replicate.Log.lowest_live_ack log with Some a -> a | None -> sseq
  in
  let dropped = Replicate.Log.truncate log (min keep_floor ack_floor) in
  (sseq, dropped)

let maybe_compact_locked t log =
  let n = t.cfg.repl.compact_every in
  if n > 0 && Replicate.Log.seq log - snapshot_seq t >= n then
    ignore (compact_locked t log)

(* ---- restart ------------------------------------------------------- *)

(* [create] starts a node in four steps, each over the state the one
   before left: the session rebuilt from the input files, the newest
   snapshot, the startup views, the log frames after the snapshot.  A
   first start is the same with no snapshot and no frames, so a restart
   applies every logged frame to the state it was first applied to. *)

(* Step 2; returns the first seq step 4 replays. *)
let recover_snapshot t =
  match (t.repl_log, t.session.journal_dir) with
  | Some log, Some dir -> (
      let base = Replicate.Log.base_seq log in
      match Replicate.Snapshot.load ~dir with
      | Some (sseq, payload) when sseq >= base -> (
          match install_snapshot t sseq payload with
          | Ok () ->
              Mutex.protect t.snap_mu (fun () ->
                  t.snapshot <- Some (sseq, payload));
              Ok (sseq + 1)
          | Error msg ->
              Error (Printf.sprintf "cannot restart from snapshot: %s" msg))
      | Some _ | None ->
          if base = 0 then Ok 1
          else
            Error
              (Printf.sprintf
                 "the replication log is truncated to seq %d but no valid \
                  snapshot could be read from %s"
                 base dir))
  | _ -> Ok 1

type view_def = {
  view : string;
  base : string option;
  policy : View.policy;
  query : string;
}

(* Step 3: a view the snapshot holds under the same definition is kept
   as recovered (its extent and freshness are history). *)
let define_startup_view t d =
  match Mutex.protect t.state_mu (fun () -> View.info t.views d.view) with
  | Some i
    when (i.View.base, i.View.policy, i.View.source)
         = (d.base, d.policy, d.query) ->
      Ok ()
  | Some _ ->
      Error
        (Printf.sprintf
           "view %s: the recovered snapshot holds a different definition"
           d.view)
  | None ->
      define_view_core t ~name:d.view ~base:d.base ~policy:d.policy
        ~source:d.query
      |> Result.map_error (fun (_, msg) ->
             Printf.sprintf "view %s: %s" d.view msg)

(* Responses are built as values and rendered once, when the
   connection writes the line. *)
let respond_ok t id payload =
  Atomic.incr t.s_ok;
  Obs.Counter.incr c_ok;
  Wire.ok_response ?id payload

let respond_err ?data t id code msg =
  (match code with
  | Wire.Overloaded ->
      Atomic.incr t.s_overloaded;
      Obs.Counter.incr c_overloaded
  | Wire.Deadline_exceeded ->
      Atomic.incr t.s_deadline;
      Obs.Counter.incr c_deadline
  | _ -> ());
  Atomic.incr t.s_err;
  Obs.Counter.incr c_err;
  Wire.error_response ?id ?data code msg

(* Test hook: artificial latency between [run_op] returning and the
   post-execution deadline check, so "the op finished after its
   deadline" is reachable deterministically from a test. *)
let test_delay_after_op_ms = Atomic.make 0

(* Runs on the connection's thread, after any wait for [repl_mu]; must
   never let an exception escape.

   The post-execution deadline check applies to read ops only.  A
   mutating op that [run_op] completed HAS changed state, and the [ok]
   field of its response is what the leader uses to decide whether the
   op joins the replication log — reporting [deadline_exceeded] after
   the fact would skip the append and silently diverge every follower
   (and the leader's own restart replay) from the applied state.  So
   once a mutation is applied, the response says so; the deadline can
   only reject a mutation before it runs. *)
let execute t (req : Wire.request) ~t_start ~deadline =
  let id = req.Wire.id in
  try
    check_deadline ~t_start ~deadline;
    let payload = run_op t req in
    (let d = Atomic.get test_delay_after_op_ms in
     if d > 0 then Thread.delay (float d /. 1000.));
    if not (Wire.mutating req.Wire.op) then check_deadline ~t_start ~deadline;
    respond_ok t id payload
  with
  | Deadline ->
      respond_err t id Wire.Deadline_exceeded
        (Printf.sprintf "deadline of %d ms exceeded"
           (Option.value ~default:0 deadline))
  | Op_error (code, msg) -> respond_err t id code msg
  | Query.Parser.Error msg -> respond_err t id Wire.Parse_error msg
  | Query.Rewrite.Unmapped msg -> respond_err t id Wire.Unmapped msg
  | Query.Eval.Error msg -> respond_err t id Wire.Eval_error msg
  | Query.Update.Error msg -> respond_err t id Wire.Update_error msg
  | Invalid_argument msg -> respond_err t id Wire.Bad_request msg
  | e -> respond_err t id Wire.Internal (Printexc.to_string e)

let health_payload t =
  let s = stats t in
  [
    ("status", Json.String (if Atomic.get t.stopping then "draining" else "ok"));
    ("uptime_s", Json.Float (Unix.gettimeofday () -. t.t0));
    ("inflight", Json.Int (Atomic.get t.inflight));
    ("queue_limit", Json.Int t.cfg.queue);
    ("requests", Json.Int s.requests);
    ("responses_ok", Json.Int s.ok);
    ("responses_err", Json.Int s.errors);
    ("overloaded", Json.Int s.overloaded);
    ("deadline_exceeded", Json.Int s.deadline_exceeded);
    ( "cache",
      Json.Obj
        [
          ("capacity", Json.Int (Lru.capacity t.cache));
          ("size", Json.Int (Mutex.protect t.cache_mu (fun () -> Lru.size t.cache)));
          ("hits", Json.Int s.cache_hits);
          ("misses", Json.Int s.cache_misses);
          ("evictions", Json.Int s.cache_evictions);
        ] );
    ("connections", Json.Int s.connections);
    ("migration", migration_report_json t.session.migration);
    ( "views",
      let infos = Mutex.protect t.state_mu (fun () -> View.infos t.views) in
      Json.Obj
        [
          ("count", Json.Int (List.length infos));
          ( "stale",
            Json.Int
              (List.length
                 (List.filter (fun (i : View.info) -> not i.View.fresh) infos))
          );
        ] );
  ]
  @
  match (t.cfg.repl.role, t.repl_log) with
  | Leader, Some log ->
      [
        ("role", Json.String "leader");
        ("repl_seq", Json.Int (Replicate.Log.seq log));
        ("base_seq", Json.Int (Replicate.Log.base_seq log));
        ("snapshot_seq", Json.Int (snapshot_seq t));
      ]
  | Leader, None -> [ ("role", Json.String "leader") ]
  | Follower _, _ ->
      let p = t.repl_progress in
      [
        ("role", Json.String "follower");
        ("applied_seq", Json.Int (Atomic.get p.Replicate.Follower.applied));
        ("staleness_seq", Json.Int (Replicate.Follower.staleness p));
        ("repl_connected", Json.Bool (Atomic.get p.Replicate.Follower.connected));
        ( "repl_apply_errors",
          Json.Int (Atomic.get p.Replicate.Follower.apply_errors) );
        ( "snapshot_installs",
          Json.Int (Atomic.get p.Replicate.Follower.snapshots) );
        ("repl_last_error", Json.String (Replicate.Follower.last_error p));
      ]

(* ---- replication operations (inline, never queued) ---------------- *)

let not_leader_response t id =
  match t.cfg.repl.role with
  | Follower leader ->
      respond_err t id
        ~data:[ ("leader", Json.String (Wire.addr_to_string leader)) ]
        Wire.Not_leader "this node is a follower; send writes to the leader"
  | Leader ->
      (* a leader without a log never exists; belt and braces *)
      respond_err t id Wire.Internal "replication log unavailable"

let repl_handshake t (req : Wire.request) =
  let id = req.Wire.id in
  match t.repl_log with
  | None -> not_leader_response t id
  | Some log ->
      (match req.Wire.node with
      | Some node -> Replicate.Log.ack log ~node 0 (* register the node *)
      | None -> ());
      respond_ok t id
        [
          ("role", Json.String "leader");
          ("repl_seq", Json.Int (Replicate.Log.seq log));
          ("base_seq", Json.Int (Replicate.Log.base_seq log));
        ]

let repl_pull t (req : Wire.request) =
  let id = req.Wire.id in
  match t.repl_log with
  | None -> not_leader_response t id
  | Some log -> (
      match req.Wire.seq with
      | None ->
          respond_err t id Wire.Bad_request
            "op \"repl_pull\" needs a \"seq\" field"
      | Some from when from < 1 ->
          respond_err t id Wire.Bad_request "\"seq\" must be >= 1"
      | Some from ->
          (* pulling from [from] acknowledges everything before it *)
          (match req.Wire.node with
          | Some node -> Replicate.Log.ack log ~node (from - 1)
          | None -> ());
          let batch = min 1024 (max 1 (Option.value ~default:64 req.Wire.max)) in
          let wait_ms =
            min 10_000 (max 0 (Option.value ~default:0 req.Wire.wait_ms))
          in
          let read () = Replicate.Log.from log from ~max:batch in
          let frames = read () in
          let frames =
            (* long poll: block this connection thread until new frames
               arrive or the budget runs out (a closing log returns
               early, which is what lets drain finish) *)
            if frames = [] && wait_ms > 0 && not (Atomic.get t.stopping)
            then begin
              ignore
                (Replicate.Log.wait log ~from
                   ~timeout_s:(float wait_ms /. 1000.));
              read ()
            end
            else frames
          in
          respond_ok t id
            [
              ("repl_seq", Json.Int (Replicate.Log.seq log));
              ("base_seq", Json.Int (Replicate.Log.base_seq log));
              ( "frames",
                Json.List
                  (List.map
                     (fun (s, f) ->
                       Json.Obj
                         [ ("seq", Json.Int s); ("frame", Json.String f) ])
                     frames) );
            ])

let repl_frame t (req : Wire.request) =
  let id = req.Wire.id in
  match t.repl_log with
  | None -> not_leader_response t id
  | Some log -> (
      match req.Wire.seq with
      | None ->
          respond_err t id Wire.Bad_request
            "op \"repl_frame\" needs a \"seq\" field"
      | Some s -> (
          match Replicate.Log.get log s with
          | Some f ->
              respond_ok t id [ ("seq", Json.Int s); ("frame", Json.String f) ]
          | None ->
              respond_err t id Wire.Bad_request
                (Printf.sprintf "no replicated frame %d (log is at %d)" s
                   (Replicate.Log.seq log))))

(* Snapshot transfer, one bounded chunk per round-trip so no response
   line grows with the snapshot.  The chunk index rides the
   request's [seq] field; every chunk repeats the covered seq and the
   chunk count, so a follower detects a snapshot replaced mid-transfer
   and restarts the fetch.  A pulling follower's liveness is refreshed
   (ack at 0) so the transfer itself keeps the node registered. *)
let snap_chunk_bytes = 1 lsl 20

let repl_snapshot t (req : Wire.request) =
  let id = req.Wire.id in
  match t.repl_log with
  | None -> not_leader_response t id
  | Some log -> (
      (match req.Wire.node with
      | Some node -> Replicate.Log.ack log ~node 0
      | None -> ());
      match Mutex.protect t.snap_mu (fun () -> t.snapshot) with
      | None ->
          respond_err t id Wire.Bad_request
            "no snapshot available (the log has never been compacted)"
      | Some (sseq, payload) ->
          let len = String.length payload in
          let total = max 1 ((len + snap_chunk_bytes - 1) / snap_chunk_bytes) in
          let i = Option.value ~default:0 req.Wire.seq in
          if i < 0 || i >= total then
            respond_err t id Wire.Bad_request
              (Printf.sprintf "snapshot chunk %d out of range (0..%d)" i
                 (total - 1))
          else
            let chunk =
              String.sub payload (i * snap_chunk_bytes)
                (min snap_chunk_bytes (len - (i * snap_chunk_bytes)))
            in
            respond_ok t id
              [
                ("snapshot_seq", Json.Int sseq);
                ("chunks", Json.Int total);
                ("chunk", Json.String chunk);
                ("base_seq", Json.Int (Replicate.Log.base_seq log));
                ("repl_seq", Json.Int (Replicate.Log.seq log));
              ])

let repl_compact t (req : Wire.request) =
  let id = req.Wire.id in
  match t.repl_log with
  | None -> not_leader_response t id
  | Some log ->
      let sseq, dropped =
        Mutex.protect t.repl_mu (fun () -> compact_locked t log)
      in
      respond_ok t id
        [
          ("snapshot_seq", Json.Int sseq);
          ("base_seq", Json.Int (Replicate.Log.base_seq log));
          ("dropped", Json.Int dropped);
        ]

let repl_status t (req : Wire.request) =
  let id = req.Wire.id in
  match (t.cfg.repl.role, t.repl_log) with
  | Leader, Some log ->
      respond_ok t id
        [
          ("role", Json.String "leader");
          ("repl_seq", Json.Int (Replicate.Log.seq log));
          ("base_seq", Json.Int (Replicate.Log.base_seq log));
          ("snapshot_seq", Json.Int (snapshot_seq t));
          ("ack_replicas", Json.Int t.cfg.repl.ack_replicas);
          ( "followers",
            Json.List
              (List.map
                 (fun (node, acked) ->
                   Json.Obj
                     [
                       ("node", Json.String node); ("acked", Json.Int acked);
                     ])
                 (Replicate.Log.acks log)) );
        ]
  | Leader, None ->
      respond_ok t id [ ("role", Json.String "leader"); ("repl_seq", Json.Int 0) ]
  | Follower leader, _ ->
      let p = t.repl_progress in
      respond_ok t id
        [
          ("role", Json.String "follower");
          ("leader", Json.String (Wire.addr_to_string leader));
          ("applied_seq", Json.Int (Atomic.get p.Replicate.Follower.applied));
          ("leader_seq", Json.Int (Atomic.get p.Replicate.Follower.leader_seq));
          ("staleness_seq", Json.Int (Replicate.Follower.staleness p));
          ("connected", Json.Bool (Atomic.get p.Replicate.Follower.connected));
          ( "apply_errors",
            Json.Int (Atomic.get p.Replicate.Follower.apply_errors) );
          ( "snapshot_installs",
            Json.Int (Atomic.get p.Replicate.Follower.snapshots) );
          ("last_error", Json.String (Replicate.Follower.last_error p));
          ("node", Json.String t.node_id);
        ]

let handle_request t decoded =
  Atomic.incr t.s_requests;
  Obs.Counter.incr c_requests;
  match (decoded : (Wire.request, Wire.error_code * string) result) with
  | Error (code, msg) -> respond_err t None code msg
  | Ok req -> (
      let id = req.Wire.id in
      match req.Wire.op with
      (* control operations: answered inline, never queued, so the
         daemon stays observable under load and during drain *)
      | "health" -> respond_ok t id (health_payload t)
      | "metrics" ->
          let meta = [ ("tool", Json.String "sit_serve") ] in
          respond_ok t id [ ("report", Obs.Report.to_json ~meta ()) ]
      | "view_stats" -> respond_ok t id (views_payload t)
      | "repl_handshake" -> repl_handshake t req
      | "repl_pull" -> repl_pull t req
      | "repl_frame" -> repl_frame t req
      | "repl_status" -> repl_status t req
      | "repl_snapshot" -> repl_snapshot t req
      | "repl_compact" -> repl_compact t req
      | "sleep" when not t.cfg.debug ->
          respond_err t id Wire.Unknown_op "unknown op \"sleep\""
      | op
        when Wire.mutating op
             && (match t.cfg.repl.role with
                | Follower _ -> true
                | Leader -> false) ->
          (* the follower write gate: a typed redirect, not an error the
             client has to guess about *)
          not_leader_response t id
      | "query" | "rewrite" | "update" | "migrate" | "define_view"
      | "drop_view" | "refresh_view" | "sleep" ->
          if Atomic.get t.stopping then
            respond_err t id Wire.Shutting_down "server is draining"
          else begin
            (* bounded queue: admission is one atomic increment *)
            let before = Atomic.fetch_and_add t.inflight 1 in
            if before >= t.cfg.queue then begin
              Atomic.decr t.inflight;
              respond_err t id Wire.Overloaded
                (Printf.sprintf "request queue is full (%d in flight)" before)
            end
            else
              Fun.protect
                ~finally:(fun () -> Atomic.decr t.inflight)
                (fun () ->
                  let t_start = Unix.gettimeofday () in
                  let deadline =
                    match req.Wire.deadline_ms with
                    | Some _ as d -> d
                    | None -> t.cfg.deadline_ms
                  in
                  let resp =
                    match t.repl_log with
                    | Some log when Wire.mutating req.Wire.op -> (
                        (* serialize mutations end to end so the log
                           order is exactly the application order *)
                        let resp, seq =
                          Mutex.protect t.repl_mu (fun () ->
                              let resp = execute t req ~t_start ~deadline in
                              match Json.member "ok" resp with
                              | Some (Json.Bool true) ->
                                  let s =
                                    Replicate.Log.append log (repl_line req)
                                  in
                                  (* compaction rides the write path,
                                     still under [repl_mu]: every
                                     [compact_every] acknowledged writes
                                     the log re-snapshots and sheds its
                                     covered prefix *)
                                  maybe_compact_locked t log;
                                  (resp, Some s)
                              | _ -> (resp, None))
                        in
                        match seq with
                        | Some s when t.cfg.repl.ack_replicas > 0 ->
                            (* semi-sync: hold the ack until enough
                               followers have applied this seq *)
                            if
                              Replicate.Log.wait_acked log ~seq:s
                                ~replicas:t.cfg.repl.ack_replicas
                                ~timeout_s:
                                  (float t.cfg.repl.ack_timeout_ms /. 1000.)
                            then resp
                            else
                              respond_err t id Wire.Internal
                                (Printf.sprintf
                                   "write %d applied locally but fewer than \
                                    %d replicas acknowledged it within %d ms \
                                    — outcome is replicated-unknown"
                                   s t.cfg.repl.ack_replicas
                                   t.cfg.repl.ack_timeout_ms)
                        | _ -> resp)
                    | _ -> execute t req ~t_start ~deadline
                  in
                  observe_op req.Wire.op
                    ((Unix.gettimeofday () -. t_start) *. 1000.);
                  resp)
          end
      | op ->
          respond_err t id Wire.Unknown_op (Printf.sprintf "unknown op %S" op))

(* In-process execution: one JSON request line in, one canonical JSON
   response line out, through exactly the dispatch a connection uses —
   the offline leg of the scenario differential harness. *)
let exec t line = Json.to_string (handle_request t (Wire.request_of_line line))

module For_testing = struct
  let with_state t f = Mutex.protect t.state_mu (fun () -> f t.merged t.views)
  let set_delay_after_op_ms ms = Atomic.set test_delay_after_op_ms (max 0 ms)
end

(* ---- connections and lifecycle ------------------------------------ *)

(* One JSON line in, one JSON line out, until the peer hangs up.  A
   malformed line is answered with a typed error and the connection
   continues: the newline is the frame boundary, so the stream never
   loses its place. *)
let handle_conn t conn_id fd =
  Atomic.incr t.s_conns;
  Obs.Counter.incr c_connections;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let write v =
    match output_string oc (Obs.Json.to_string v ^ "\n"); flush oc with
    | () -> true
    | exception Sys_error _ -> false
  in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line -> if write (handle_request t (Wire.request_of_line line)) then loop ()
  in
  loop ();
  Mutex.protect t.conns_mu (fun () ->
      Hashtbl.remove t.live_conns conn_id;
      let self, live =
        List.partition (fun (id, _) -> id = conn_id) t.live_threads
      in
      t.live_threads <- live;
      t.finished_threads <- List.map snd self @ t.finished_threads);
  try Unix.close fd with Unix.Unix_error _ -> ()

let reap_finished t =
  let finished =
    Mutex.protect t.conns_mu (fun () ->
        let f = t.finished_threads in
        t.finished_threads <- [];
        f)
  in
  List.iter Thread.join finished

let drain t =
  let already =
    Mutex.protect t.conns_mu (fun () ->
        let d = t.drained in
        t.drained <- true;
        d)
  in
  if not already then begin
    Atomic.set t.stopping true;
    (* wake long-polling repl_pull waiters and stop the follower tail *)
    (match t.repl_log with
    | Some log -> Replicate.Log.close log
    | None -> ());
    Replicate.Follower.request_stop t.repl_progress;
    (* stop accepting *)
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.cfg.listen with
    | Wire.Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Wire.Tcp _ -> ());
    (* wake idle readers: they see EOF after the response they are
       currently computing/writing, which drains in-flight requests *)
    Mutex.protect t.conns_mu (fun () ->
        Hashtbl.iter
          (fun _ fd ->
            try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
          t.live_conns);
    let rec join_live () =
      let live =
        Mutex.protect t.conns_mu (fun () -> List.map snd t.live_threads)
      in
      match live with
      | [] -> ()
      | threads ->
          List.iter Thread.join threads;
          join_live ()
    in
    join_live ();
    reap_finished t;
    (let tail =
       Mutex.protect t.conns_mu (fun () ->
           let th = t.follower_thread in
           t.follower_thread <- None;
           th)
     in
     match tail with Some th -> Thread.join th | None -> ())
  end

(* The four restart steps (see "restart" above); a node that cannot
   reproduce its history releases its socket and refuses. *)
let create ?(views = []) session cfg =
  match create_bound session cfg with
  | Error _ as e -> e
  | Ok t -> (
      let ( let* ) = Result.bind in
      match
        let* from = recover_snapshot t in
        let* () =
          List.fold_left
            (fun acc d ->
              let* () = acc in
              define_startup_view t d)
            (Ok ()) views
        in
        replay_repl_log t ~from
      with
      | Ok () -> Ok t
      | Error msg ->
          drain t;
          Error msg)

let request_stop t = Atomic.set t.stop_requested true

(* Start the follower tail thread (idempotent; no-op on a leader).
   The transport is the ordinary client, so the stream rides the same
   wire — and the same error paths — every other consumer uses.  The
   node identifies itself by its stable [node_id], never its listen
   address: the leader keys quorum acks by this name, and an address
   can be shared, reassigned, or change across restarts. *)
let start_follower t =
  match t.cfg.repl.role with
  | Leader -> ()
  | Follower leader ->
      Mutex.protect t.conns_mu (fun () ->
          if t.follower_thread = None then begin
            let node = t.node_id in
            let r = t.cfg.repl in
            t.follower_thread <-
              Some
                (Thread.create
                   (fun () ->
                     Replicate.Follower.run ~node
                       ~connect:(fun () -> Client.connect leader)
                       ~close:Client.close ~roundtrip:Client.roundtrip
                       ~apply:(fun seq frame -> apply_repl t seq frame)
                       ~progress:t.repl_progress ~batch:r.batch
                       ~wait_ms:r.wait_ms ~throttle_ms:r.throttle_ms
                       ~install:(fun seq payload ->
                         install_snapshot t seq payload)
                       ~log:(fun msg ->
                         Printf.eprintf "sit_serve: repl[%s]: %s\n%!" node msg)
                       ())
                   ())
          end)

let serve t =
  (* a client that disconnects mid-write must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  start_follower t;
  let rec loop () =
    if Atomic.get t.stop_requested then ()
    else begin
      reap_finished t;
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
          match Unix.accept t.listen_fd with
          | exception
              Unix.Unix_error
                ( ( Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
                  | Unix.ECONNABORTED ),
                  _,
                  _ ) ->
              loop ()
          | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
          | fd, _ ->
              let conn_id =
                Mutex.protect t.conns_mu (fun () ->
                    let id = t.next_conn in
                    t.next_conn <- id + 1;
                    Hashtbl.replace t.live_conns id fd;
                    id)
              in
              let th = Thread.create (fun () -> handle_conn t conn_id fd) () in
              Mutex.protect t.conns_mu (fun () ->
                  if Hashtbl.mem t.live_conns conn_id then
                    t.live_threads <- (conn_id, th) :: t.live_threads
                  else
                    (* the connection already finished *)
                    t.finished_threads <- th :: t.finished_threads);
              loop ())
    end
  in
  loop ();
  drain t

let start session cfg =
  match create session cfg with
  | Error _ as e -> e
  | Ok t ->
      t.serve_thread <- Some (Thread.create (fun () -> serve t) ());
      Ok t

let stop t =
  request_stop t;
  match t.serve_thread with
  | Some th ->
      Thread.join th;
      t.serve_thread <- None
  | None ->
      (* serve ran (or will not run) on the caller's thread: make the
         drain happen here if the loop is not around to do it *)
      drain t
