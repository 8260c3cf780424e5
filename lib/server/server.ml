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

let load_session setup =
  let ( let* ) = Result.bind in
  let* schemas = Load.schemas setup.schema_files in
  let* directives = Option.fold ~none:(Ok []) ~some:Load.script setup.script in
  (* always rebuilt from the inputs, so a restart picks up an edit *)
  let ws = Integrate.Workspace.add_schemas schemas Integrate.Workspace.empty in
  let* ws =
    Integrate.Script.apply directives ws
    |> Result.map_error Integrate.Script.apply_error_to_string
  in
  let* () = Option.fold ~none:(Ok ()) ~some:Load.directory setup.journal in
  let result = Integrate.Workspace.integrate ?name:setup.name ws in
  let* stores =
    match setup.data with
    | Some path -> Load.data ~schemas path
    | None -> Ok (List.map (fun s -> (s, Instance.Store.create s)) schemas)
  in
  Ok (make_session ?journal_dir:setup.journal ~result ~stores ())

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

(* A plan's key: cache epoch, view class ([None] for a global query)
   and the parsed query, its reals compared bit for bit. *)
module Plans = Lru.Make (struct
  type t = int * Ecr.Name.t option * Query.Ast.t

  let equal (e, v, q) (e', v', q') =
    e = e' && Option.equal Ecr.Name.equal v v' && Query.Ast.equal q q'

  let hash (e, v, q) = Hashtbl.hash (e, v, Query.Ast.hash q)
end)

(* The node's role with the state only that role has. *)
type replica =
  | Leading of Replicate.Leader.t
  | Following of {
      leader : Wire.addr;
      node : string;  (** the identity sent in [repl_handshake] *)
      progress : Replicate.Follower.progress;
    }

type t = {
  cfg : config;
  session : session;
  listen_fd : Unix.file_descr;
  bound_port : int option;
  mutable merged : Instance.Store.t;  (** under [state_mu] *)
  state_mu : Mutex.t;
  cache : plan Plans.t;
      (** under [cache_mu] *)
  cache_mu : Mutex.t;
  cache_epoch : int Atomic.t;
      (** bumped by every mutation; part of every plan key, so cached
          plans from before a state change can never be served after it *)
  views : View.t;  (** under [state_mu], like the store they index *)
  replica : replica;
  inflight : int Atomic.t;
  stop_requested : bool Atomic.t;  (** accept loop should wind down *)
  stopping : bool Atomic.t;
      (** drain started: reject new data ops; set once, by [drain] *)
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

exception Setup of string

let setup_fail fmt = Printf.ksprintf (fun s -> raise (Setup s)) fmt

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
  if Plans.capacity t.cache = 0 then compute ()
  else
    let hit = Mutex.protect t.cache_mu (fun () -> Plans.find t.cache key) in
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
          Mutex.protect t.cache_mu (fun () -> Plans.add t.cache key plan)
        in
        (match evicted with
        | Some _ ->
            Atomic.incr t.s_evictions;
            Obs.Counter.incr c_cache_evictions
        | None -> ());
        plan

(* Plans are keyed by (cache epoch, view class, parsed query), the
   view class [None] for a global query.  Spellings of one query that
   differ only in whitespace or keyword case parse alike and share a
   plan; queries whose constants differ do not, to the last bit of a
   real ([0.] and [-0.] included).  The epoch is
   bumped by every mutation ([update], [migrate] and the view-catalog
   ops — on a follower too, via the replicated-apply path), which
   structurally prevents a plan computed against pre-mutation state
   from being served afterwards: entries from an older epoch can never
   be looked up again and simply age out of the LRU.  Today's plans
   happen to depend only on the session mapping, but that is an
   accident of the current rewrite engine, not a contract — a
   stale-plan bug here surfaces as silently wrong answer bytes after
   [migrate], which is the worst possible failure mode for a
   differential tool. *)
let plan_epoch t = Atomic.get t.cache_epoch

let view_plan t view q =
  match
    cached_plan t (plan_epoch t, Some (Ecr.Schema.name view), q) (fun () ->
        let q', back =
          Query.Rewrite.to_integrated t.session.result.Integrate.Result.mapping
            ~view q
        in
        View_plan (q', back))
  with
  | View_plan (q', back) -> (q', back)
  | Global_plan _ -> assert false (* a global key's view class is [None] *)

let global_plan t q =
  match
    cached_plan t (plan_epoch t, None, q) (fun () ->
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

(* The serving state as the leader sees it. *)
let serving t =
  {
    Replicate.Leader.apply = apply_repl t;
    snapshot = (fun () -> snapshot_payload t);
    install = install_snapshot t;
  }

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

(* Runs on the connection's thread, after any wait for the write lock;
   never lets an exception escape.  The post-execution deadline check
   applies to reads only: a mutation that [run_op] completed HAS changed
   state, and its [ok] is what sends it to the replication log, so a
   late [deadline_exceeded] would diverge every follower (and the
   leader's own restart replay) from the applied state.  The deadline
   can only reject a mutation before it runs. *)
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

(* The replica tier's fields of [health], or with [detail] of [repl_status]. *)
let replica_status t ~detail =
  match t.replica with
  | Leading l -> Replicate.Leader.status l ~detail
  | Following f ->
      Replicate.Follower.status f.progress
        ~leader:(Wire.addr_to_string f.leader) ~node:f.node ~detail

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
          ("capacity", Json.Int (Plans.capacity t.cache));
          ("size", Json.Int (Mutex.protect t.cache_mu (fun () -> Plans.size t.cache)));
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
  replica_status t ~detail:false

let handle_request t decoded =
  Atomic.incr t.s_requests;
  Obs.Counter.incr c_requests;
  match (decoded : (Wire.request, Wire.error_code * string) result) with
  | Error (code, msg) -> respond_err t None code msg
  | Ok req -> (
      let id = req.Wire.id in
      match (req.Wire.op, t.replica) with
      (* control operations: answered inline, never queued, so the
         daemon stays observable under load and during drain *)
      | "health", _ -> respond_ok t id (health_payload t)
      | "metrics", _ ->
          let meta = [ ("tool", Json.String "sit_serve") ] in
          respond_ok t id [ ("report", Obs.Report.to_json ~meta ()) ]
      | "view_stats", _ -> respond_ok t id (views_payload t)
      | "repl_status", _ -> respond_ok t id (replica_status t ~detail:true)
      | op, Leading l when List.mem op Replicate.Leader.ops -> (
          match
            Replicate.Leader.serve l (serving t) op ~node:req.Wire.node
              ~seq:req.Wire.seq ~batch:req.Wire.max ~wait_ms:req.Wire.wait_ms
          with
          | Ok payload -> respond_ok t id payload
          | Error (`Bad_request, msg) -> respond_err t id Wire.Bad_request msg
          | Error (`Internal, msg) -> respond_err t id Wire.Internal msg)
      | op, Following f when Wire.mutating op || List.mem op Replicate.Leader.ops
        ->
          (* the follower write gate: a typed redirect, not an error the
             client has to guess about *)
          respond_err t id
            ~data:[ ("leader", Json.String (Wire.addr_to_string f.leader)) ]
            Wire.Not_leader "this node is a follower; send writes to the leader"
      | ( ( "query" | "rewrite" | "update" | "migrate" | "define_view"
          | "drop_view" | "refresh_view" | "sleep" ) as op,
          _ )
        when op <> "sleep" || t.cfg.debug ->
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
                    match t.replica with
                    | Leading l when Wire.mutating req.Wire.op -> (
                        let apply () =
                          let resp = execute t req ~t_start ~deadline in
                          ( resp,
                            match Json.member "ok" resp with
                            | Some (Json.Bool true) -> Some (repl_line req)
                            | _ -> None )
                        in
                        match Replicate.Leader.write l (serving t) apply with
                        | Ok resp -> resp
                        | Error msg -> respond_err t id Wire.Internal msg)
                    | _ -> execute t req ~t_start ~deadline
                  in
                  observe_op req.Wire.op
                    ((Unix.gettimeofday () -. t_start) *. 1000.);
                  resp)
          end
      | op, _ ->
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

(* OCaml's channel buffer size *)
let channel_buffer = 65536

(* One JSON line in, one JSON line out, until the peer hangs up.  A
   malformed line is answered with a typed error and the connection
   continues: the newline is the frame boundary, so the stream never
   loses its place.  Each response is encoded into one buffer that the
   connection keeps, and written from it.  However the loop ends, the
   thread unregisters and the fd closes, so a drain never waits on a
   dead thread. *)
let handle_conn t conn_id fd =
  Atomic.incr t.s_conns;
  Obs.Counter.incr c_connections;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let r = Wire.reader ic in
  let out = Buffer.create 256 in
  let write v =
    Obs.Json.to_buffer out v;
    Buffer.add_char out '\n';
    let sent =
      match Buffer.output_buffer oc out; flush oc with
      | () -> true
      | exception Sys_error _ -> false
    in
    (* a response past the channel's buffer, such as a snapshot chunk,
       does not stay allocated on the connection *)
    if Buffer.length out > channel_buffer then Buffer.reset out
    else Buffer.clear out;
    sent
  in
  let rec loop () =
    match Wire.next_request r with
    | exception Sys_error _ -> ()
    | None -> ()
    | Some decoded -> if write (handle_request t decoded) then loop ()
  in
  Fun.protect loop ~finally:(fun () ->
      Mutex.protect t.conns_mu (fun () ->
          Hashtbl.remove t.live_conns conn_id;
          let self, live =
            List.partition (fun (id, _) -> id = conn_id) t.live_threads
          in
          t.live_threads <- live;
          t.finished_threads <- List.map snd self @ t.finished_threads);
      try Unix.close fd with Unix.Unix_error _ -> ())

let reap_finished t =
  let finished =
    Mutex.protect t.conns_mu (fun () ->
        let f = t.finished_threads in
        t.finished_threads <- [];
        f)
  in
  List.iter Thread.join finished

let drain t =
  if not (Atomic.exchange t.stopping true) then begin
    (* wake long-polling repl_pull waiters, or stop the follower tail *)
    (match t.replica with
    | Leading l -> Replicate.Leader.interrupt l
    | Following f -> Replicate.Follower.request_stop f.progress);
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
    (* every in-flight write is logged and answered by now *)
    match t.replica with
    | Leading l -> Replicate.Leader.close l
    | Following _ -> ()
  end

(* A node starts in four steps, each over the state the one before
   left: the session rebuilt from the input files, the newest snapshot
   ({!Replicate.Leader.recover}), the startup views, the log frames
   after the snapshot ({!Replicate.Leader.replay}).  A first start is
   the same with no snapshot and no frames, so a restart applies every
   logged frame to the state it was first applied to.  A node that
   cannot reproduce its history releases its socket and refuses. *)
let create ?(views = []) session cfg =
  match bind_listen cfg.listen with
  | exception Setup msg -> Error msg
  | exception Unix.Unix_error (e, fn, arg) ->
      Error
        (Printf.sprintf "cannot listen on %s: %s (%s %s)"
           (Wire.addr_to_string cfg.listen)
           (Unix.error_message e) fn arg)
  | listen_fd, bound_port -> (
      let t =
        {
          cfg = { cfg with queue = max 1 cfg.queue };
          session;
          listen_fd;
          bound_port;
          merged = session.initial_merged;
          state_mu = Mutex.create ();
          cache = Plans.create ~capacity:(max 0 cfg.cache);
          cache_mu = Mutex.create ();
          cache_epoch = Atomic.make 0;
          views = View.create ();
          replica =
            (let r = cfg.repl and dir = session.journal_dir in
             match r.role with
             | Leader ->
                 Leading
                   (Replicate.Leader.create ~dir ~liveness_s:r.liveness_s
                      ~compact_every:r.compact_every ~ack_replicas:r.ack_replicas
                      ~ack_timeout_ms:r.ack_timeout_ms
                      ~warn:(Printf.eprintf "sit_serve: repl: %s\n%!"))
             | Follower leader ->
                 Following
                   {
                     leader;
                     node = Replicate.Follower.node_id dir;
                     progress = Replicate.Follower.make_progress ();
                   });
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
        }
      in
      let ( let* ) = Result.bind in
      let leader step =
        match t.replica with
        | Leading l -> step l (serving t)
        | Following _ -> Ok ()
      in
      match
        let* () = leader Replicate.Leader.recover in
        let* () =
          List.fold_left
            (fun acc d ->
              let* () = acc in
              define_startup_view t d)
            (Ok ()) views
        in
        leader Replicate.Leader.replay
      with
      | Ok () -> Ok t
      | Error msg ->
          drain t;
          Error msg)

let request_stop t = Atomic.set t.stop_requested true

(* The follower tail rides the ordinary client, so the stream uses the
   same wire, and the same error paths, as every other consumer. *)
let start_tail t =
  match t.replica with
  | Leading _ -> None
  | Following f ->
      let r = t.cfg.repl in
      let run () =
        Replicate.Follower.run ~node:f.node
          ~connect:(fun () -> Client.connect f.leader)
          ~close:Client.close ~roundtrip:Client.roundtrip ~apply:(apply_repl t)
          ~progress:f.progress ~batch:r.batch ~wait_ms:r.wait_ms
          ~throttle_ms:r.throttle_ms ~install:(install_snapshot t)
          ~log:(fun msg ->
            Printf.eprintf "sit_serve: repl[%s]: %s\n%!" f.node msg)
          ()
      in
      Some (Thread.create run ())

let serve t =
  (* a client that disconnects mid-write must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let tail = start_tail t in
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
  (* the drain stops the tail *)
  drain t;
  Option.iter Thread.join tail

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
