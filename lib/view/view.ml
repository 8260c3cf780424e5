(* Materialized view catalog and incremental maintenance.  See the
   interface for the policy semantics and the byte-identity argument;
   the load-bearing choice here is that the delta path reuses the
   evaluator's own exported primitives, so incremental and from-scratch
   results cannot drift apart. *)

open Ecr

type policy = Eager | Lazy | Manual

let policy_of_string = function
  | "eager" -> Some Eager
  | "lazy" -> Some Lazy
  | "manual" -> Some Manual
  | _ -> None

let policy_to_string = function
  | Eager -> "eager"
  | Lazy -> "lazy"
  | Manual -> "manual"

type info = {
  name : string;
  base : string option;
  policy : policy;
  source : string;
  fresh : bool;
  rows : int;
  hits : int;
  stale_marks : int;
  refreshes : int;
  delta_appends : int;
  last_refresh_ms : float;
}

type entry = {
  e_name : string;
  e_base : string option;
  e_policy : policy;
  e_source : string;
  query : Query.Ast.t;
  post : Query.Eval.row list -> Query.Eval.row list;
  mutable rows : Query.Eval.row list;
  mutable fresh : bool;
  mutable hits : int;
  mutable stale_marks : int;
  mutable refreshes : int;
  mutable delta_appends : int;
  mutable last_refresh_ms : float;
}

(* Parsed queries, their reals compared bit for bit. *)
module Shapes = Hashtbl.Make (struct
  type t = Query.Ast.t

  let equal = Query.Ast.equal
  let hash = Query.Ast.hash
end)

type t = {
  entries : (string, entry) Hashtbl.t;
  shapes : string Shapes.t;  (* parsed query -> view name *)
  mutable order : string list;  (* definition order *)
}

(* ------------------------------------------------------------------ *)
(* Observability: the catalog counters the ISSUE of record asks for,
   plus the maintenance-path split (deltas vs recomputes vs skips) that
   explains where write cost goes. *)

let c_defines = Obs.Counter.make "view.defines"
let c_drops = Obs.Counter.make "view.drops"
let c_hits = Obs.Counter.make "view.hits"
let c_stale = Obs.Counter.make "view.stale"
let c_refreshes = Obs.Counter.make "view.refreshes"
let c_deltas = Obs.Counter.make "view.delta_appends"
let c_recomputes = Obs.Counter.make "view.recomputes"
let c_skipped = Obs.Counter.make "view.skipped_updates"
let h_refresh_ms = Obs.Histogram.make "view.refresh_ms"

let create () =
  { entries = Hashtbl.create 8; shapes = Shapes.create 8; order = [] }

let find t name = Hashtbl.find_opt t.entries name

let mem t name = Hashtbl.mem t.entries name
let names t = t.order

let info_of (e : entry) =
  {
    name = e.e_name;
    base = e.e_base;
    policy = e.e_policy;
    source = e.e_source;
    fresh = e.fresh;
    rows = List.length e.rows;
    hits = e.hits;
    stale_marks = e.stale_marks;
    refreshes = e.refreshes;
    delta_appends = e.delta_appends;
    last_refresh_ms = e.last_refresh_ms;
  }

let infos t = List.filter_map (fun n -> Option.map info_of (find t n)) t.order
let info t name = Option.map info_of (find t name)
let definition t name = Option.map (fun e -> e.query) (find t name)

(* ------------------------------------------------------------------ *)
(* Refresh: from-scratch evaluation is both the fallback maintenance
   strategy and the definition of correctness.                         *)

let refresh_entry e store =
  let t0 = Unix.gettimeofday () in
  e.rows <- Query.Eval.run e.query store;
  e.fresh <- true;
  e.refreshes <- e.refreshes + 1;
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  e.last_refresh_ms <- ms;
  Obs.Histogram.observe h_refresh_ms ms;
  Obs.Counter.incr c_refreshes;
  ms

let refresh t name store =
  match find t name with
  | None -> Error (Printf.sprintf "unknown view %s" name)
  | Some e -> Ok (refresh_entry e store)

(* ------------------------------------------------------------------ *)
(* Catalog mutation.                                                   *)

let define t ~name ?base ~policy ~source ~query ~post store =
  if name = "" then Error "view name must be non-empty"
  else if mem t name then Error (Printf.sprintf "view %s already exists" name)
  else
    match Shapes.find_opt t.shapes query with
    | Some other ->
        Error
          (Printf.sprintf "view %s already materializes this query shape"
             other)
    | None -> (
        match Query.Eval.run query store with
        | exception Query.Eval.Error msg -> Error msg
        | rows ->
            let e =
              {
                e_name = name;
                e_base = base;
                e_policy = policy;
                e_source = source;
                query;
                post;
                rows;
                fresh = true;
                hits = 0;
                stale_marks = 0;
                refreshes = 0;
                delta_appends = 0;
                last_refresh_ms = 0.;
              }
            in
            Hashtbl.replace t.entries name e;
            Shapes.replace t.shapes query name;
            t.order <- t.order @ [ name ];
            Obs.Counter.incr c_defines;
            Ok ())

(* Snapshot install: register an entry with its extent and freshness
   injected instead of evaluated.  Replication snapshots must carry the
   materialized rows verbatim — a Manual view's extent may be stale
   relative to the store, and re-deriving it on the installing node
   would change the bytes (and the fresh flag) its reads serve. *)
let install t ~name ?base ~policy ~source ~query ~post ~rows ~fresh () =
  if name = "" then Error "view name must be non-empty"
  else if mem t name then Error (Printf.sprintf "view %s already exists" name)
  else
    match Shapes.find_opt t.shapes query with
    | Some other ->
        Error
          (Printf.sprintf "view %s already materializes this query shape"
             other)
    | None ->
        let e =
          {
            e_name = name;
            e_base = base;
            e_policy = policy;
            e_source = source;
            query;
            post;
            rows;
            fresh;
            hits = 0;
            stale_marks = 0;
            refreshes = 0;
            delta_appends = 0;
            last_refresh_ms = 0.;
          }
        in
        Hashtbl.replace t.entries name e;
        Shapes.replace t.shapes query name;
        t.order <- t.order @ [ name ];
        Obs.Counter.incr c_defines;
        Ok ()

let dump t =
  List.filter_map
    (fun n -> Option.map (fun e -> (info_of e, e.rows)) (find t n))
    t.order

let drop t name =
  match find t name with
  | None -> false
  | Some e ->
      Hashtbl.remove t.entries name;
      Shapes.remove t.shapes e.query;
      t.order <- List.filter (fun n -> n <> name) t.order;
      Obs.Counter.incr c_drops;
      true

(* ------------------------------------------------------------------ *)
(* Serving.                                                            *)

let hit e =
  e.hits <- e.hits + 1;
  Obs.Counter.incr c_hits

let read t name store =
  match find t name with
  | None -> Error (Printf.sprintf "unknown view %s" name)
  | Some e ->
      (match e.e_policy with
      | Eager | Lazy -> if not e.fresh then ignore (refresh_entry e store)
      | Manual -> ());
      hit e;
      Ok (e.post e.rows, e.fresh)

let lookup_shape t q store =
  match Shapes.find_opt t.shapes q with
  | None -> None
  | Some name -> (
      match find t name with
      | None -> None
      | Some e -> (
          match e.e_policy with
          | Eager | Lazy ->
              if not e.fresh then ignore (refresh_entry e store);
              hit e;
              Some e.rows
          | Manual ->
              (* plain queries must never silently read stale data *)
              if e.fresh then begin
                hit e;
                Some e.rows
              end
              else None))

(* ------------------------------------------------------------------ *)
(* Maintenance: classify each update against each view.                *)

let related schema a b =
  Name.equal a b
  || Schema.is_ancestor schema ~ancestor:a b
  || Schema.is_ancestor schema ~ancestor:b a

(* Classes whose entities' attribute values the answer projects or
   filters on: modifications elsewhere cannot change the answer. *)
let value_deps (q : Query.Ast.t) =
  match q.Query.Ast.via with
  | None -> [ q.Query.Ast.from_class ]
  | Some j -> [ q.Query.Ast.from_class; j.Query.Ast.target ]

(* Classes whose entity removal can change the answer: additionally
   every participant of the joined relationship, because removing any
   participant removes the link (n-ary relationships included). *)
let extent_deps schema (q : Query.Ast.t) =
  match q.Query.Ast.via with
  | None -> [ q.Query.Ast.from_class ]
  | Some j ->
      let rel_objs =
        match Schema.find_relationship j.Query.Ast.rel schema with
        | Some r -> Relationship.objects r
        | None -> []
      in
      (q.Query.Ast.from_class :: j.Query.Ast.target :: rel_objs)

let skip () = Obs.Counter.incr c_skipped

let mark_stale e =
  if e.fresh then begin
    e.fresh <- false;
    e.stale_marks <- e.stale_marks + 1;
    Obs.Counter.incr c_stale
  end

(* An affecting update that is not a pure extension: Eager pays the
   recompute at write time, Lazy/Manual defer it. *)
let stale_or_recompute e store =
  match e.e_policy with
  | Eager ->
      ignore (refresh_entry e store);
      Obs.Counter.incr c_recomputes
  | Lazy | Manual -> mark_stale e

(* Insert is the incremental fast path: for a join-free view whose
   from-class (transitively) contains the inserted class, the new
   entity has the highest id in the store, so its row — if the
   predicate admits it — belongs at the end of the extent.  Joined
   views are never affected by Insert: a new entity participates in no
   relationship instances yet. *)
let apply_insert e cls store schema =
  match e.query.Query.Ast.via with
  | Some _ -> skip ()
  | None ->
      let v = e.query.Query.Ast.from_class in
      if Name.equal cls v || Schema.is_ancestor schema ~ancestor:v cls then begin
        if e.fresh then begin
          let extent = Instance.Store.extent v store in
          let oid = Instance.Store.Oid.Set.max_elt extent in
          let admitted =
            match e.query.Query.Ast.where with
            | None -> true
            | Some p ->
                Query.Eval.matches
                  (fun a -> Instance.Store.value oid a store)
                  p
          in
          if admitted then begin
            e.rows <-
              e.rows
              @ [
                  Query.Eval.project_entity schema v oid store
                    e.query.Query.Ast.select;
                ];
            e.delta_appends <- e.delta_appends + 1;
            Obs.Counter.incr c_deltas
          end
          else skip ()
        end
        else if e.e_policy = Eager then begin
          ignore (refresh_entry e store);
          Obs.Counter.incr c_recomputes
        end
        (* Lazy/Manual and already stale: the pending refresh covers it *)
      end
      else skip ()

let iter_entries t f = List.iter (fun n -> Option.iter f (find t n)) t.order

let notify_update t u store =
  let schema = Instance.Store.schema store in
  iter_entries t (fun e ->
      match u with
      | Query.Update.Insert (cls, _) -> apply_insert e cls store schema
      | Query.Update.Delete (cls, _) ->
          if List.exists (fun d -> related schema d cls) (extent_deps schema e.query)
          then stale_or_recompute e store
          else skip ()
      | Query.Update.Modify (cls, _, _) ->
          if List.exists (fun d -> related schema d cls) (value_deps e.query)
          then stale_or_recompute e store
          else skip ())

let notify_reset t store =
  let dropped = ref [] in
  iter_entries t (fun e ->
      match refresh_entry e store with
      | (_ : float) -> ()
      | exception Query.Eval.Error _ -> dropped := e.e_name :: !dropped);
  let dropped = List.rev !dropped in
  List.iter (fun n -> ignore (drop t n)) dropped;
  dropped

module For_testing = struct
  let raw_rows t name = Option.map (fun e -> (e.rows, e.fresh)) (find t name)
end
