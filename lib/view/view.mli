(** Materialized user views with incremental maintenance.

    The paper's Phase 4 maps "user queries and transactions specified
    against each view" to the integrated schema per request.  This
    module adds the serving-tier complement: a client {e names} a view
    query once, the daemon materializes its extent, and the catalog
    keeps the extent consistent under updates — incrementally where the
    update's effect is a pure extension, by recompute or staleness
    otherwise.

    {2 Correctness anchor}

    After {e any} interleaving of updates, refreshes and reads, a fresh
    view's materialized extent is byte-identical to from-scratch
    evaluation of its defining query ({!Query.Eval.run}).  Two facts
    make the cheap path sound:

    - entity ids are allocated monotonically and join-free answers are
      produced in ascending id order, so the row for a newly inserted
      entity belongs at the {e end} of the extent — an O(1) append;
    - the delta row is built by the evaluator's own exported primitives
      ({!Query.Eval.matches} / {!Query.Eval.project_entity}), so it
      cannot drift from what a full re-evaluation would produce.

    Deletes and modifies (and inserts into joined views' dependency
    classes) are not pure extensions; those either recompute ([Eager])
    or mark the view stale ([Lazy]/[Manual]).

    {2 Staleness policies}

    - [Eager]: maintained on every affecting update; reads never pay a
      refresh.
    - [Lazy]: affecting updates mark the view stale; the next read
      refreshes first.  Reads still never observe stale data.
    - [Manual]: affecting updates mark the view stale; reads serve the
      materialized rows {e as-is} with a freshness flag, and only an
      explicit {!refresh} recomputes.  The one policy that trades
      freshness for latency.

    {2 Concurrency}

    A catalog is not internally synchronized.  The serving tier calls
    every function below under the same lock that guards the store the
    views are defined over (the daemon's session lock), which is also
    what makes "fresh" a meaningful guarantee. *)

type policy = Eager | Lazy | Manual

val policy_of_string : string -> policy option
(** Parses ["eager"], ["lazy"], ["manual"]. *)

val policy_to_string : policy -> string

type info = {
  name : string;
  base : string option;
      (** component-schema view the definition was written against, if
          any (the catalog itself stores the rewritten, integrated-form
          query) *)
  policy : policy;
  source : string;  (** the defining query, as the client sent it *)
  fresh : bool;
  rows : int;  (** materialized extent size *)
  hits : int;  (** reads served from the materialized extent *)
  stale_marks : int;  (** fresh->stale transitions *)
  refreshes : int;  (** full recomputations *)
  delta_appends : int;  (** O(1) incremental row appends *)
  last_refresh_ms : float;  (** duration of the last recompute, ms *)
}
(** A snapshot of one view's definition and counters, as reported by
    the [view_stats] wire op and the health endpoint. *)

type t
(** A view catalog: named materialized extents plus a shape index used
    to serve ad-hoc queries that coincide with a registered view. *)

val create : unit -> t

val define :
  t ->
  name:string ->
  ?base:string ->
  policy:policy ->
  source:string ->
  query:Query.Ast.t ->
  post:(Query.Eval.row list -> Query.Eval.row list) ->
  Instance.Store.t ->
  (unit, string) result
(** Registers a view and materializes it now.  [query] must be in
    integrated form (already rewritten if the client defined it against
    a component view); [post] maps raw integrated-form rows back to the
    client's column names and is applied by {!read}.  Fails on a
    duplicate name, a duplicate query shape (the parsed [query], so
    spellings that differ only in whitespace or keyword case are one
    shape, and queries whose constants differ are two, to the last bit
    of a real) or an ill-typed [query]. *)

val install :
  t ->
  name:string ->
  ?base:string ->
  policy:policy ->
  source:string ->
  query:Query.Ast.t ->
  post:(Query.Eval.row list -> Query.Eval.row list) ->
  rows:Query.Eval.row list ->
  fresh:bool ->
  unit ->
  (unit, string) result
(** Registers a view with its materialized extent and freshness
    {e injected} rather than evaluated — the replication
    snapshot-install path.  [rows] are raw (integrated column names, no
    [post] applied), exactly what {!dump} exports; counters start at
    zero.  Same duplicate-name/shape checks as {!define}.  Injection
    matters for correctness: a [Manual] view's extent may legitimately
    be stale relative to the store, so re-deriving it on the installing
    node would change the served bytes and the freshness flag. *)

val dump : t -> (info * Query.Eval.row list) list
(** Every view's snapshot-relevant state in definition order: its
    {!info} (name, base, policy, source, freshness) paired with the raw
    materialized extent (integrated column names, no [post]) — the
    source side of {!install}. *)

val drop : t -> string -> bool
(** Removes a view; [false] if the name is unknown. *)

val mem : t -> string -> bool
val names : t -> string list
(** Registered view names, in definition order. *)

val infos : t -> info list
(** Per-view snapshots, in definition order. *)

val info : t -> string -> info option
val definition : t -> string -> Query.Ast.t option
(** The integrated-form defining query (for tests and persistence). *)

val read :
  t -> string -> Instance.Store.t -> (Query.Eval.row list * bool, string) result
(** Reads a view by name; rows are in the client's column names
    ([post] applied).  The boolean is the freshness of what was served:
    always [true] for [Eager]/[Lazy] (a stale [Lazy] view refreshes
    first), while [Manual] serves the current extent and reports
    honestly.  [Error] only for an unknown name. *)

val lookup_shape :
  t -> Query.Ast.t -> Instance.Store.t -> Query.Eval.row list option
(** Serves an ad-hoc integrated-form query from a registered view with
    the same shape, if that can be done without breaking query
    semantics: [Eager]/[Lazy] views qualify (refreshing first when
    stale); a stale [Manual] view returns [None] — a plain query must
    never silently read stale data.  Rows are raw (integrated column
    names); the caller applies its own back-mapping. *)

val refresh : t -> string -> Instance.Store.t -> (float, string) result
(** Recomputes the view from scratch; returns the elapsed milliseconds.
    [Error] only for an unknown name. *)

val notify_update : t -> Query.Update.t -> Instance.Store.t -> unit
(** Called after an update was applied, with the {e post-update} store.
    Classifies the update against every view: unaffected views are
    skipped, a pure extension is delta-appended, anything else
    recomputes ([Eager]) or marks stale ([Lazy]/[Manual]). *)

val notify_reset : t -> Instance.Store.t -> string list
(** Called when the store was rebuilt wholesale (schema change, session
    reload).  Re-materializes every view against the new store and
    returns the names of views that were dropped because their defining
    query no longer typechecks.  Restores the catalog invariant that
    every registered view is evaluable. *)

(** Test-only access to raw internal state. *)
module For_testing : sig
  val raw_rows : t -> string -> (Query.Eval.row list * bool) option
  (** The materialized extent exactly as stored (integrated column
      names, no [post], no refresh side effects) and its freshness —
      what the differential property in test/test_view.ml compares
      against from-scratch evaluation. *)
end
