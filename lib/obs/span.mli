(** Hierarchical wall-clock timing spans.

    [run name f] times [f ()] and charges the elapsed time to the node
    [name] {e under the currently running span}, building a call-tree of
    phases: entering ["integrate"] and, inside it, ["integrate.lattice"]
    yields a parent node with a child.  Durations and hit counts
    accumulate across runs of the same path, so a span executed in a
    loop shows up once with [count] = iterations.

    While the layer is disabled, [run name f] is exactly [f ()] — one
    branch of overhead, no state touched.  Do not toggle
    {!Obs.enable}/{!Obs.disable} or call {!reset} while a span is
    running; the tree would be left dangling.

    The ambient ancestry is domain-local: a span entered on a domain
    spawned by [lib/par]'s map starts a fresh ancestry, so it
    accumulates under a root-level node named after it rather than
    under the span the calling domain happens to be running.  Tree
    updates are serialised, so concurrent spans of the same name never
    lose counts; only a one-domain run's tree {e shape} is stable,
    which is why the bench-diff gate compares reports of a metrics run
    that fans nothing out. *)

val run : string -> (unit -> 'a) -> 'a
(** Times [f] and accounts it to child [name] of the current span (a
    root span when none is running).  Exception-safe: the span closes
    and is recorded even when [f] raises. *)

type snapshot = {
  name : string;
  count : int;  (** times this path was entered *)
  total_s : float;  (** inclusive wall-clock seconds *)
  self_s : float;  (** [total_s] minus the children's [total_s] *)
  children : snapshot list;  (** sorted by name *)
}
(** An immutable copy of one node of the span tree. *)

val roots : unit -> snapshot list
(** The accumulated top-level spans, sorted by name. *)

val reset : unit -> unit
(** Drops the whole tree.  Must not be called inside {!run}. *)
