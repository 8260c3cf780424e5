(** Observability for the integration pipeline: counters, histograms and
    hierarchical timing spans, exported as a JSON report.

    The layer is {e off by default} and globally switched: while
    disabled, every instrumentation call short-circuits on one boolean
    load — no state is touched, so code can stay instrumented
    permanently (the library tests assert this no-op property).  A
    metrics run looks like:

    {[
      Obs.enable ();
      Obs.reset ();
      (* ... run the pipeline, queries, workloads ... *)
      Obs.Report.write "BENCH.json";
      Obs.disable ()
    ]}

    Instrumentation points live next to the code they measure and use
    dotted names grouped by layer (["similarity.pairs_compared"],
    ["assertions.derived"], ["query.eval_seconds"]); the full inventory
    is documented in [docs/ARCHITECTURE.md].

    The layer is domain-safe: counters are atomic, histograms serialise
    observations under a per-histogram lock, and {!Span}'s ambient stack
    is domain-local (spans entered on a domain spawned by [lib/par]
    start a fresh ancestry and land at the root level of the tree).
    The lifecycle calls — {!enable}, {!disable}, {!reset}, report
    generation — are still single-domain: call them only when no
    [Par.map] is in flight. *)

val enable : unit -> unit
(** Turns collection on (idempotent). *)

val disable : unit -> unit
(** Turns collection off (idempotent).  Must not be called while a
    {!Span.run} is in progress. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Zeroes all counters and histograms and drops the span tree;
    registrations survive.  Must not be called while a {!Span.run} is in
    progress. *)

val with_enabled : (unit -> 'a) -> 'a
(** [with_enabled f] runs [f] with collection on, restoring the previous
    state afterwards (also on exceptions). *)

module Json = Json
module Counter = Counter
module Histogram = Histogram
module Span = Span
module Report = Report
