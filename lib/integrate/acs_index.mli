(** An owner-indexed view of the ACS partition, built once and queried
    per OCS entry in constant time.

    {!Equivalence.shared_count} answers one OCS matrix entry by scanning
    the {e whole} ACS partition, and the similarity ranking asks for
    O(|O₁|·|O₂|) entries — the measured hot path of the assertion phase
    (see [docs/PERFORMANCE.md]).  An index folds the partition {e once}
    into

    - per unordered owner pair, the number of equivalence classes
      containing at least one attribute of each owner (exactly the OCS
      entry), and
    - per owner, the number of classes covering it (the diagonal),

    so that a full OCS matrix costs one O(attrs) build plus a lookup per
    entry, instead of a partition scan per entry.

    An index is a snapshot: it answers for the equivalence it was built
    from, and a later edit of that equivalence needs a new {!build}.
    Like the paper's tool, which derives the OCS matrix when the DDA
    leaves the equivalence phase, callers build one when they rank.

    Observability: builds run under the ["similarity.index_build"] span
    and count ["similarity.index_builds"]. *)

type t

val build : Equivalence.t -> t
(** [build eq] folds the whole partition into an index.  O(attrs ·
    log attrs + Σ per-class owner pairs) — one pass; every subsequent
    {!shared} query is two map lookups and an array read. *)

val shared : Ecr.Qname.t -> Ecr.Qname.t -> t -> int
(** [shared o1 o2 t] is the OCS entry for the two structures: the number
    of equivalence classes containing at least one attribute of each.
    Agrees with {!Equivalence.shared_count} on the equivalence the index
    was built from (property-tested in [test/test_similarity.ml]). *)
