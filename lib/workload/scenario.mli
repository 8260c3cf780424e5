(** Federation-scale scenarios: seeded end-to-end workloads over the
    whole stack.

    The paper integrates two hand-picked schemas interactively; the
    production story (ROADMAP open item 4) is a federation of many
    heterogeneous sources under churn.  This module turns a seeded
    {!params} into one deterministic {e scenario}:

    - a family of component schemas drawn from one {!Generator}
      ground-truth universe, each rendered through a {e flavor} — native
      ECR, or round-tripped through the relational / hierarchical
      models of [lib/translate] (so the federation is genuinely
      heterogeneous while class names, and with them the generator's
      truth tables, are preserved);
    - instance populations for those schemas ({!Generator.populate}
      over the flavored renderings);
    - an integration session script (attribute equivalences and
      object/relationship assertions derived from the ground-truth
      oracle, pre-validated against a workspace so the rendered script
      always applies cleanly);
    - a {e mixed op schedule}: phases of wire-protocol frames
      (define_view, query storms, update/evolve rounds, refresh,
      migrate-and-redefine checkpoints, drain) that drive a serving
      session through its whole lifecycle.

    Everything — schemas, script, data, schedule — renders to files
    ({!write_files}) consumable by [sit_serve], and the same schedule
    replays through any [play] function ({!transcript}), which is what
    makes the differential harness possible: offline in-process
    execution, a served daemon, hosts with different core counts and a
    crash-resumed daemon must all produce byte-identical
    transcripts (see [docs/SCENARIOS.md] and [test/test_scenario.ml]).

    {2 Determinism contract}

    [generate] is a pure function of {!params}: every derived artefact
    (schema files, script, data, schedule, ground truth) is
    byte-reproducible across runs and platforms ({!Prng} is our own
    SplitMix64).  Responses may vary only in fields named in
    {!normalize_response}. *)

type params = {
  seed : int;
  schemas : int;  (** component schemas in the federation, >= 2 *)
  concepts : int;  (** object concepts in the ground-truth universe *)
  population : int;  (** entity tags shared by the universe *)
  views : int;  (** materialized views defined by the schedule *)
  storm : int;  (** read-only frames per query-storm phase *)
  evolve : int;  (** update frames per evolve phase *)
  rounds : int;  (** evolve/barrier/storm rounds, >= 1 *)
}

val default_params : params
(** seed 42, 4 schemas, 12 concepts, population 160, 4 views, storm 24,
    evolve 8, 2 rounds. *)

(** How a component schema entered the federation. *)
type flavor =
  | Ecr_native  (** the generator's ECR view, as-is *)
  | Relational_rt
      (** rendered via {!Translate.Relational.of_ecr} and re-abstracted
          with [to_ecr] — a source that entered through the
          Navathe–Awong relational procedure *)
  | Hierarchical_rt
      (** rendered via {!Translate.Hierarchical.of_ecr} and re-abstracted
          — relationship sets arrive reified as logical-child records *)

val flavor_to_string : flavor -> string

type phase = {
  label : string;
  storm : bool;
      (** [true]: read-only frames, safe to fan out over concurrent
          connections; [false]: mutating frames, replayed on a single
          connection in order *)
  frames : string list;  (** canonical JSON request lines *)
}

type view_def = {
  v_name : string;
  v_base : string;  (** component schema the query is written against *)
  v_policy : string;  (** "eager", "lazy" or "manual" *)
  v_source : string;  (** the defining query text *)
}

type t = {
  params : params;
  gen : Generator.t;  (** the ground-truth universe *)
  flavors : (string * flavor) list;  (** schema name -> flavor *)
  schemas : Ecr.Schema.t list;  (** the flavored component schemas *)
  directives : Integrate.Op.t list;
  script_text : string;  (** the directives as {!Integrate.Op} lines *)
  stores : (Ecr.Schema.t * Instance.Store.t) list;
  result : Integrate.Result.t;
      (** the offline integration of the scenario, named ["G"] *)
  views : view_def list;
  schedule : phase list;
  checkpoint : int;
      (** index of the migrate-and-redefine phase: the one boundary at
          which a crash-resumed replay rejoins the uninterrupted
          transcript byte-for-byte *)
  barriers : int list;  (** indices of the ground-truth barrier phases *)
}

val generate : params -> t
(** Builds the whole scenario.  Schema flavors cycle
    ECR/relational/hierarchical by position; a rendering its schema
    cannot support (multi-parent category, keyless entity, ...) falls
    back to [Ecr_native], deterministically. *)

val ops_total : t -> int
(** Total frames across all schedule phases. *)

(** {1 Files and schedules} *)

type files = {
  ddl : string;  (** every component schema, one DDL file *)
  script : string;  (** the integration session *)
  data : string;  (** instance blocks for every schema *)
  schedule : string;  (** the schedule, {!parse_schedule} syntax *)
  reads : string;
      (** {!read_frames}, one frame per line — the post-failover replay
          deck of [scripts/chaos_test.sh] *)
}

val write_files : dir:string -> t -> files
(** Renders the scenario under [dir] (created if missing) and returns
    the paths — exactly what [sit_serve], [scripts/scenario_test.sh]
    and [scripts/chaos_test.sh] consume. *)

val read_frames : t -> string list
(** Every read-only (storm-phase) frame of the schedule, in schedule
    order: safe to replay against any node, any number of times, so the
    chaos harness uses them to compare a survivor's answers
    byte-for-byte against the single-node reference. *)

val schedule_to_string : t -> string

val parse_schedule : string -> (phase list * int, string) result
(** Parses a rendered schedule back: phases plus the checkpoint index
    (-1 when the schedule has none).  Grammar, one item per line:
    [!phase LABEL serial|storm [checkpoint]] opens a phase; every other
    non-empty, non-[#] line is a frame of the open phase. *)

(** {1 Differential transcripts} *)

val normalize_response : string -> string
(** Canonicalizes one response line for transcript comparison: any
    [ms] field (the wall-clock duration [refresh_view] reports) is
    zeroed.  Everything else a scenario schedule can elicit is already
    deterministic. *)

val transcript :
  play:(storm:bool -> string array -> string array) -> phase list -> string
(** Replays every phase through [play] (frames in, responses in frame
    order out) and renders the normalized transcript: a [== label] line
    per phase, then one response line per frame.  [play] is the leg
    being tested: in-process execution, a wire client, a resumed
    daemon... *)

(** {1 Ground truth} *)

val missed_true_pairs : t -> (Ecr.Qname.t * Ecr.Qname.t) list
(** True same-concept pairs ({!Generator.t.true_pairs}) that the
    scenario's integration failed to merge into one integrated class —
    must be [[]] for every scenario. *)
