(** Instance migration along integration mappings.

    Populates an instance of the integrated schema from instances of the
    component schemas, so translated queries can be verified end to end:

    - every component entity is inserted into the integrated class its
      component class maps to (category placements follow the component
      store's own placements);
    - entities from classes merged by "equals" are deduplicated on the
      integrated class's key attributes: an incoming entity fuses with
      an existing one when any one of its non-null keys equals that
      entity's value for the key ({!Instance.Value.equal}: [Int 3]
      equals [Real 3.], and reals are compared exactly).  A fused
      entity belongs to every class of its constituents and takes each
      attribute's first non-null value, in component order and then
      component oid order;
    - only mapped attributes are written, under their integrated names;
      a component attribute with no integrated home is dropped, since
      no query could read it;
    - relationship instances follow their relationship set's mapping,
      with participants translated through the entity correspondence;
      exact duplicate links (same participants, equal values) collapse. *)

type report = {
  entities_in : int;  (** component entities processed *)
  entities_out : int;  (** integrated entities created *)
  fused : int;  (** entities merged with an existing one *)
  links_in : int;
  links_out : int;
}

val run :
  Integrate.Mapping.t ->
  integrated:Ecr.Schema.t ->
  (Ecr.Schema.t * Instance.Store.t) list ->
  Instance.Store.t * report
(** Timed as the [migrate] span.  Works by columns: the component
    columns that feed each integrated attribute and fusion key are
    resolved once per component schema and set of classes an entity
    was placed in; one pass over the entities decides each one's merged
    entity, and each merged entity is then written once.
    @raise Instance.Store.Violation when a component store references
    structures absent from its schema (i.e. the component store is
    corrupt). *)
