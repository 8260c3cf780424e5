(** Instance migration along integration mappings.

    Populates an instance of the integrated schema from instances of the
    component schemas, so translated queries can be verified end to end:

    - every component entity is inserted into the integrated class its
      component class maps to (category placements follow the component
      store's own placements);
    - entities from classes merged by "equals" are deduplicated on the
      integrated class's key attributes: when an incoming entity agrees
      on all non-null keys with an existing one, the two are fused
      (extra class memberships and attribute values are added to the
      existing entity);
    - attribute values are stored under their integrated names;
    - relationship instances follow their relationship set's mapping,
      with participants translated through the entity correspondence;
      exact duplicate links (same participants and values) collapse. *)

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
(** Timed as the [migrate] span.  What an entity's migration depends on
    besides its tuple (mapping entries, target and insertion classes,
    fusion keys) is resolved once per component schema and set of
    classes the entity was placed in.
    @raise Instance.Store.Violation when a component store references
    structures absent from its schema (i.e. the component store is
    corrupt). *)
