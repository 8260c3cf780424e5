(* The reference global-query evaluation: the map pipeline that
   [Query.Rewrite]'s column plans replaced.  Each component query is
   evaluated to rows under the component's names, then renamed to the
   integrated names, padded with [Null] where the component lacks an
   attribute and projected onto the expected columns, one pass each;
   the parts' rows are then outer-unioned, keeping the first of rows
   that agree column by column under [Instance.Value.equal].  The tests
   check that the plans answer the same rows in the same order, and
   unfold to the same component queries. *)

open Ecr
module Value = Instance.Value
module Ast = Query.Ast
module Eval = Query.Eval

type part = {
  component : Name.t;
  query : Ast.t;
  post : Eval.row list -> Eval.row list;
}

let rename_columns f rows =
  List.map
    (fun r -> Name.Map.fold (fun k v acc -> Name.Map.add (f k) v acc) r Name.Map.empty)
    rows

let project_rows cols rows =
  List.map (fun r -> Name.Map.filter (fun k _ -> List.exists (Name.equal k) cols) r) rows

let pad names rows =
  List.map (fun r -> List.fold_left (fun r a -> Name.Map.add a Value.Null r) r names) rows

let prefixed cls a = Name.v (Name.to_string cls ^ "_" ^ Name.to_string a)

let expand_select schema cls = function
  | [] -> Attribute.names (Schema.all_attributes schema cls)
  | names -> names

let contributing_entries mapping integrated cls =
  List.concat_map
    (fun t -> Integrate.Mapping.objects_into t mapping)
    (cls :: Schema.descendants integrated cls)

let reverse_attr_map (e : Integrate.Mapping.entry) =
  Name.Map.fold
    (fun comp_attr target acc -> Name.Map.add target.Integrate.Mapping.as_attr comp_attr acc)
    e.Integrate.Mapping.attrs Name.Map.empty

let rewrite_pred_back reverse p =
  let rec walk = function
    | Ast.Atom (a, cmp, v) -> (
        match Name.Map.find_opt a reverse with
        | Some comp -> Ast.Atom (comp, cmp, v)
        | None -> Ast.Const false)
    | Ast.And (p, q) -> Ast.And (walk p, walk q)
    | Ast.Or (p, q) -> Ast.Or (walk p, walk q)
    | Ast.Not p -> Ast.Not (walk p)
    | Ast.Const b -> Ast.Const b
  in
  walk p

(* [available] of [wanted] through [reverse], with the renaming from the
   component's column names (under [comp_name]) back to [int_name]. *)
let split reverse wanted ~comp_name ~int_name =
  let available, missing = List.partition (fun a -> Name.Map.mem a reverse) wanted in
  let select = List.map (fun a -> Name.Map.find a reverse) available in
  let back =
    List.fold_left2
      (fun acc int_a comp_a -> Name.Map.add (comp_name comp_a) (int_name int_a) acc)
      Name.Map.empty available select
  in
  let rename n = Option.value ~default:n (Name.Map.find_opt n back) in
  (select, missing, rename)

let from_schema schema_name entries =
  List.filter
    (fun (e : Integrate.Mapping.entry) ->
      Name.equal e.Integrate.Mapping.source.Qname.schema schema_name)
    entries

let to_components mapping ~integrated q =
  let wanted = expand_select integrated q.Ast.from_class q.Ast.select in
  List.filter_map
    (fun (entry : Integrate.Mapping.entry) ->
      let reverse = reverse_attr_map entry in
      let comp_select, missing, rename =
        split reverse wanted ~comp_name:Fun.id ~int_name:Fun.id
      in
      let joined =
        match q.Ast.via with
        | None -> Some (None, Fun.id, [])
        | Some j -> (
            let schema = entry.Integrate.Mapping.source.Qname.schema in
            match
              ( from_schema schema (Integrate.Mapping.relationships_into j.Ast.rel mapping),
                from_schema schema (contributing_entries mapping integrated j.Ast.target) )
            with
            | rel_e :: _, tgt_e :: _ ->
                let comp_target = tgt_e.Integrate.Mapping.source.Qname.obj in
                let comp_rel = rel_e.Integrate.Mapping.source.Qname.obj in
                let treverse = reverse_attr_map tgt_e in
                let twanted = expand_select integrated j.Ast.target j.Ast.target_select in
                let tselect, tmissing, trename =
                  split treverse twanted ~comp_name:(prefixed comp_target)
                    ~int_name:(prefixed j.Ast.target)
                in
                let rselect, rmissing, rrename =
                  split (reverse_attr_map rel_e) j.Ast.rel_select
                    ~comp_name:(prefixed comp_rel) ~int_name:(prefixed j.Ast.rel)
                in
                let post rows =
                  rows |> rename_columns trename
                  |> pad (List.map (prefixed j.Ast.target) tmissing)
                  |> rename_columns rrename
                  |> pad (List.map (prefixed j.Ast.rel) rmissing)
                in
                Some
                  ( Some
                      {
                        Ast.rel = comp_rel;
                        rel_select = rselect;
                        target = comp_target;
                        target_where = Option.map (rewrite_pred_back treverse) j.Ast.target_where;
                        target_select = tselect;
                      },
                    post,
                    List.map (prefixed j.Ast.target) twanted
                    @ List.map (prefixed j.Ast.rel) j.Ast.rel_select )
            | _ -> None)
      in
      Option.map
        (fun (via, via_post, joined_columns) ->
          let expected = wanted @ joined_columns in
          {
            component = entry.Integrate.Mapping.source.Qname.schema;
            query =
              {
                Ast.from_class = entry.Integrate.Mapping.source.Qname.obj;
                where = Option.map (rewrite_pred_back reverse) q.Ast.where;
                select = comp_select;
                via;
              };
            post =
              (fun rows ->
                rows |> via_post |> rename_columns rename |> pad missing
                |> project_rows expected);
          })
        joined)
    (contributing_entries mapping integrated q.Ast.from_class)

(* Rows agreeing column by column under [Value.equal] are one row: a
   table keyed on the row with every number as a float narrows the
   candidates, which are then compared exactly. *)
let outer_union rows =
  let key r =
    List.map
      (fun (k, v) ->
        ( k,
          match v with
          | Value.Int i -> Value.Real (float_of_int i)
          | Value.Real f when f = 0. -> Value.Real 0.
          | v -> v ))
      (Name.Map.bindings r)
  in
  let seen = Hashtbl.create 64 in
  List.filter
    (fun r ->
      let k = key r in
      if List.exists (Name.Map.equal Value.equal r) (Hashtbl.find_all seen k) then false
      else begin
        Hashtbl.add seen k r;
        true
      end)
    rows

let run_components parts ~stores =
  let redundant part =
    match List.assoc_opt part.component stores with
    | None -> true
    | Some store ->
        let schema = Instance.Store.schema store in
        List.exists
          (fun other ->
            Name.equal other.component part.component
            && (not (Name.equal other.query.Ast.from_class part.query.Ast.from_class))
            && Schema.is_ancestor schema ~ancestor:other.query.Ast.from_class
                 part.query.Ast.from_class)
          parts
  in
  List.concat_map
    (fun part ->
      if redundant part then []
      else
        match List.assoc_opt part.component stores with
        | None -> []
        | Some store -> part.post (Eval.run part.query store))
    parts
  |> outer_union
