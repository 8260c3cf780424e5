(* BENCHMARK.json: the metric lists a result must carry, with units,
   directions and regression bounds. *)

module Json = Obs.Json

type metric = {
  name : string;
  unit : string;
  lower_better : bool;
  bound : float option;  (** share of the baseline median; end-to-end only *)
}

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let load path =
  let j =
    match Json.of_string (Util.read_file path) with
    | Ok j -> j
    | Error e -> Util.fail "%s: %s" path e
    | exception Sys_error e -> Util.fail "%s" e
  in
  let list key =
    match Json.member key j with
    | Some (Json.List l) -> l
    | _ -> Util.fail "%s: no %S list" path key
  in
  let str k o =
    match Json.member k o with
    | Some (Json.String s) -> s
    | _ -> Util.fail "%s: an entry has no %S" path k
  in
  let metric o =
    {
      name = str "name" o;
      unit = str "unit" o;
      lower_better = str "better" o = "lower";
      bound = Option.bind (Json.member "bound" o) Util.to_float;
    }
  in
  {
    workloads = List.map (str "name") (list "workloads");
    end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
  }

(* The listed metrics, in list order, out of everything a run measured;
   fails when one is missing or measured in another unit. *)
let select (wanted : metric list) measured =
  List.map
    (fun m ->
      match List.find_opt (fun (n, _, _) -> n = m.name) measured with
      | Some (n, v, u) ->
          if u <> m.unit then Util.fail "metric %s measured in %s, listed in %s" n u m.unit;
          (n, v, u)
      | None -> Util.fail "metric %s was not measured" m.name)
    wanted
