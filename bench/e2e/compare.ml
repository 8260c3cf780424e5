(* sitbench compare A/ B/: the noise-aware gate between two sets of
   result files (A the baseline, B the change), per workload and per
   end-to-end metric of BENCHMARK.json:

   - median and quartiles per side, and A's spread (IQR / median);
   - regression: B's median worse than A's by more than the bound;
   - unresolved: A's own spread exceeds the bound, unless every B run
     beats every A run;
   - gain: B wins at least 9 of every 10 pairs (ties count for
     neither) and the medians differ by more than A's IQR;
   - pair wins are counted on runs paired one to one, by seed, else by
     order.

   Per-layer metrics the result files carry (the open-loop latencies,
   peak throughput, ...) are reported too.  They have no bound, so
   their verdict is a gain by the same rule, or "-". *)

module Json = Obs.Json

type run = { workload : string; seed : int; values : (string * float) list }

let load_run path =
  match Json.of_string (Util.read_file path) with
  | Error e -> Util.fail "%s: %s" path e
  | Ok j -> (
      match (Json.member "workload" j, Json.member "trace" j) with
      | Some (Json.String workload), Some (Json.Bool false) ->
          let values =
            match Json.member "all" j with
            | Some (Json.Obj fields) ->
                List.filter_map
                  (fun (name, m) -> Option.map (fun v -> (name, v)) (Util.member_float [ "value" ] m))
                  fields
            | _ -> []
          in
          Some { workload; seed = Util.member_int [ "seed" ] j; values }
      | _ -> None)

(* Every untraced result file in a directory. *)
let load_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f -> load_run (Filename.concat dir f))

type side = { q1 : float; median : float; q3 : float }

let side values =
  let q1, median, q3 = Stats.quartiles values in
  { q1; median; q3 }

type verdict = Ok | Regression | Unresolved | Gain | Ungated

let verdict_to_string = function
  | Ok -> "ok"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"
  | Gain -> "gain"
  | Ungated -> "-"

type row = {
  workload : string;
  metric : Spec.metric;
  a : side;
  b : side;
  change : float;  (** (B median - A median) / A median *)
  spread : float;  (** A's IQR / median *)
  wins : int;  (** pairs B reads better *)
  pairs : int;
  verdict : verdict;
}

(* A values paired one to one with B values: each A run, in file
   order, with the first B run of the same seed not paired yet (so
   repeated seeds pair in file order); when that pairs fewer runs than
   the smaller side has, the two sides in file order. *)
let pairs a_runs b_runs name =
  let value (r : run) = List.assoc_opt name r.values in
  let b = Array.of_list b_runs in
  let used = Array.make (Array.length b) false in
  let rec partner (ra : run) i =
    if i = Array.length b then None
    else if (not used.(i)) && b.(i).seed = ra.seed then begin
      used.(i) <- true;
      Some b.(i)
    end
    else partner ra (i + 1)
  in
  let by_seed =
    List.filter_map
      (fun ra ->
        match partner ra 0 with
        | Some rb -> (
            match (value ra, value rb) with Some x, Some y -> Some (x, y) | _ -> None)
        | None -> None)
      a_runs
  in
  if List.length by_seed = min (List.length a_runs) (List.length b_runs) then by_seed
  else
    let va = List.filter_map value a_runs and vb = List.filter_map value b_runs in
    let n = min (List.length va) (List.length vb) in
    List.combine (List.filteri (fun i _ -> i < n) va) (List.filteri (fun i _ -> i < n) vb)

let judge (m : Spec.metric) a_runs b_runs workload =
  let vals runs = Array.of_list (List.filter_map (fun (r : run) -> List.assoc_opt m.name r.values) runs) in
  let va = vals a_runs and vb = vals b_runs in
  if Array.length va = 0 || Array.length vb = 0 then None
  else
    let a = side va and b = side vb in
    let better x y = if m.lower_better then x < y else x > y in
    let change =
      if a.median = 0. then if b.median = 0. then 0. else Float.copy_sign infinity b.median
      else (b.median -. a.median) /. a.median
    in
    let worse = if m.lower_better then change else -.change in
    let spread = Stats.rel_iqr va in
    let ps = pairs a_runs b_runs m.name in
    let wins = List.length (List.filter (fun (x, y) -> better y x) ps) in
    let all_better = Array.for_all (fun y -> Array.for_all (fun x -> better y x) va) vb in
    let gain =
      10 * wins >= 9 * List.length ps
      && ps <> []
      && Float.abs (b.median -. a.median) > a.q3 -. a.q1
      && worse < 0.
    in
    let verdict =
      match m.bound with
      | None -> if gain || all_better then Gain else Ungated
      | Some bound ->
          if spread > bound then if all_better then Gain else Unresolved
          else if worse > bound then Regression
          else if gain then Gain
          else Ok
    in
    Some { workload; metric = m; a; b; change; spread; wins; pairs = List.length ps; verdict }

let rows (spec : Spec.t) a_runs b_runs =
  let workloads =
    List.sort_uniq compare (List.map (fun (r : run) -> r.workload) (a_runs @ b_runs))
  in
  List.concat_map
    (fun w ->
      let on runs = List.filter (fun (r : run) -> r.workload = w) runs in
      List.filter_map
        (fun m -> judge m (on a_runs) (on b_runs) w)
        (spec.end_to_end @ spec.per_layer))
    workloads

let print rows =
  Printf.printf "%-17s %-28s %-34s %-34s %8s %7s %6s %6s %s\n" "workload" "metric"
    "A median [q1 .. q3]" "B median [q1 .. q3]" "change" "A iqr" "bound" "wins" "verdict";
  List.iter
    (fun r ->
      let s x = Printf.sprintf "%.4g [%.4g .. %.4g]" x.median x.q1 x.q3 in
      Printf.printf "%-17s %-28s %-34s %-34s %+7.1f%% %6.1f%% %6s %6s %s\n" r.workload r.metric.name
        (s r.a) (s r.b) (100. *. r.change) (100. *. r.spread)
        (match r.metric.bound with Some b -> Printf.sprintf "%.0f%%" (100. *. b) | None -> "-")
        (Printf.sprintf "%d/%d" r.wins r.pairs)
        (verdict_to_string r.verdict))
    rows

(* 0 when no row regressed, 1 otherwise. *)
let run ~spec a_dir b_dir =
  let a = load_dir a_dir and b = load_dir b_dir in
  if a = [] then Util.fail "no untraced result files in %s" a_dir;
  if b = [] then Util.fail "no untraced result files in %s" b_dir;
  let rs = rows spec a b in
  print rs;
  if List.exists (fun r -> r.verdict = Regression) rs then 1 else 0
