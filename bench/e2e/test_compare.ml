(* The compare gate on synthetic result files: a +15% latency is a
   regression, +5% is not, a baseline whose own spread exceeds the
   bound is unresolved, and a higher-is-better metric regresses when
   it falls. *)

open Bench_e2e

let spec =
  let m name lower_better = { Spec.name; unit = "x"; lower_better; bound = Some 0.10 } in
  { Spec.workloads = [ "w" ]; end_to_end = [ m "lat_ms" true; m "rate" false ]; per_layer = [] }

let dir = "compare-test.tmp"

(* One result file per value, in order; seeds 1..n unless given. *)
let write_side ?seeds side values =
  let d = Filename.concat dir side in
  Util.mkdir_p d;
  let seed i = match seeds with Some s -> List.nth s i | None -> i + 1 in
  List.iteri
    (fun i (lat, rate) ->
      let metric v = Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String "x") ] in
      Util.write_file
        (Filename.concat d (Printf.sprintf "r%02d.json" i))
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("workload", Obs.Json.String "w");
                ("seed", Obs.Json.Int (seed i));
                ("trace", Obs.Json.Bool false);
                ("all", Obs.Json.Obj [ ("lat_ms", metric lat); ("rate", metric rate) ]);
              ])))
    values;
  d

(* A steady baseline: ±1% around 1.0 and 100. *)
let steady scale =
  List.init 10 (fun i ->
      let j = 1. +. (0.002 *. float_of_int (i - 5)) in
      (scale *. j, 100. *. j))

let row ?(spec = spec) ?seeds a b metric =
  Util.rm_rf dir;
  let a = write_side ?seeds "a" a and b = write_side ?seeds "b" b in
  let rows = Compare.rows spec (Compare.load_dir a) (Compare.load_dir b) in
  let code = Compare.run ~spec a b in
  Util.rm_rf dir;
  (List.find (fun (r : Compare.row) -> r.metric.name = metric) rows, code)

let verdict ?spec a b metric =
  let r, code = row ?spec a b metric in
  (Compare.verdict_to_string r.verdict, code)

let check name (got_verdict, got_code) (want_verdict, want_code) =
  Alcotest.(check string) (name ^ ": verdict") want_verdict got_verdict;
  Alcotest.(check int) (name ^ ": exit code") want_code got_code

let test_regression () =
  check "+15% latency" (verdict (steady 1.0) (steady 1.15) "lat_ms") ("REGRESSION", 1)

let test_within_bound () =
  check "+5% latency" (verdict (steady 1.0) (steady 1.05) "lat_ms") ("ok", 0)

let test_unresolved () =
  (* the baseline itself spreads ±20%: a +15% change cannot be told
     from noise *)
  let noisy = List.init 10 (fun i -> (0.8 +. (0.045 *. float_of_int i), 100.)) in
  check "noisy baseline" (verdict noisy (steady 1.15) "lat_ms") ("unresolved", 0)

let test_gain () =
  check "-15% latency" (verdict (steady 1.0) (steady 0.85) "lat_ms") ("gain", 0)

let test_higher_is_better () =
  let fewer = List.map (fun (l, r) -> (l, r *. 0.85)) (steady 1.0) in
  check "-15% rate" (verdict (steady 1.0) fewer "rate") ("REGRESSION", 1)

(* Five runs a side, all at one seed: each A run pairs with its own B
   run, so one lucky B run wins one pair, not all five. *)
let test_repeated_seed () =
  let a = List.init 5 (fun i -> (1.0 +. (0.001 *. float_of_int i), 100.)) in
  let b = (0.8, 100.) :: List.init 4 (fun i -> (1.01 +. (0.001 *. float_of_int i), 100.)) in
  let r, code = row ~seeds:[ 11; 11; 11; 11; 11 ] a b "lat_ms" in
  Alcotest.(check (pair int int)) "wins / pairs" (1, 5) (r.wins, r.pairs);
  check "one lucky run" (Compare.verdict_to_string r.verdict, code) ("ok", 0)

(* A per-layer metric has no bound: +15% is reported, not gated. *)
let test_per_layer () =
  let spec =
    {
      spec with
      end_to_end = [];
      per_layer = [ { Spec.name = "lat_ms"; unit = "x"; lower_better = true; bound = None } ];
    }
  in
  check "+15% per-layer" (verdict ~spec (steady 1.0) (steady 1.15) "lat_ms") ("-", 0);
  check "-15% per-layer" (verdict ~spec (steady 1.0) (steady 0.85) "lat_ms") ("gain", 0)

let () =
  Alcotest.run "sitbench compare"
    [
      ( "gate",
        [
          Alcotest.test_case "+15% latency is a regression" `Quick test_regression;
          Alcotest.test_case "+5% latency is within the bound" `Quick test_within_bound;
          Alcotest.test_case "an overlapping spread is unresolved" `Quick test_unresolved;
          Alcotest.test_case "a clear improvement is a gain" `Quick test_gain;
          Alcotest.test_case "a falling rate is a regression" `Quick test_higher_is_better;
          Alcotest.test_case "repeated seeds pair one to one" `Quick test_repeated_seed;
          Alcotest.test_case "a per-layer metric is reported, not gated" `Quick test_per_layer;
        ] );
    ]
