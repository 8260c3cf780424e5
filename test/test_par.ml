(* lib/par: unit and stress tests of the machine-sized map, a QCheck
   property of its contract, and the headline parallel==sequential
   differential property — sessions fanned out as sit_batch fans out
   its scripts give the same integrated schemas, mappings, summaries,
   warnings, obs pipeline counters and span tree at every domain
   count, because Par.map is an ordered reduction and each session runs
   whole on one domain. *)

open Integrate

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let with_domains = Par.For_testing.with_domains

(* Abort the whole binary if a map wedges: these tests exist to prove
   it cannot deadlock, so hanging forever would be the one
   unacceptable outcome. *)
let with_watchdog seconds f =
  let previous =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> failwith "watchdog: map deadlocked"))
  in
  ignore (Unix.alarm seconds);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm previous)
    f

let counter name = Obs.Counter.value (Obs.Counter.make name)

(* How far [f] moves the [par.workers] counter. *)
let workers_spawned_by f =
  Obs.with_enabled @@ fun () ->
  let before = counter "par.workers" in
  let r = f () in
  (r, counter "par.workers" - before)

(* ------------------------------------------------------------------ *)
(* Unit and stress tests.                                              *)

let pool_tests =
  [
    tc "map is ordered and equal to List.map" (fun () ->
        with_watchdog 60 @@ fun () ->
        with_domains 4 @@ fun () ->
        let xs = List.init 1000 Fun.id in
        check
          Alcotest.(list int)
          "squares in order"
          (List.map (fun x -> x * x) xs)
          (Par.map (fun x -> x * x) xs));
    tc "jobs:1 never spawns a domain" (fun () ->
        Obs.with_enabled (fun () ->
            Obs.reset ();
            with_domains 1 (fun () ->
                let ys = Par.map (fun x -> x + 1) (List.init 100 Fun.id) in
                check Alcotest.int "ran" 100 (List.length ys));
            with_domains 8 (fun () ->
                check Alcotest.(list int) "empty" [] (Par.map succ []);
                check Alcotest.(list int) "singleton" [ 2 ] (Par.map succ [ 1 ]));
            check Alcotest.int "par.workers stays 0" 0 (counter "par.workers");
            check Alcotest.int "par.tasks stays 0 without a fan-out" 0
              (counter "par.tasks")));
    tc "worker exception propagates at await without deadlock" (fun () ->
        with_watchdog 60 @@ fun () ->
        with_domains 4 @@ fun () ->
        (match
           Par.map
             (fun x -> if x mod 3 = 0 then failwith (string_of_int x) else x)
             (List.init 100 (fun i -> i + 1))
         with
        | _ -> Alcotest.fail "expected the task's exception"
        | exception Failure s ->
            (* all failing indices settle first; the lowest one wins *)
            check Alcotest.string "lowest failing element" "3" s);
        (* a failing fan-out hands its domains back *)
        let ys, spawned = workers_spawned_by (fun () -> Par.map (fun x -> 2 * x) [ 1; 2; 3 ]) in
        check Alcotest.(list int) "usable after failure" [ 2; 4; 6 ] ys;
        check Alcotest.int "full budget after failure" 2 spawned);
    tc "10k tiny tasks complete under the watchdog" (fun () ->
        with_watchdog 120 @@ fun () ->
        with_domains 8 @@ fun () ->
        let xs = List.init 10_000 Fun.id in
        let ys = Par.map (fun x -> x land 1) xs in
        check Alcotest.int "all ran" 10_000 (List.length ys);
        check Alcotest.int "sum of parities" 5_000 (List.fold_left ( + ) 0 ys));
    tc "nested map on the same pool makes progress" (fun () ->
        with_watchdog 60 @@ fun () ->
        with_domains 3 @@ fun () ->
        let outer =
          Par.map
            (fun x ->
              List.fold_left ( + ) 0 (Par.map (fun y -> x + y) (List.init 40 Fun.id)))
            (List.init 12 Fun.id)
        in
        let expect x = (40 * x) + (40 * 39 / 2) in
        check Alcotest.(list int) "nested sums" (List.init 12 expect) outer);
    tc "a map never asks for more domains than the host has cores" (fun () ->
        with_watchdog 120 @@ fun () ->
        let ys, spawned =
          workers_spawned_by (fun () -> Par.map (fun x -> x + 1) (List.init 10_000 Fun.id))
        in
        check Alcotest.int "all ran" 10_000 (List.length ys);
        let cap = Domain.recommended_domain_count () - 1 in
        if spawned > cap then
          Alcotest.failf "spawned %d domains, the host allows %d" spawned cap);
  ]

(* The contract over random inputs: the result equals List.map, the
   lowest failing index's exception wins, and a call spawns exactly
   min d len - 1 domains — so the previous call handed all of its
   domains back, which it does only after joining them. *)
exception Element of int

let contract_gen =
  QCheck.Gen.(
    let* len = int_range 0 300 in
    let* domains = int_range 1 8 in
    let* failing = list_size (int_range 0 3) (int_range 0 (Int.max 0 (len - 1))) in
    return (len, domains, if len = 0 then [] else failing))

let contract_tests =
  [
    qtest ~count:100 "map equals List.map, lowest failure wins, domains joined"
      (QCheck.make
         ~print:(fun (len, d, failing) ->
           Printf.sprintf "len=%d domains=%d failing=[%s]" len d
             (String.concat ";" (List.map string_of_int failing)))
         contract_gen)
      (fun (len, d, failing) ->
        with_watchdog 60 @@ fun () ->
        with_domains d @@ fun () ->
        let xs = List.init len Fun.id in
        let f x = if List.mem x failing then raise (Element x) else (3 * x) + 1 in
        let outcome, spawned =
          workers_spawned_by (fun () ->
              match Par.map f xs with
              | ys -> Ok ys
              | exception Element i -> Error i)
        in
        let expected =
          match List.sort Int.compare failing with
          | lowest :: _ -> Error lowest
          | [] -> Ok (List.map f xs)
        in
        outcome = expected && spawned = Int.max 0 (Int.min d len - 1));
  ]

(* ------------------------------------------------------------------ *)
(* The differential property: sit_batch's sessions — independent
   integrations of one federation, each replaying its own script —
   give the same outputs, pipeline counters and span tree at every
   domain count.                                                        *)

(* Counters that legitimately depend on the domain count: the map's
   own bookkeeping.  Every other counter — the pipeline counters —
   must match exactly. *)
let pipeline_counters () =
  List.filter
    (fun (name, _) -> not (String.starts_with ~prefix:"par." name))
    (Obs.Counter.all ())

(* Every span path with its count; durations vary run to run. *)
let span_paths () =
  let rec go prefix (s : Obs.Span.snapshot) =
    let path = prefix ^ "/" ^ s.Obs.Span.name in
    (path, s.Obs.Span.count) :: List.concat_map (go path) s.Obs.Span.children
  in
  List.concat_map (go "") (Obs.Span.roots ())

type output = { ddl : string; mapping : string; summary : string; warnings : string list }

(* One session as sit_batch runs it: the federation's schemas, then
   the script's directives, then one integration. *)
let session (sc : Workload.Scenario.t) directives =
  let ws =
    List.fold_left
      (fun ws s -> Workspace.add_schema s ws)
      Workspace.empty sc.Workload.Scenario.schemas
  in
  match Script.apply directives ws with
  | Error e -> failwith (Script.apply_error_to_string e)
  | Ok ws ->
      let result = Workspace.integrate ~name:"G" ws in
      {
        ddl = Ddl.Printer.to_string result.Result.schema;
        mapping = Format.asprintf "%a" Mapping.pp result.Result.mapping;
        summary = Result.summary result;
        warnings = result.Result.warnings;
      }

type fingerprint = {
  outputs : output list;
  counters : (string * int) list;
  spans : (string * int) list;
}

(* Session [i] of [k] replays the first ceil((i + 1) n / k) of the
   script's [n] directives, so the sessions differ in output and in
   cost and the last one replays the whole script. *)
let scripts (sc : Workload.Scenario.t) k =
  let ds = sc.Workload.Scenario.directives in
  let n = List.length ds in
  List.init k (fun i -> List.filteri (fun j _ -> j * k < (i + 1) * n) ds)

let fingerprint ~domains sc scripts =
  Obs.reset ();
  let outputs = with_domains domains @@ fun () -> Par.map (session sc) scripts in
  { outputs; counters = pipeline_counters (); spans = span_paths () }

let sessions_gen =
  QCheck.Gen.(
    let* seed = int_range 0 10_000 in
    let* schemas = int_range 2 8 in
    let* concepts = int_range 6 14 in
    let* sessions = int_range 2 12 in
    return
      ( {
          Workload.Scenario.seed;
          schemas;
          concepts;
          population = 40;
          views = 1;
          storm = 1;
          evolve = 1;
          rounds = 1;
        },
        sessions ))

let sessions =
  QCheck.make
    ~print:(fun ((p : Workload.Scenario.params), k) ->
      Printf.sprintf "seed=%d schemas=%d concepts=%d sessions=%d" p.seed p.schemas
        p.concepts k)
    sessions_gen

let explain_difference domains seq par =
  let differs what = Printf.sprintf "domains=%d: %s differ" domains what in
  if seq.outputs <> par.outputs then
    let rec first i = function
      | a :: xs, b :: ys -> if a = b then first (i + 1) (xs, ys) else i
      | _ -> i
    in
    differs (Printf.sprintf "session %d outputs" (first 0 (seq.outputs, par.outputs)))
  else if seq.counters <> par.counters then
    let pairs = List.combine seq.counters par.counters in
    let (name, a), (_, b) = List.find (fun ((_, a), (_, b)) -> a <> b) pairs in
    Printf.sprintf "domains=%d: counter %s differs (%d vs %d)" domains name a b
  else
    let show spans =
      String.concat "\n" (List.map (fun (p, c) -> Printf.sprintf "%s x%d" p c) spans)
    in
    Printf.sprintf "domains=%d: span trees differ\none domain:\n%s\nfan-out:\n%s" domains
      (show seq.spans) (show par.spans)

let params =
  QCheck.make
    ~print:(fun (p : Workload.Generator.params) ->
      Printf.sprintf "seed=%d schemas=%d concepts=%d noise=%f" p.seed p.schemas
        p.concepts p.naming_noise)
    QCheck.Gen.(
      let* seed = int_range 0 10_000 in
      let* schemas = int_range 2 8 in
      let* concepts = int_range 6 14 in
      let* noise = float_range 0.0 0.5 in
      return
        {
          Workload.Generator.default_params with
          seed;
          schemas;
          concepts;
          naming_noise = noise;
          population = 100;
        })

let differential_tests =
  [
    qtest ~count:8 "pipeline is invariant in jobs (1 == 2 == 4 == 8)" sessions
      (fun (p, k) ->
        with_watchdog 300 @@ fun () ->
        let sc = Workload.Scenario.generate p in
        let scripts = scripts sc k in
        Obs.with_enabled @@ fun () ->
        let seq = fingerprint ~domains:1 sc scripts in
        List.for_all
          (fun domains ->
            let par = fingerprint ~domains sc scripts in
            if par = seq then true
            else QCheck.Test.fail_report (explain_difference domains seq par))
          [ 2; 4; 8 ]);
    (* each store depends only on its own schema and the read-only truth
       tables *)
    qtest ~count:6 "populate is invariant in jobs" params (fun p ->
        let w = Workload.Generator.generate p in
        let dump stores =
          List.map (fun (s, st) -> Instance.Loader.to_string s st) stores
        in
        dump (Workload.Generator.populate w)
        = dump
            (List.concat_map
               (fun s -> Workload.Generator.populate ~schemas:[ s ] w)
               w.Workload.Generator.schemas));
  ]

let () =
  Alcotest.run "par"
    [
      ("pool", pool_tests);
      ("contract", contract_tests);
      ("differential", differential_tests);
    ]
