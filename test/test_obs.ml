(* The observability layer: counters, histograms, span nesting, the
   JSON report round-trip, and the guarantee that instrumentation is a
   no-op while the layer is disabled. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* Each test starts from a clean, enabled layer and leaves the layer
   disabled, so suites cannot contaminate each other. *)
let with_fresh f () =
  Obs.disable ();
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let counter_tests =
  [
    tc "accumulates incr and add"
      (with_fresh (fun () ->
           let c = Obs.Counter.make "test.counter_a" in
           Obs.Counter.incr c;
           Obs.Counter.incr c;
           Obs.Counter.add c 40;
           check Alcotest.int "value" 42 (Obs.Counter.value c)));
    tc "make is idempotent: same name, same counter"
      (with_fresh (fun () ->
           let c1 = Obs.Counter.make "test.counter_b" in
           let c2 = Obs.Counter.make "test.counter_b" in
           Obs.Counter.incr c1;
           Obs.Counter.incr c2;
           check Alcotest.int "shared" 2 (Obs.Counter.value c1)));
    tc "reset zeroes but keeps registration"
      (with_fresh (fun () ->
           let c = Obs.Counter.make "test.counter_c" in
           Obs.Counter.add c 7;
           Obs.reset ();
           check Alcotest.int "zeroed" 0 (Obs.Counter.value c);
           check Alcotest.bool "still listed" true
             (List.mem_assoc "test.counter_c" (Obs.Counter.all ()))));
  ]

let histogram_tests =
  [
    tc "tracks count, sum and exact extrema"
      (with_fresh (fun () ->
           let h = Obs.Histogram.make "test.histo_a" in
           List.iter (Obs.Histogram.observe h) [ 0.001; 0.002; 0.004; 0.1 ];
           check Alcotest.int "count" 4 (Obs.Histogram.count h);
           check (Alcotest.float 1e-9) "sum" 0.107 (Obs.Histogram.sum h);
           check (Alcotest.float 1e-9) "min" 0.001 (Obs.Histogram.min_value h);
           check (Alcotest.float 1e-9) "max" 0.1 (Obs.Histogram.max_value h)));
    tc "quantiles are monotone and within bucket error"
      (with_fresh (fun () ->
           let h = Obs.Histogram.make "test.histo_b" in
           for i = 1 to 1000 do
             Obs.Histogram.observe h (float_of_int i *. 1e-5)
           done;
           let p50 = Obs.Histogram.quantile h 0.5 in
           let p90 = Obs.Histogram.quantile h 0.9 in
           let p99 = Obs.Histogram.quantile h 0.99 in
           check Alcotest.bool "p50 <= p90" true (p50 <= p90);
           check Alcotest.bool "p90 <= p99" true (p90 <= p99);
           (* 4 buckets/octave means at most ~19% relative error *)
           check Alcotest.bool "p50 near 5ms" true
             (p50 > 0.005 /. 1.2 && p50 < 0.005 *. 1.2)));
    tc "time observes the elapsed wall clock"
      (with_fresh (fun () ->
           let h = Obs.Histogram.make "test.histo_c" in
           let x = Obs.Histogram.time h (fun () -> 1 + 1) in
           check Alcotest.int "result passthrough" 2 x;
           check Alcotest.int "one observation" 1 (Obs.Histogram.count h)));
    tc "time observes on the exceptional path too"
      (with_fresh (fun () ->
           let h = Obs.Histogram.make "test.histo_d" in
           (try Obs.Histogram.time h (fun () -> failwith "boom")
            with Failure _ -> ());
           check Alcotest.int "observed despite raise" 1
             (Obs.Histogram.count h)));
  ]

let span_name_tree roots =
  (* "a(b,c(d))" shorthand for comparing shapes *)
  let rec go (s : Obs.Span.snapshot) =
    match s.Obs.Span.children with
    | [] -> s.Obs.Span.name
    | cs -> s.Obs.Span.name ^ "(" ^ String.concat "," (List.map go cs) ^ ")"
  in
  String.concat "," (List.map go roots)

let span_tests =
  [
    tc "nesting builds a tree and accumulates counts"
      (with_fresh (fun () ->
           for _ = 1 to 3 do
             Obs.Span.run "outer" (fun () ->
                 Obs.Span.run "inner" (fun () -> ());
                 Obs.Span.run "inner" (fun () -> ()))
           done;
           check Alcotest.string "shape" "outer(inner)"
             (span_name_tree (Obs.Span.roots ()));
           match Obs.Span.roots () with
           | [ outer ] ->
               check Alcotest.int "outer count" 3 outer.Obs.Span.count;
               let inner = List.hd outer.Obs.Span.children in
               check Alcotest.int "inner count" 6 inner.Obs.Span.count;
               check Alcotest.bool "child time within parent" true
                 (inner.Obs.Span.total_s <= outer.Obs.Span.total_s);
               check (Alcotest.float 1e-9) "self = total - children"
                 (outer.Obs.Span.total_s -. inner.Obs.Span.total_s)
                 outer.Obs.Span.self_s
           | roots ->
               Alcotest.failf "expected one root, got %d" (List.length roots)));
    tc "same name at different depths stays distinct"
      (with_fresh (fun () ->
           Obs.Span.run "a" (fun () -> Obs.Span.run "a" (fun () -> ()));
           Obs.Span.run "a" (fun () -> ());
           check Alcotest.string "shape" "a(a)"
             (span_name_tree (Obs.Span.roots ()))));
    tc "span closes when the body raises"
      (with_fresh (fun () ->
           (try Obs.Span.run "explodes" (fun () -> failwith "boom")
            with Failure _ -> ());
           (* the stack unwound: a following span is a sibling, not a child *)
           Obs.Span.run "after" (fun () -> ());
           check Alcotest.string "shape" "after,explodes"
             (span_name_tree (Obs.Span.roots ()))));
    tc "returns the body's value"
      (with_fresh (fun () ->
           check Alcotest.int "value" 7 (Obs.Span.run "v" (fun () -> 7))));
  ]

let json_tests =
  [
    tc "print/parse round-trip"
      (with_fresh (fun () ->
           let v =
             Obs.Json.Obj
               [
                 ("s", Obs.Json.String "a \"quoted\"\n\ttab");
                 ("i", Obs.Json.Int (-42));
                 ("f", Obs.Json.Float 3.25);
                 ("b", Obs.Json.Bool true);
                 ("n", Obs.Json.Null);
                 ( "l",
                   Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Obj []; Obs.Json.List [] ]
                 );
               ]
           in
           match Obs.Json.of_string (Obs.Json.to_string v) with
           | Ok v' -> check Alcotest.bool "equal" true (v = v')
           | Error e -> Alcotest.fail e));
    tc "pretty-printed output parses identically"
      (with_fresh (fun () ->
           let v =
             Obs.Json.Obj
               [ ("x", Obs.Json.List [ Obs.Json.Float 1.5; Obs.Json.String "y" ]) ]
           in
           match Obs.Json.of_string (Obs.Json.to_string ~indent:2 v) with
           | Ok v' -> check Alcotest.bool "equal" true (v = v')
           | Error e -> Alcotest.fail e));
    tc "unicode escapes decode to UTF-8"
      (with_fresh (fun () ->
           match Obs.Json.of_string {|"Aé"|} with
           | Ok (Obs.Json.String s) -> check Alcotest.string "decoded" "A\xc3\xa9" s
           | Ok _ -> Alcotest.fail "expected a string"
           | Error e -> Alcotest.fail e));
    tc "report round-trips through the parser"
      (with_fresh (fun () ->
           let c = Obs.Counter.make "test.report_counter" in
           Obs.Counter.add c 5;
           let h = Obs.Histogram.make "test.report_histo" in
           Obs.Histogram.observe h 0.002;
           Obs.Span.run "test.report_span" (fun () ->
               Obs.Span.run "test.report_child" (fun () -> ()));
           let text =
             Obs.Report.to_string ~meta:[ ("k", Obs.Json.String "v") ] ()
           in
           match Obs.Json.of_string text with
           | Error e -> Alcotest.fail e
           | Ok doc ->
               check Alcotest.bool "meta kept" true
                 (Obs.Json.find [ "meta"; "k" ] doc
                 = Some (Obs.Json.String "v"));
               check Alcotest.bool "counter exported" true
                 (Obs.Json.find [ "counters"; "test.report_counter" ] doc
                 = Some (Obs.Json.Int 5));
               (match Obs.Json.find [ "histograms"; "test.report_histo"; "count" ] doc with
               | Some (Obs.Json.Int 1) -> ()
               | _ -> Alcotest.fail "histogram count missing");
               (match Obs.Json.member "spans" doc with
               | Some (Obs.Json.List spans) ->
                   check Alcotest.bool "span present" true
                     (List.exists
                        (fun s ->
                          Obs.Json.member "name" s
                          = Some (Obs.Json.String "test.report_span"))
                        spans)
               | _ -> Alcotest.fail "spans missing");
               (* the report itself re-serialises identically *)
               check Alcotest.bool "stable" true
                 (Obs.Json.to_string doc
                 = Obs.Json.to_string
                     (Result.get_ok (Obs.Json.of_string (Obs.Json.to_string doc))))));
  ]

let disabled_tests =
  [
    tc "disabled instrumentation changes no observable state"
      (with_fresh (fun () ->
           (* create the instruments while enabled, then switch off *)
           let c = Obs.Counter.make "test.disabled_counter" in
           let h = Obs.Histogram.make "test.disabled_histo" in
           Obs.disable ();
           Obs.Counter.incr c;
           Obs.Counter.add c 100;
           Obs.Histogram.observe h 1.0;
           let y = Obs.Histogram.time h (fun () -> 3) in
           let z = Obs.Span.run "test.disabled_span" (fun () -> 4) in
           check Alcotest.int "time passthrough" 3 y;
           check Alcotest.int "span passthrough" 4 z;
           check Alcotest.int "counter untouched" 0 (Obs.Counter.value c);
           check Alcotest.int "histogram untouched" 0 (Obs.Histogram.count h);
           check Alcotest.int "span tree untouched" 0
             (List.length (Obs.Span.roots ()))));
    tc "instrumented pipeline is inert while disabled"
      (with_fresh (fun () ->
           Obs.disable ();
           let pairs = Obs.Counter.make "similarity.pairs_compared" in
           let before = Obs.Counter.value pairs in
           ignore (Workload.Paper.integrate_sc1_sc2 ());
           check Alcotest.int "no pairs recorded" before
             (Obs.Counter.value pairs);
           check Alcotest.int "no spans recorded" 0
             (List.length (Obs.Span.roots ()))));
    tc "enabled pipeline records phases and counters"
      (with_fresh (fun () ->
           ignore (Workload.Paper.integrate_sc1_sc2 ());
           let counters = Obs.Counter.all () in
           let value name =
             Option.value ~default:0 (List.assoc_opt name counters)
           in
           check Alcotest.bool "derived assertions counted" true
             (value "assertions.derived" > 0);
           check Alcotest.bool "facts applied" true
             (value "assertions.facts_applied" > 0);
           check Alcotest.bool "objects out" true
             (value "integrate.objects_out" > 0);
           let roots = Obs.Span.roots () in
           check Alcotest.bool "integrate span present" true
             (List.exists
                (fun (s : Obs.Span.snapshot) -> s.Obs.Span.name = "integrate")
                roots)));
  ]

(* ---- the encoder against its reference ------------------------- *)

let float_gen =
  QCheck.Gen.(
    oneof
      [
        (* integral, on both sides of the 1e15 switch to "%.9g" *)
        map Float.of_int (int_range (-1_000_000) 1_000_000);
        map
          (fun (k, neg) -> if neg then -.(1e15 +. Float.of_int k) else 1e15 +. Float.of_int k)
          (pair (int_range (-3) 3) bool);
        oneofl
          [
            0.0; -0.0; 1e15; Float.pred 1e15; Float.succ 1e15; 999_999_999_999_999.0;
            Float.min_float; 4.9e-324; Float.max_float; -.Float.max_float;
            Float.pred Float.max_float; 1e308; 0.1; 2.5; -3.25;
          ];
        (* any finite double: subnormals, huge magnitudes, fractions *)
        map
          (fun bits ->
            let f = Int64.float_of_bits bits in
            if Float.is_finite f then f else Float.max_float)
          ui64;
        float_range (-1e6) 1e6;
      ])

(* bytes 0x00-0xff, with runs of plain ones between the escaped ones *)
let string_gen =
  QCheck.Gen.(
    string_size ~gen:(frequency [ (3, printable); (1, char) ]) (int_bound 24))

let json_gen =
  QCheck.Gen.(
    sized_size (int_bound 6)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, pure Obs.Json.Null);
                 (1, map (fun b -> Obs.Json.Bool b) bool);
                 (2, map (fun i -> Obs.Json.Int i) int);
                 (4, map (fun f -> Obs.Json.Float f) float_gen);
                 (4, map (fun s -> Obs.Json.String s) string_gen);
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Obs.Json.List l) (list_size (int_bound 4) (self (n - 1))));
                 ( 1,
                   map
                     (fun l -> Obs.Json.Obj l)
                     (list_size (int_bound 4) (pair string_gen (self (n - 1)))) );
               ]))

let encoder_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2000
         ~name:"to_string and to_buffer print what the reference prints"
         QCheck.(
           make
             ~print:(fun (indent, v) ->
               Printf.sprintf "indent %s: %s"
                 (Option.fold ~none:"-" ~some:string_of_int indent)
                 (Json_oracle.to_string v))
             Gen.(pair (opt (int_bound 4)) json_gen))
         (fun (indent, v) ->
           let expected = Json_oracle.to_string ?indent v in
           let buf = Buffer.create 1 in
           Buffer.add_string buf "prefix";
           Obs.Json.to_buffer ?indent buf v;
           Obs.Json.to_string ?indent v = expected
           && Buffer.contents buf = "prefix" ^ expected));
    tc "infinities and NaN print as null" (fun () ->
        List.iter
          (fun f ->
            let v = Obs.Json.(List [ Float f; Obj [ ("x", Float f) ] ]) in
            let text = Obs.Json.to_string v in
            check Alcotest.string (Printf.sprintf "%h" f) {|[null,{"x":null}]|} text;
            check Alcotest.bool "parses" true
              (Result.is_ok (Obs.Json.of_string text)))
          [ Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan ]);
    tc "-0., the 1e15 switch and subnormals print as the reference prints"
      (fun () ->
        List.iter
          (fun (f, text) ->
            let v = Obs.Json.(List [ Float f; Obj [ ("x", Float f) ] ]) in
            check Alcotest.string (Printf.sprintf "%h" f) (Json_oracle.to_string v)
              (Obs.Json.to_string v);
            check Alcotest.string (Printf.sprintf "%h alone" f) text
              (Obs.Json.to_string (Obs.Json.Float f)))
          [
            (-0.0, "-0.0");
            (0.0, "0.0");
            (Float.pred 1e15, "1e+15");
            (999_999_999_999_999.0, "999999999999999.0");
            (-999_999_999_999_999.0, "-999999999999999.0");
            (1e15, "1e+15");
            (-1e15, "-1e+15");
            (Float.succ 1e15, "1e+15");
            (4.9e-324, "4.94065646e-324");
            (-4.9e-324, "-4.94065646e-324");
            (Float.pred Float.min_float, "2.22507386e-308");
            (Float.min_float, "2.22507386e-308");
          ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2000 ~name:"dates print as Printf's %04d-%02d-%02d"
         QCheck.(
           triple
             (oneof [ int_range 0 9999; int_range (-20) 20; int ])
             (oneof [ int_range 1 12; int_range (-120) 120 ])
             (oneof [ int_range 1 31; int ]))
         (fun (y, m, d) ->
           let expected = Printf.sprintf "%04d-%02d-%02d" y m d in
           Instance.Value.date_to_string y m d = expected
           && Obs.Json.to_string (Server.Wire.value_to_json (Instance.Value.Date (y, m, d)))
              = "\"" ^ expected ^ "\""));
    tc "one-digit months and days are zero-padded" (fun () ->
        List.iter
          (fun ((y, m, d), text) ->
            check Alcotest.string text ("\"" ^ text ^ "\"")
              (Obs.Json.to_string (Server.Wire.value_to_json (Instance.Value.Date (y, m, d)))))
          [
            ((2020, 9, 1), "2020-09-01");
            ((1999, 12, 31), "1999-12-31");
            ((7, 1, 9), "0007-01-09");
            ((12345, 6, 7), "12345-06-07");
          ]);
  ]

let () =
  Alcotest.run "obs"
    [
      ("counters", counter_tests);
      ("histograms", histogram_tests);
      ("spans", span_tests);
      ("json", json_tests);
      ("encoder", encoder_tests);
      ("disabled", disabled_tests);
    ]
