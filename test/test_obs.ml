(* Tests for lib/obs: the metrics registry (thread-safety, registration
   discipline, disabled-path no-ops, exposition formats, quantile
   estimation) and the ambient request tracer (span trees, item counters,
   ring buffer, span cap). *)

open Mope_obs

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let with_metrics f =
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

let with_tracing f =
  Trace.set_enabled true;
  Trace.clear_recent ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear_recent ())
    f

(* ------------------------------------------------------------------ *)
(* Metrics: registration discipline *)

let test_registration () =
  let a = Metrics.counter ~help:"one" "test_obs_reg_total" () in
  let b = Metrics.counter "test_obs_reg_total" () in
  with_metrics (fun () ->
      let before = Metrics.counter_value a in
      Metrics.inc a;
      Metrics.inc b;
      (* Same (name, labels) -> same instance: both incs land on one cell. *)
      Alcotest.(check int) "idempotent registration aliases" (before + 2)
        (Metrics.counter_value b));
  (* A kind clash on a registered name is an error, not a shadow. *)
  (match Metrics.gauge "test_obs_reg_total" () with
  | _ -> Alcotest.fail "expected a kind clash"
  | exception Invalid_argument _ -> ());
  (* Malformed names are rejected. *)
  (match Metrics.counter "Bad-Name" () with
  | _ -> Alcotest.fail "expected a name rejection"
  | exception Invalid_argument _ -> ());
  (* Secret-named label keys are rejected at registration. *)
  (match Metrics.counter "test_obs_labels_total" ~labels:[ ("offset", "3") ] ()
   with
  | _ -> Alcotest.fail "expected a secret label rejection"
  | exception Invalid_argument _ -> ());
  (* Distinct label values are distinct instances. *)
  let x = Metrics.counter "test_obs_lbl_total" ~labels:[ ("op", "enc") ] () in
  let y = Metrics.counter "test_obs_lbl_total" ~labels:[ ("op", "dec") ] () in
  with_metrics (fun () ->
      let y0 = Metrics.counter_value y in
      Metrics.inc x;
      Alcotest.(check int) "label instances independent" y0
        (Metrics.counter_value y))

let test_disabled_is_noop () =
  let c = Metrics.counter "test_obs_disabled_total" () in
  let h = Metrics.histogram "test_obs_disabled_seconds" () in
  Metrics.set_enabled false;
  let v0 = Metrics.counter_value c and n0 = Metrics.histogram_count h in
  Metrics.inc c;
  Metrics.inc ~by:100 c;
  Metrics.observe h 0.5;
  let ran = ref false in
  let out = Metrics.time h (fun () -> ran := true; 42) in
  Alcotest.(check int) "time passes the thunk through" 42 out;
  Alcotest.(check bool) "thunk ran" true !ran;
  Alcotest.(check int) "counter untouched while disabled" v0
    (Metrics.counter_value c);
  Alcotest.(check int) "histogram untouched while disabled" n0
    (Metrics.histogram_count h)

let test_label_cardinality_guard () =
  (* Per-family cap on distinct label-value sets: the oldest instance is
     evicted from the exposition (its handle keeps counting, harmlessly)
     and every eviction ticks [mope_metrics_labels_dropped_total] — so an
     unbounded label source (say, tenant ids from the wire) cannot grow
     the registry without bound or silently. *)
  let prev = Metrics.max_label_sets () in
  Fun.protect
    ~finally:(fun () -> Metrics.set_max_label_sets prev)
    (fun () ->
      Metrics.set_max_label_sets 3;
      Alcotest.(check int) "cap readable" 3 (Metrics.max_label_sets ());
      let fam = "test_obs_card_total" in
      let unlabeled = Metrics.counter ~help:"guard" fam () in
      let labeled v = Metrics.counter fam ~labels:[ ("tenant", v) ] () in
      let t1 = labeled "t1" in
      let _t2 = labeled "t2" and _t3 = labeled "t3" in
      let dropped0 = Metrics.labels_dropped () in
      with_metrics (fun () ->
          Metrics.inc unlabeled;
          Metrics.inc t1;
          (* A fourth distinct label set breaches the cap: t1 (oldest) is
             evicted, the drop is counted. *)
          let t4 = labeled "t4" in
          Metrics.inc t4;
          Alcotest.(check int) "one eviction counted" (dropped0 + 1)
            (Metrics.labels_dropped ());
          let text = Metrics.render_prometheus () in
          Alcotest.(check bool) "evicted instance gone from exposition" false
            (contains ~needle:"tenant=\"t1\"" text);
          List.iter
            (fun v ->
              Alcotest.(check bool) (v ^ " still rendered") true
                (contains ~needle:("tenant=\"" ^ v ^ "\"") text))
            [ "t2"; "t3"; "t4" ];
          Alcotest.(check bool) "drop counter itself rendered" true
            (contains ~needle:"mope_metrics_labels_dropped_total" text);
          (* The unlabeled instance of the family is never evicted. *)
          Alcotest.(check bool) "unlabeled instance immune" true
            (contains ~needle:fam text);
          (* The evicted handle stays safe to use — it just no longer
             renders. *)
          Metrics.inc t1;
          Alcotest.(check bool) "evicted handle still counts" true
            (Metrics.counter_value t1 >= 2);
          (* Re-registering an evicted label set re-admits it (evicting the
             then-oldest), so a bursty label source degrades to LRU-ish
             churn rather than permanent loss. *)
          let t1' = labeled "t1" in
          Metrics.inc t1';
          Alcotest.(check int) "readmission evicts the next oldest"
            (dropped0 + 2)
            (Metrics.labels_dropped ());
          let text' = Metrics.render_prometheus () in
          Alcotest.(check bool) "readmitted instance renders" true
            (contains ~needle:"tenant=\"t1\"" text');
          Alcotest.(check bool) "t2 evicted in its place" false
            (contains ~needle:"tenant=\"t2\"" text')))

(* ------------------------------------------------------------------ *)
(* Metrics: concurrent hammering matches sequential totals *)

let test_concurrent_hammering () =
  let c = Metrics.counter "test_obs_hammer_total" () in
  let g = Metrics.gauge "test_obs_hammer_gauge" () in
  let h = Metrics.histogram "test_obs_hammer_seconds" () in
  let n_threads = 8 and per_thread = 25_000 in
  with_metrics (fun () ->
      let c0 = Metrics.counter_value c in
      let g0 = Metrics.gauge_value g in
      let n0 = Metrics.histogram_count h in
      let s0 = Metrics.histogram_sum h in
      let worker k () =
        for i = 1 to per_thread do
          Metrics.inc c;
          Metrics.gauge_add g 1;
          (* A spread of values so several stripes and buckets are hit. *)
          Metrics.observe h (1e-6 *. float_of_int (((k * per_thread) + i) mod 1000))
        done
      in
      let threads = List.init n_threads (fun k -> Thread.create (worker k) ()) in
      List.iter Thread.join threads;
      Alcotest.(check int) "counter total exact" (n_threads * per_thread)
        (Metrics.counter_value c - c0);
      Alcotest.(check int) "gauge total exact" (n_threads * per_thread)
        (Metrics.gauge_value g - g0);
      Alcotest.(check int) "histogram count exact" (n_threads * per_thread)
        (Metrics.histogram_count h - n0);
      (* The sum is an exact sum of the same multiset every run. *)
      let expect_sum =
        let s = ref 0.0 in
        for k = 0 to n_threads - 1 do
          for i = 1 to per_thread do
            s := !s +. (1e-6 *. float_of_int (((k * per_thread) + i) mod 1000))
          done
        done;
        !s
      in
      Alcotest.(check bool) "histogram sum matches sequential" true
        (Float.abs (Metrics.histogram_sum h -. s0 -. expect_sum)
         < 1e-9 *. Float.max 1.0 expect_sum))

(* ------------------------------------------------------------------ *)
(* Quantiles: the shared estimator and its histogram wrapper *)

let test_quantile_of_buckets () =
  let open Mope_stats in
  let bounds = [| 1.0; 2.0; 4.0 |] in
  (* 10 samples <=1, 0 in (1,2], 10 in (2,4], none above. *)
  let counts = [| 10; 0; 10; 0 |] in
  Alcotest.(check (float 1e-9)) "empty is 0"
    0.0
    (Summary.quantile_of_buckets ~bounds ~counts:[| 0; 0; 0; 0 |] 0.5);
  Alcotest.(check bool) "median on the boundary" true
    (let q = Summary.quantile_of_buckets ~bounds ~counts 0.5 in
     q >= 1.0 && q <= 2.0);
  Alcotest.(check bool) "p25 inside the first bucket" true
    (Summary.quantile_of_buckets ~bounds ~counts 0.25 <= 1.0);
  Alcotest.(check bool) "p90 inside the third bucket" true
    (let q = Summary.quantile_of_buckets ~bounds ~counts 0.9 in
     q > 2.0 && q <= 4.0);
  (* Mass in the overflow bucket pins the estimate to the last bound. *)
  Alcotest.(check (float 1e-9)) "overflow clamps to last bound" 4.0
    (Summary.quantile_of_buckets ~bounds ~counts:[| 0; 0; 0; 5 |] 0.99);
  (match Summary.quantile_of_buckets ~bounds ~counts:[| 1; 2 |] 0.5 with
  | _ -> Alcotest.fail "expected a shape mismatch rejection"
  | exception Invalid_argument _ -> ());
  (match Summary.quantile_of_buckets ~bounds ~counts 1.5 with
  | _ -> Alcotest.fail "expected a q-range rejection"
  | exception Invalid_argument _ -> ())

let test_histogram_quantile () =
  let h =
    Metrics.histogram ~buckets:[| 0.001; 0.01; 0.1; 1.0 |]
      "test_obs_quantile_seconds" ()
  in
  with_metrics (fun () ->
      for _ = 1 to 90 do Metrics.observe h 0.005 done;
      for _ = 1 to 10 do Metrics.observe h 0.05 done;
      let p50 = Metrics.histogram_quantile h 0.5 in
      Alcotest.(check bool) "p50 in the 0.005 bucket" true
        (p50 > 0.001 && p50 <= 0.01);
      let p99 = Metrics.histogram_quantile h 0.99 in
      Alcotest.(check bool) "p99 in the 0.05 bucket" true
        (p99 > 0.01 && p99 <= 0.1))

(* ------------------------------------------------------------------ *)
(* Exposition formats *)

let test_prometheus_exposition () =
  let c = Metrics.counter ~help:"An expo counter" "test_obs_expo_total" () in
  let h =
    Metrics.histogram ~buckets:[| 0.1; 1.0 |] "test_obs_expo_seconds" ()
  in
  with_metrics (fun () ->
      Metrics.inc ~by:3 c;
      Metrics.observe h 0.05;
      Metrics.observe h 0.5;
      Metrics.observe h 5.0;
      let text = Metrics.render_prometheus () in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (needle ^ " present") true
            (contains ~needle text))
        [ "# HELP test_obs_expo_total An expo counter";
          "# TYPE test_obs_expo_total counter";
          "# TYPE test_obs_expo_seconds histogram";
          "test_obs_expo_seconds_bucket{le=\"+Inf\"}";
          "test_obs_expo_seconds_count";
          "test_obs_expo_seconds_sum" ];
      (* Buckets are cumulative: le=1 counts the 0.05 sample too. *)
      Alcotest.(check bool) "cumulative buckets" true
        (contains ~needle:"test_obs_expo_seconds_bucket{le=\"1\"} 2" text
        || contains ~needle:"test_obs_expo_seconds_bucket{le=\"1.0\"} 2" text);
      let json = Metrics.render_json () in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("json has " ^ needle) true
            (contains ~needle json))
        [ "\"counters\""; "\"gauges\""; "\"histograms\"";
          "\"test_obs_expo_total\""; "\"p99\"" ];
      (* A remote scrape reads a counter back out of the JSON. *)
      Alcotest.(check (option int)) "counter read back from json"
        (Some (Metrics.counter_value c))
        (Metrics.json_counter json "test_obs_expo_total");
      Alcotest.(check (option int)) "absent counter" None
        (Metrics.json_counter json "test_obs_no_such_total"))

(* ------------------------------------------------------------------ *)
(* Tracing *)

let test_trace_span_tree () =
  with_tracing (fun () ->
      let out =
        Trace.run ~id:"cafebabecafebabe" (fun () ->
            Trace.record_span "decode" ~dur_us:12.0;
            Trace.with_span "dispatch" (fun () ->
                Trace.with_span "exec" (fun () ->
                    Trace.add_item "rows" 7;
                    Trace.add_item "rows" 3);
                17))
      in
      Alcotest.(check int) "run returns the thunk's value" 17 out;
      match Trace.recent () with
      | [ d ] ->
        Alcotest.(check string) "trace id" "cafebabecafebabe" d.Trace.id;
        let names = List.map (fun s -> s.Trace.name) d.Trace.spans in
        Alcotest.(check (list string)) "pre-order"
          [ "request"; "decode"; "dispatch"; "exec" ] names;
        let by_name n = List.find (fun s -> s.Trace.name = n) d.Trace.spans in
        Alcotest.(check int) "root depth" 0 (by_name "request").Trace.depth;
        Alcotest.(check int) "dispatch depth" 1 (by_name "dispatch").Trace.depth;
        Alcotest.(check int) "exec depth" 2 (by_name "exec").Trace.depth;
        Alcotest.(check (list (pair string int))) "items merged"
          [ ("rows", 10) ] (by_name "exec").Trace.items;
        (* The root was stretched back over the back-dated decode span. *)
        let root = by_name "request" and decode = by_name "decode" in
        Alcotest.(check bool) "root covers decode" true
          (root.Trace.start_us <= decode.Trace.start_us);
        let rendered = Trace.render d in
        Alcotest.(check bool) "render names the trace" true
          (contains ~needle:"cafebabecafebabe" rendered);
        Alcotest.(check bool) "render shows merged items" true
          (contains ~needle:"rows=10" rendered)
      | l -> Alcotest.fail (Printf.sprintf "expected 1 trace, got %d"
                              (List.length l)))

let test_trace_disabled_and_empty_id () =
  Trace.set_enabled false;
  Trace.clear_recent ();
  let r = Trace.run ~id:"feedfacefeedface" (fun () -> 1) in
  Alcotest.(check int) "disabled run passes through" 1 r;
  Alcotest.(check int) "nothing recorded while disabled" 0
    (List.length (Trace.recent ()));
  with_tracing (fun () ->
      ignore (Trace.run ~id:"" (fun () -> Trace.with_span "x" (fun () -> 2)));
      Alcotest.(check int) "empty id means untraced" 0
        (List.length (Trace.recent ())))

let test_trace_ring_overflow () =
  with_tracing (fun () ->
      for i = 1 to 80 do
        Trace.run ~id:(Printf.sprintf "%016x" i) (fun () -> ())
      done;
      let recent = Trace.recent () in
      Alcotest.(check int) "ring keeps the newest 64" 64 (List.length recent);
      (match recent with
      | newest :: _ ->
        Alcotest.(check string) "newest first" (Printf.sprintf "%016x" 80)
          newest.Trace.id
      | [] -> Alcotest.fail "empty ring");
      let oldest = List.nth recent 63 in
      Alcotest.(check string) "oldest survivor is 17"
        (Printf.sprintf "%016x" 17) oldest.Trace.id)

let test_trace_span_cap () =
  with_tracing (fun () ->
      Trace.run ~id:"0123456789abcdef" (fun () ->
          for _ = 1 to 600 do
            Trace.with_span "tiny" (fun () -> ())
          done);
      match Trace.recent () with
      | [ d ] ->
        let dropped =
          List.find_opt (fun s -> s.Trace.name = "dropped_spans") d.Trace.spans
        in
        (match dropped with
        | Some s ->
          Alcotest.(check (list (pair string int))) "dropped count recorded"
            [ ("count", 600 + 1 - 512) ] s.Trace.items
        | None -> Alcotest.fail "expected a dropped_spans marker");
        Alcotest.(check bool) "span list stays bounded" true
          (List.length d.Trace.spans <= 513)
      | _ -> Alcotest.fail "expected exactly 1 trace")

let test_mint_id () =
  let rng = Mope_stats.Rng.create 42L in
  let a = Trace.mint_id rng in
  let b = Trace.mint_id rng in
  Alcotest.(check int) "16 chars" 16 (String.length a);
  Alcotest.(check bool) "hex alphabet" true
    (String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       a);
  Alcotest.(check bool) "consecutive ids differ" true (a <> b);
  let rng' = Mope_stats.Rng.create 42L in
  Alcotest.(check string) "deterministic from the seed" a (Trace.mint_id rng')

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "registration discipline" `Quick test_registration;
          Alcotest.test_case "disabled mutations are no-ops" `Quick
            test_disabled_is_noop;
          Alcotest.test_case "label cardinality guard" `Quick
            test_label_cardinality_guard;
          Alcotest.test_case "concurrent hammering is exact" `Slow
            test_concurrent_hammering;
          Alcotest.test_case "prometheus + json exposition" `Quick
            test_prometheus_exposition ] );
      ( "quantiles",
        [ Alcotest.test_case "bucket quantile estimator" `Quick
            test_quantile_of_buckets;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantile ] );
      ( "trace",
        [ Alcotest.test_case "span tree shape" `Quick test_trace_span_tree;
          Alcotest.test_case "disabled / empty id pass through" `Quick
            test_trace_disabled_and_empty_id;
          Alcotest.test_case "ring overflow keeps newest" `Quick
            test_trace_ring_overflow;
          Alcotest.test_case "span cap drops and marks" `Quick
            test_trace_span_cap;
          Alcotest.test_case "mint_id" `Quick test_mint_id ] ) ]
