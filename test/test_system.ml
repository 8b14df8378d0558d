(* Tests for lib/system: encrypted database construction, SQL rewriting, and
   the proxy's end-to-end equivalence with the plaintext baseline. *)

open Mope_db
open Mope_workload
open Mope_system

let testbed = lazy (Testbed.load ~sf:0.002 ~seed:21L ())

(* ------------------------------------------------------------------ *)
(* Encrypted_db *)

let enc = lazy (Testbed.encrypted_for (Lazy.force testbed) ~rho:None)

let test_date_roundtrip () =
  let enc = Lazy.force enc in
  for day = Tpch.window_lo to Tpch.window_lo + 100 do
    Alcotest.(check int) "date roundtrip" day
      (Encrypted_db.decrypt_date enc (Encrypted_db.encrypt_date enc day))
  done

let test_date_order_preserved_modularly () =
  let enc = Lazy.force enc in
  (* Within a non-wrapping shifted run, ciphertext order equals date order;
     just check ciphertexts are distinct and roundtrip for a spread. *)
  let days = List.init 50 (fun i -> Tpch.window_lo + (i * 50)) in
  let cts = List.map (Encrypted_db.encrypt_date enc) days in
  Alcotest.(check int) "distinct" 50 (List.length (List.sort_uniq Int.compare cts))

let test_int_det_roundtrip () =
  let enc = Lazy.force enc in
  List.iter
    (fun v ->
      Alcotest.(check int) "det roundtrip" v
        (Encrypted_db.decrypt_int enc (Encrypted_db.encrypt_int enc v)))
    [ 0; 1; 42; 99_999; (1 lsl 40) - 1 ]

let test_encrypted_tables_exist () =
  let enc = Lazy.force enc in
  let server = Encrypted_db.server enc in
  List.iter
    (fun name ->
      match Database.table server name with
      | Some t ->
        let plain = Database.table_exn (Testbed.plain (Lazy.force testbed)) name in
        Alcotest.(check int) (name ^ " row count") (Table.length plain) (Table.length t)
      | None -> Alcotest.fail ("missing encrypted table " ^ name))
    [ "lineitem"; "orders"; "part" ]

let test_encrypted_schema_types () =
  let enc = Lazy.force enc in
  let server = Encrypted_db.server enc in
  let lineitem = Database.table_exn server "lineitem" in
  let col name =
    match Schema.find (Table.schema lineitem) name with
    | Some c -> c.Schema.ty
    | None -> Alcotest.fail ("no column " ^ name)
  in
  Alcotest.(check bool) "shipdate is INT ciphertext" true (col "l_shipdate" = Value.TInt);
  Alcotest.(check bool) "commitdate left as date" true (col "l_commitdate" = Value.TDate);
  Alcotest.(check bool) "orderkey is INT ciphertext" true (col "l_orderkey" = Value.TInt)

let test_det_join_consistency () =
  (* The DET encryption must preserve the join: encrypted counts match. *)
  let tb = Lazy.force testbed in
  let enc = Lazy.force enc in
  let q = "SELECT count(*) FROM lineitem, part WHERE l_partkey = p_partkey" in
  let plain_count =
    match (Database.query (Testbed.plain tb) q).Exec.rows with
    | [ [| Value.Int n |] ] -> n
    | _ -> Alcotest.fail "shape"
  in
  let enc_count =
    match (Database.query (Encrypted_db.server enc) q).Exec.rows with
    | [ [| Value.Int n |] ] -> n
    | _ -> Alcotest.fail "shape"
  in
  Alcotest.(check int) "join cardinality preserved" plain_count enc_count

let test_decrypt_row () =
  let tb = Lazy.force testbed in
  let enc = Lazy.force enc in
  let plain_row = Table.get (Database.table_exn (Testbed.plain tb) "lineitem") 0 in
  let enc_row = Table.get (Database.table_exn (Encrypted_db.server enc) "lineitem") 0 in
  let decrypted = Encrypted_db.decrypt_row enc ~table:"lineitem" enc_row in
  Alcotest.(check bool) "row decrypts to plaintext" true
    (Array.for_all2 (fun a b -> Value.equal a b) plain_row decrypted)

let test_date_segments () =
  let enc = Lazy.force enc in
  let lo = Date.of_ymd 1994 1 1 and hi = Date.of_ymd 1994 12 31 in
  let segs = Encrypted_db.date_segments enc ~lo ~hi in
  Alcotest.(check bool) "1 or 2 segments" true
    (List.length segs >= 1 && List.length segs <= 2);
  (* Every day in the range encrypts inside some segment; a day outside does
     not. *)
  let inside c = List.exists (fun (a, b) -> a <= c && c <= b) segs in
  Alcotest.(check bool) "day inside" true
    (inside (Encrypted_db.encrypt_date enc (Date.of_ymd 1994 6 15)));
  Alcotest.(check bool) "day outside" false
    (inside (Encrypted_db.encrypt_date enc (Date.of_ymd 1995 1 1)))

(* ------------------------------------------------------------------ *)
(* Rewrite *)

let test_rewrite_replaces_date_conjuncts () =
  let ast =
    Sql_parser.parse
      "SELECT * FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' AND \
       l_shipdate <= DATE '1994-12-31' AND l_quantity < 24"
  in
  let replacement = Sql_parser.parse_expr "l_shipdate BETWEEN 100 AND 200" in
  let out =
    Rewrite.add_conjunct (Rewrite.strip_date_predicates ast ~column:"l_shipdate")
      replacement
  in
  match out.Sql_ast.where with
  | Some w ->
    let conjuncts = Sql_ast.conjuncts w in
    Alcotest.(check int) "two conjuncts" 2 (List.length conjuncts);
    Alcotest.(check bool) "no date literal left" true
      (List.for_all
         (fun c ->
           match c with
           | Sql_ast.Cmp (_, Sql_ast.Col (_, "l_shipdate"), Sql_ast.Lit (Value.Date _)) -> false
           | _ -> true)
         conjuncts)
  | None -> Alcotest.fail "where dropped"

let test_rewrite_to_fetch () =
  let ast =
    Sql_parser.parse
      "SELECT sum(l_discount) FROM lineitem WHERE l_quantity < 24 GROUP BY \
       l_returnflag ORDER BY l_returnflag LIMIT 5"
  in
  let fetch = Rewrite.to_fetch ast in
  Alcotest.(check bool) "star" true (fetch.Sql_ast.projections = [ Sql_ast.Star ]);
  Alcotest.(check bool) "no grouping" true (fetch.Sql_ast.group_by = []);
  Alcotest.(check bool) "no ordering" true (fetch.Sql_ast.order_by = []);
  Alcotest.(check bool) "no limit" true (fetch.Sql_ast.limit = None);
  Alcotest.(check bool) "where kept" true (fetch.Sql_ast.where <> None)

let test_rewrite_to_fetch_keeps_every_row () =
  let fetch =
    Rewrite.to_fetch
      (Sql_parser.parse
         "SELECT DISTINCT count(*) FROM lineitem WHERE l_quantity < 24 HAVING \
          count(*) > 1")
  in
  Alcotest.(check bool) "no DISTINCT" false fetch.Sql_ast.distinct;
  Alcotest.(check bool) "no HAVING" true (fetch.Sql_ast.having = None);
  Alcotest.(check bool) "where kept" true (fetch.Sql_ast.where <> None)

let test_rewrite_cipher_ranges () =
  let e = Rewrite.cipher_ranges_expr ~column:"c" ~segments:[ (1, 5); (10, 20) ] in
  Alcotest.(check int) "two disjuncts" 2 (List.length (Sql_ast.disjuncts e));
  Alcotest.check_raises "empty" (Invalid_argument "Rewrite.cipher_ranges_expr: no segments")
    (fun () -> ignore (Rewrite.cipher_ranges_expr ~column:"c" ~segments:[]))

let test_references_column () =
  let e = Sql_parser.parse_expr "a + 1 < b AND c BETWEEN 1 AND x.d" in
  Alcotest.(check bool) "finds a" true (Rewrite.references_column e ~column:"a");
  Alcotest.(check bool) "finds qualified d" true (Rewrite.references_column e ~column:"d");
  Alcotest.(check bool) "missing" false (Rewrite.references_column e ~column:"zz")

(* ------------------------------------------------------------------ *)
(* Proxy: end-to-end equivalence *)

let check_equivalence ~rho ~batch_size templates =
  let tb = Lazy.force testbed in
  let rng = Mope_stats.Rng.create 31L in
  List.iter
    (fun template ->
      let proxy = Testbed.proxy tb ~template ~rho ~batch_size ~seed:17L () in
      for _ = 1 to 2 do
        let inst = Tpch_queries.random_instance rng template in
        let plain = Testbed.run_plain tb inst in
        let encd = Testbed.run_encrypted proxy inst in
        Alcotest.(check (list (list string)))
          (Tpch_queries.template_name template ^ " result")
          (Testbed.fingerprint plain) (Testbed.fingerprint encd)
      done)
    templates

let test_proxy_q6_uniform () = check_equivalence ~rho:None ~batch_size:1 [ Tpch_queries.Q6 ]

let test_proxy_all_periodic () =
  check_equivalence ~rho:(Some 92) ~batch_size:1
    [ Tpch_queries.Q6; Tpch_queries.Q14; Tpch_queries.Q4 ]

let test_proxy_batched () =
  check_equivalence ~rho:(Some 92) ~batch_size:25
    [ Tpch_queries.Q6; Tpch_queries.Q14; Tpch_queries.Q4 ]

let test_proxy_counters () =
  let tb = Lazy.force testbed in
  let rng = Mope_stats.Rng.create 41L in
  let proxy = Testbed.proxy tb ~template:Tpch_queries.Q14 ~rho:(Some 92) ~seed:3L () in
  let inst = Tpch_queries.random_instance rng Tpch_queries.Q14 in
  let _ = Testbed.run_encrypted proxy inst in
  let c = Proxy.counters proxy in
  Alcotest.(check int) "one client query" 1 c.Proxy.client_queries;
  Alcotest.(check int) "one real piece (k covers Q14)" 1 c.Proxy.real_pieces;
  Alcotest.(check bool) "server requests = pieces + fakes (unbatched)" true
    (c.Proxy.server_requests = c.Proxy.real_pieces + c.Proxy.fake_queries);
  Alcotest.(check bool) "fetched >= delivered" true
    (c.Proxy.rows_fetched >= c.Proxy.rows_delivered);
  Proxy.reset_counters proxy;
  Alcotest.(check int) "reset" 0 (Proxy.counters proxy).Proxy.client_queries

let test_proxy_batching_reduces_requests () =
  let tb = Lazy.force testbed in
  let rng = Mope_stats.Rng.create 43L in
  let inst = Tpch_queries.random_instance rng Tpch_queries.Q14 in
  let run batch_size =
    let proxy = Testbed.proxy tb ~template:Tpch_queries.Q14 ~rho:(Some 31) ~batch_size ~seed:5L () in
    let _ = Testbed.run_encrypted proxy inst in
    (Proxy.counters proxy).Proxy.server_requests
  in
  let unbatched = run 1 and batched = run 50 in
  Alcotest.(check bool)
    (Printf.sprintf "batched %d <= unbatched %d" batched unbatched)
    true
    (batched <= unbatched)

let test_batch_larger_than_pieces () =
  (* Q14's range is one τ_k piece; a batch_size dwarfing pieces + fakes must
     degrade to "everything in one statement", not misbehave. *)
  let tb = Lazy.force testbed in
  let rng = Mope_stats.Rng.create 47L in
  let inst = Tpch_queries.random_instance rng Tpch_queries.Q14 in
  let proxy =
    Testbed.proxy tb ~template:Tpch_queries.Q14 ~rho:(Some 31) ~batch_size:10_000
      ~seed:9L ()
  in
  let plain = Testbed.run_plain tb inst in
  let encd = Testbed.run_encrypted proxy inst in
  Alcotest.(check (list (list string))) "oversized batch still exact"
    (Testbed.fingerprint plain) (Testbed.fingerprint encd);
  let c = Proxy.counters proxy in
  Alcotest.(check int) "single batched statement" 1 c.Proxy.server_requests;
  Alcotest.(check bool) "covered pieces and fakes" true
    (c.Proxy.real_pieces + c.Proxy.fake_queries >= 1)

let test_batch_size_invariant_counters () =
  (* The batch size is a transport knob: it must not change what the client
     sees — same real pieces, same fakes (same scheduler seed), and exactly
     the same rows delivered. *)
  let tb = Lazy.force testbed in
  let rng = Mope_stats.Rng.create 53L in
  let instances =
    [ Tpch_queries.random_instance rng Tpch_queries.Q14;
      Tpch_queries.random_instance rng Tpch_queries.Q14 ]
  in
  let run batch_size =
    let proxy =
      Testbed.proxy tb ~template:Tpch_queries.Q14 ~rho:(Some 31) ~batch_size
        ~seed:11L ()
    in
    let results = List.map (Testbed.run_encrypted proxy) instances in
    (Proxy.counters proxy, results)
  in
  let c1, r1 = run 1 and c8, r8 = run 8 in
  Alcotest.(check int) "client queries" c1.Proxy.client_queries c8.Proxy.client_queries;
  Alcotest.(check int) "real pieces" c1.Proxy.real_pieces c8.Proxy.real_pieces;
  Alcotest.(check int) "fake queries" c1.Proxy.fake_queries c8.Proxy.fake_queries;
  Alcotest.(check int) "rows delivered" c1.Proxy.rows_delivered c8.Proxy.rows_delivered;
  Alcotest.(check bool) "batched sends fewer statements" true
    (c8.Proxy.server_requests <= c1.Proxy.server_requests);
  List.iter2
    (fun a b ->
      Alcotest.(check (list (list string))) "identical rows"
        (Testbed.fingerprint a) (Testbed.fingerprint b))
    r1 r8

let test_segment_cache_determinism () =
  (* The segment cache must be invisible in results: same seed, same
     instance, caches on and off, byte-identical rows — only the hit
     counters differ. *)
  let tb = Lazy.force testbed in
  let rng = Mope_stats.Rng.create 61L in
  let inst = Tpch_queries.random_instance rng Tpch_queries.Q6 in
  let run caching =
    let proxy =
      Testbed.proxy tb ~template:Tpch_queries.Q6 ~rho:(Some 31) ~batch_size:8
        ~caching ~seed:13L ()
    in
    let r1 = Testbed.run_encrypted proxy inst in
    let r2 = Testbed.run_encrypted proxy inst in
    (proxy, r1, r2)
  in
  let cached, c1, c2 = run true in
  let uncached, u1, u2 = run false in
  Alcotest.(check (list (list string))) "first run identical"
    (Testbed.fingerprint u1) (Testbed.fingerprint c1);
  Alcotest.(check (list (list string))) "repeat identical"
    (Testbed.fingerprint u2) (Testbed.fingerprint c2);
  let cc = Proxy.counters cached and uc = Proxy.counters uncached in
  Alcotest.(check bool) "repeated starts hit" true (cc.Proxy.segment_cache_hits > 0);
  Alcotest.(check bool) "cold starts missed" true (cc.Proxy.segment_cache_misses > 0);
  Alcotest.(check int) "uncached proxy never consults a cache" 0
    (uc.Proxy.segment_cache_hits + uc.Proxy.segment_cache_misses);
  Alcotest.(check int) "uncached proxy holds nothing" 0
    (Proxy.segment_cache_size uncached);
  (* The cache is bounded by the start domain. *)
  Alcotest.(check bool) "entries bounded by m" true
    (Proxy.segment_cache_size cached
    <= Encrypted_db.date_domain (Testbed.encrypted_for tb ~rho:(Some 31)))

let test_batch_coalescing_no_rescan () =
  (* One fully-batched statement over many overlapping/adjacent coverage
     windows: segments are coalesced before the fetch predicate, so the
     server touches each lineitem row at most once even though the batch
     carries many executed starts. *)
  let tb = Lazy.force testbed in
  let rng = Mope_stats.Rng.create 67L in
  let inst = Tpch_queries.random_instance rng Tpch_queries.Q6 in
  let proxy =
    Testbed.proxy tb ~template:Tpch_queries.Q6 ~rho:(Some 31)
      ~batch_size:10_000 ~seed:15L ()
  in
  let m_scanned = Mope_obs.Metrics.counter "mope_exec_rows_scanned_total" () in
  let server_stats = Database.stats (Proxy.server_database proxy) in
  let server_before = server_stats.Exec.rows_scanned in
  Mope_obs.Metrics.set_enabled true;
  let metric_before = Mope_obs.Metrics.counter_value m_scanned in
  let _ = Testbed.run_encrypted proxy inst in
  Mope_obs.Metrics.set_enabled false;
  let metric_delta = Mope_obs.Metrics.counter_value m_scanned - metric_before in
  let server_delta = server_stats.Exec.rows_scanned - server_before in
  let c = Proxy.counters proxy in
  Alcotest.(check int) "single batched statement" 1 c.Proxy.server_requests;
  Alcotest.(check bool) "batch had multiple starts" true
    (c.Proxy.real_pieces + c.Proxy.fake_queries > 1);
  let lineitems = (Testbed.sizes tb).Tpch.lineitems in
  Alcotest.(check bool)
    (Printf.sprintf "server scanned %d <= %d rows despite %d starts"
       server_delta lineitems
       (c.Proxy.real_pieces + c.Proxy.fake_queries))
    true
    (server_delta <= lineitems);
  (* The Prometheus counter observed the same work (it also covers the
     proxy's local re-evaluation over the fetched rows). *)
  Alcotest.(check bool) "metric ticked" true (metric_delta >= server_delta)

let test_padded_domain () =
  Alcotest.(check int) "no padding" 2557 (Testbed.padded_domain ~rho:None);
  Alcotest.(check int) "rho 92" 2576 (Testbed.padded_domain ~rho:(Some 92));
  Alcotest.(check int) "rho 15" 2565 (Testbed.padded_domain ~rho:(Some 15));
  Alcotest.(check int) "divides" 0 (Testbed.padded_domain ~rho:(Some 366) mod 366)


(* ------------------------------------------------------------------ *)
(* The MOPE range a statement fetches *)

(* A Q6 proxy under QueryU: its fakes cover the whole domain, so a fetch
   range that misses rows loses them for good. *)
let range_proxy () =
  Testbed.proxy (Lazy.force testbed) ~template:Tpch_queries.Q6 ~rho:None
    ~batch_size:25 ~seed:17L ()

let y1994 = "l_shipdate >= DATE '1994-01-01' AND l_shipdate <= DATE '1994-12-31'"

(* Counting the lineitem rows that satisfy [where] through the proxy, with
   the request's range [lo, hi], must give the plaintext count. *)
let check_count ?(proxy = range_proxy ()) ~lo ~hi where =
  let sql = "SELECT count(*) FROM lineitem WHERE " ^ where in
  let plain = Database.query (Testbed.plain (Lazy.force testbed)) sql in
  let got =
    Proxy.execute proxy ~sql ~date_column:"l_shipdate" ~date_lo:(Date.of_string lo)
      ~date_hi:(Date.of_string hi)
  in
  Alcotest.(check (list (list string))) sql (Testbed.fingerprint plain)
    (Testbed.fingerprint got);
  plain

let nonzero (r : Exec.result) =
  Alcotest.(check bool) "plaintext counts rows" true (r.Exec.rows <> [ [| Value.Int 0 |] ])

(* A range wider than the window used to wrap modulo m into a short one. *)
let test_range_wider_than_window () =
  nonzero
    (check_count ~lo:"1991-12-01" ~hi:"1999-02-01"
       "l_shipdate >= DATE '1991-12-01' AND l_shipdate <= DATE '1999-02-01'")

let test_range_far_wider_than_window () =
  nonzero
    (check_count ~lo:"1990-01-01" ~hi:"2000-01-01"
       "l_shipdate >= DATE '1990-01-01' AND l_shipdate <= DATE '2000-01-01'")

(* The other branch of the OR keeps rows outside the requested range. *)
let test_range_or_across_date () =
  nonzero (check_count ~lo:"1994-01-01" ~hi:"1994-12-31" ("(" ^ y1994 ^ ") OR l_quantity < 2"))

let test_range_date_under_not () =
  nonzero
    (check_count ~lo:"1994-01-01" ~hi:"1994-12-31"
       (y1994 ^ " OR NOT (l_shipdate < DATE '1997-01-01')"));
  nonzero
    (check_count ~lo:"1994-01-01" ~hi:"1994-12-31" "l_shipdate <> DATE '1994-06-01'")

(* No row lies outside the window, so such a range fetches nothing. *)
let test_range_outside_window () =
  let proxy = range_proxy () in
  ignore
    (check_count ~proxy ~lo:"2001-01-01" ~hi:"2001-12-31"
       "l_shipdate >= DATE '2001-01-01' AND l_shipdate <= DATE '2001-12-31'");
  Alcotest.(check int) "no statement sent" 0
    (Proxy.counters proxy).Proxy.server_requests

(* HAVING belongs to the local re-evaluation: on the server it would fold
   the fetched rows into one group, and compare DET ciphertexts. The second
   statement reads a DET column only in HAVING, so it must be decrypted. *)
let test_having_not_fetched () =
  nonzero (check_count ~lo:"1994-01-01" ~hi:"1994-12-31" (y1994 ^ " HAVING count(*) > 0"));
  nonzero
    (check_count ~lo:"1994-01-01" ~hi:"1994-12-31"
       (y1994 ^ " HAVING max(l_partkey) BETWEEN 1 AND 1000000"))

(* ------------------------------------------------------------------ *)
(* Key rotation (paper §9) *)

let test_rotation_preserves_data () =
  let tb = Lazy.force testbed in
  let old_enc = Testbed.encrypted_for tb ~rho:None in
  let rotated, report = Key_rotation.rotate ~enc:old_enc ~new_key:"rotated-key-1" in
  Alcotest.(check int) "tables" 3 report.Key_rotation.tables;
  Alcotest.(check bool) "rows re-encrypted" true (report.Key_rotation.rows > 0);
  (* Every decrypted table matches the plaintext source. *)
  List.iter
    (fun name ->
      let plain = Mope_db.Database.table_exn (Testbed.plain tb) name in
      let enc_table =
        Mope_db.Database.table_exn (Encrypted_db.server rotated) name
      in
      Alcotest.(check int) (name ^ " count") (Table.length plain)
        (Table.length enc_table);
      let first_plain = Table.get plain 0 in
      let first_rotated =
        Encrypted_db.decrypt_row rotated ~table:name (Table.get enc_table 0)
      in
      Alcotest.(check bool) (name ^ " row") true
        (Array.for_all2 Value.equal first_plain first_rotated))
    [ "lineitem"; "orders"; "part" ]

let test_rotation_changes_ciphertexts () =
  let tb = Lazy.force testbed in
  let old_enc = Testbed.encrypted_for tb ~rho:None in
  let rotated, _ = Key_rotation.rotate ~enc:old_enc ~new_key:"rotated-key-2" in
  (* A leaked pair under the old key says nothing about the new one: the
     ciphertext of the same date changes (overwhelmingly). *)
  let day = Tpch.window_lo + 500 in
  Alcotest.(check bool) "ciphertext changed" true
    (Encrypted_db.encrypt_date old_enc day <> Encrypted_db.encrypt_date rotated day);
  Alcotest.(check bool) "offsets differ" true
    (Key_rotation.offsets_differ old_enc rotated)

let test_rotation_queries_still_work () =
  let tb = Lazy.force testbed in
  let old_enc = Testbed.encrypted_for tb ~rho:None in
  let rotated, _ = Key_rotation.rotate ~enc:old_enc ~new_key:"rotated-key-3" in
  (* Run Q6 by hand through a proxy built over the rotated database. *)
  let m = Encrypted_db.date_domain rotated in
  let scheduler =
    Mope_core.Scheduler.create ~m
      ~k:(Tpch_queries.fixed_length Tpch_queries.Q6)
      ~mode:Mope_core.Scheduler.Uniform
      ~q:(Tpch_queries.start_distribution ~domain:m Tpch_queries.Q6)
  in
  let proxy = Proxy.create ~enc:rotated ~scheduler ~batch_size:50 ~seed:3L () in
  let rng = Mope_stats.Rng.create 77L in
  let inst = Tpch_queries.random_instance rng Tpch_queries.Q6 in
  let plain = Testbed.run_plain tb inst in
  let encd =
    Proxy.execute proxy ~sql:inst.Tpch_queries.sql
      ~date_column:(Tpch_queries.date_column Tpch_queries.Q6)
      ~date_lo:inst.Tpch_queries.date_lo ~date_hi:inst.Tpch_queries.date_hi
  in
  Alcotest.(check (list (list string))) "rotated proxy agrees"
    (Testbed.fingerprint plain) (Testbed.fingerprint encd)

let test_rotation_same_key_is_identity () =
  (* Regression: [offsets_differ] compares the secret offsets, not the
     handles — "rotating" onto the very same key derives the same offset
     and the same OPE function, so it must report [false] and leave every
     ciphertext byte-identical. *)
  let tb = Lazy.force testbed in
  let old_enc = Testbed.encrypted_for tb ~rho:None in
  let rotated, report =
    Key_rotation.rotate ~enc:old_enc ~new_key:"testbed-master-key"
  in
  Alcotest.(check bool) "identical keys, identical offsets" false
    (Key_rotation.offsets_differ old_enc rotated);
  Alcotest.(check bool) "report agrees" true
    (report.Key_rotation.old_offset = report.Key_rotation.new_offset);
  for i = 0 to 20 do
    let day = Tpch.window_lo + (i * 101) in
    Alcotest.(check int) "ciphertext unchanged"
      (Encrypted_db.encrypt_date old_enc day)
      (Encrypted_db.encrypt_date rotated day)
  done;
  (* Sanity next to it: a genuinely fresh key does move the offset. *)
  let rotated', _ = Key_rotation.rotate ~enc:old_enc ~new_key:"a-fresh-key" in
  Alcotest.(check bool) "fresh key, fresh offset" true
    (Key_rotation.offsets_differ old_enc rotated')

let test_rotation_rebuilds_secondary_indexes () =
  (* Rotation rebuilds every index named in the specs — including the
     secondary (non-date, DET) ones — and an index-served equality lookup
     against the rotated twin decrypts byte-identically to the plaintext
     baseline. *)
  let tb = Lazy.force testbed in
  let old_enc = Testbed.encrypted_for tb ~rho:None in
  let rotated, _ = Key_rotation.rotate ~enc:old_enc ~new_key:"rotated-key-ix" in
  List.iter
    (fun spec ->
      let old_t =
        Mope_db.Database.table_exn (Encrypted_db.server old_enc)
          spec.Encrypted_db.table
      in
      let new_t =
        Mope_db.Database.table_exn (Encrypted_db.server rotated)
          spec.Encrypted_db.table
      in
      Alcotest.(check (list int))
        (spec.Encrypted_db.table ^ " indexed columns survive rotation")
        (List.sort Int.compare (Table.indexed_columns old_t))
        (List.sort Int.compare (Table.indexed_columns new_t)))
    (Encrypted_db.specs old_enc);
  (* Point lookup through the secondary o_orderkey index: same rows under
     either generation's DET key, byte for byte. *)
  let plain_orders = Mope_db.Database.table_exn (Testbed.plain tb) "orders" in
  let k =
    match (Table.get plain_orders 0).(0) with
    | Value.Int k -> k
    | _ -> Alcotest.fail "orders key shape"
  in
  let lookup enc =
    let sql =
      Printf.sprintf "SELECT o_orderkey FROM orders WHERE o_orderkey = %d"
        (Encrypted_db.encrypt_int enc k)
    in
    let r = Mope_db.Database.query (Encrypted_db.server enc) sql in
    List.map
      (fun row ->
        match row.(0) with
        | Value.Int c -> Encrypted_db.decrypt_int enc c
        | _ -> Alcotest.fail "ciphertext shape")
      r.Exec.rows
  in
  let baseline =
    Mope_db.Database.query (Testbed.plain tb)
      (Printf.sprintf "SELECT o_orderkey FROM orders WHERE o_orderkey = %d" k)
  in
  let want =
    List.map
      (fun row ->
        match row.(0) with Value.Int k -> k | _ -> Alcotest.fail "key shape")
      baseline.Exec.rows
  in
  Alcotest.(check bool) "baseline nonempty" true (want <> []);
  Alcotest.(check (list int)) "old index lookup" want (lookup old_enc);
  Alcotest.(check (list int)) "rotated index lookup" want (lookup rotated)

(* A private (uncached) encrypted twin: the streaming move MUTATES its
   source — never run it against the testbed's shared cached handles. *)
let private_twin tb ~key =
  Encrypted_db.create ~key ~window_lo:Tpch.window_lo
    ~date_domain:(Testbed.padded_domain ~rho:None) ~plain:(Testbed.plain tb)
    ~specs:Testbed.specs ()

let test_streaming_move_completes () =
  let tb = Lazy.force testbed in
  let source = private_twin tb ~key:"move-src-key" in
  let total_rows =
    List.fold_left
      (fun acc spec ->
        acc
        + Table.length
            (Mope_db.Database.table_exn (Encrypted_db.server source)
               spec.Encrypted_db.table))
      0 (Encrypted_db.specs source)
  in
  let move = Key_rotation.start_move ~enc:source ~new_key:"move-dst-key" in
  let moved, total = Key_rotation.move_progress move in
  Alcotest.(check int) "starts at zero" 0 moved;
  Alcotest.(check int) "counts every row" total_rows total;
  Alcotest.(check bool) "not done at start" false (Key_rotation.move_done move);
  (* Chunk through; progress is monotone and the chunks sum to the total. *)
  let steps = ref 0 in
  let rec drive acc =
    let n = Key_rotation.move_chunk move ~max_rows:97 in
    incr steps;
    if n = 0 then acc else drive (acc + n)
  in
  let moved_sum = drive 0 in
  Alcotest.(check int) "every row moved once" total_rows moved_sum;
  Alcotest.(check bool) "took multiple chunks" true (!steps > 2);
  Alcotest.(check bool) "done" true (Key_rotation.move_done move);
  let moved, total = Key_rotation.move_progress move in
  Alcotest.(check int) "progress complete" total moved;
  (* The source is drained, the target holds everything, decrypted
     contents match the plaintext origin. *)
  let target = Key_rotation.move_target move in
  List.iter
    (fun spec ->
      let name = spec.Encrypted_db.table in
      Alcotest.(check int) (name ^ " drained") 0
        (Table.length
           (Mope_db.Database.table_exn (Encrypted_db.server source) name));
      let plain_t = Mope_db.Database.table_exn (Testbed.plain tb) name in
      let new_t =
        Mope_db.Database.table_exn (Encrypted_db.server target) name
      in
      Alcotest.(check int) (name ^ " filled") (Table.length plain_t)
        (Table.length new_t);
      let dec =
        Encrypted_db.decrypt_row target ~table:name (Table.get new_t 0)
      in
      (* Moved rows keep the plaintext multiset; spot-check the first row
         decrypts to SOME source row (order across the move is the
         insertion order of the chunks). *)
      let matches =
        List.exists
          (fun i -> Array.for_all2 Value.equal (Table.get plain_t i) dec)
          (List.init (Table.length plain_t) Fun.id)
      in
      Alcotest.(check bool) (name ^ " row decrypts to a source row") true
        matches)
    (Encrypted_db.specs source)

let test_streaming_move_union_always_complete () =
  (* The dual-key read window's invariant: at every instant of the move,
     old ∪ new contains each logical row exactly once — a reader pooling
     both generations' decrypted rows gets byte-identical answers
     mid-move. *)
  let tb = Lazy.force testbed in
  let source = private_twin tb ~key:"union-src-key" in
  let move = Key_rotation.start_move ~enc:source ~new_key:"union-dst-key" in
  let target = Key_rotation.move_target move in
  let p_old =
    Testbed.proxy_over source ~template:Tpch_queries.Q6 ~rho:None ~seed:5L ()
  in
  let p_new =
    Testbed.proxy_over target ~template:Tpch_queries.Q6 ~rho:None ~seed:6L ()
  in
  let rng = Mope_stats.Rng.create 41L in
  let inst = Tpch_queries.random_instance rng Tpch_queries.Q6 in
  let plain = Testbed.run_plain tb inst in
  let pooled () =
    let dc = Tpch_queries.date_column Tpch_queries.Q6 in
    let ast, rows_old =
      Proxy.fetch_decrypted p_old ~sql:inst.Tpch_queries.sql ~date_column:dc
        ~date_lo:inst.Tpch_queries.date_lo ~date_hi:inst.Tpch_queries.date_hi
    in
    let _, rows_new =
      Proxy.fetch_decrypted p_new ~sql:inst.Tpch_queries.sql ~date_column:dc
        ~date_lo:inst.Tpch_queries.date_lo ~date_hi:inst.Tpch_queries.date_hi
    in
    Proxy.eval_over p_old ~ast (rows_old @ rows_new)
  in
  (* Before any chunk, mid-move (several stops), and after completion. *)
  Alcotest.(check (list (list string))) "union before the move"
    (Testbed.fingerprint plain) (Testbed.fingerprint (pooled ()));
  let continue = ref true in
  let stops = ref 0 in
  while !continue do
    let n = Key_rotation.move_chunk move ~max_rows:211 in
    if n = 0 then continue := false
    else begin
      incr stops;
      Alcotest.(check (list (list string)))
        (Printf.sprintf "union after chunk %d" !stops)
        (Testbed.fingerprint plain)
        (Testbed.fingerprint (pooled ()))
    end
  done;
  Alcotest.(check bool) "saw mid-move states" true (!stops > 1);
  Alcotest.(check (list (list string))) "union after completion"
    (Testbed.fingerprint plain) (Testbed.fingerprint (pooled ()))


(* ------------------------------------------------------------------ *)
(* Synthetic small-domain proxy equivalence (wrap paths + adaptive mode) *)

(* A tiny independent testbed: one table with a DATE column over a 40-day
   window, so the secret offset wraps most query ranges in ciphertext
   space. Compares the proxy against a direct plaintext filter. *)
let synthetic_equivalence ~adaptive () =
  let window_lo = Date.of_ymd 1994 1 1 in
  let m = 40 in
  let plain = Database.create () in
  let schema =
    Schema.make
      [ { Schema.name = "id"; ty = Value.TInt };
        { Schema.name = "d"; ty = Value.TDate };
        { Schema.name = "v"; ty = Value.TInt } ]
  in
  let table = Database.create_table plain ~name:"syn" ~schema in
  let rng = Mope_stats.Rng.create 97L in
  for i = 0 to 499 do
    ignore
      (Table.insert table
         [| Value.Int i;
            Value.Date (window_lo + Mope_stats.Rng.int rng m);
            Value.Int (Mope_stats.Rng.int rng 100) |])
  done;
  let specs =
    [ { Encrypted_db.table = "syn";
        encrypted_columns = [ ("d", Encrypted_db.Mope_date) ];
        index_columns = [ "d" ] } ]
  in
  let enc =
    Encrypted_db.create ~key:"synthetic" ~window_lo ~date_domain:m ~plain ~specs ()
  in
  let k = 5 in
  let proxy =
    if adaptive then Proxy.create_adaptive ~enc ~k ~batch_size:3 ~seed:7L ()
    else begin
      let q =
        Mope_stats.Histogram.of_counts (Array.init m (fun i -> (i mod 7) + 1))
      in
      Proxy.create ~enc
        ~scheduler:(Mope_core.Scheduler.create ~m ~k ~mode:Mope_core.Scheduler.Uniform ~q)
        ~batch_size:3 ~seed:7L ()
    end
  in
  for _ = 1 to 25 do
    let lo = window_lo + Mope_stats.Rng.int rng m in
    let len = 1 + Mope_stats.Rng.int rng 12 in
    let hi = Int.min (window_lo + m - 1) (lo + len - 1) in
    let sql =
      Printf.sprintf
        "SELECT id, v FROM syn WHERE d >= DATE '%s' AND d <= DATE '%s' AND v < 80 ORDER BY id"
        (Date.to_string lo) (Date.to_string hi)
    in
    let expected = Database.query plain sql in
    let got = Proxy.execute proxy ~sql ~date_column:"d" ~date_lo:lo ~date_hi:hi in
    Alcotest.(check (list (list string))) sql (Testbed.fingerprint expected)
      (Testbed.fingerprint got)
  done

let test_synthetic_static () = synthetic_equivalence ~adaptive:false ()

let test_synthetic_adaptive () = synthetic_equivalence ~adaptive:true ()

let test_synthetic_adaptive_periodic () =
  (* AdaptiveQueryP on the same wrapping domain (rho = 8 divides 40). *)
  let window_lo = Date.of_ymd 1994 1 1 in
  let m = 40 in
  let plain = Database.create () in
  let schema =
    Schema.make
      [ { Schema.name = "id"; ty = Value.TInt };
        { Schema.name = "d"; ty = Value.TDate } ]
  in
  let table = Database.create_table plain ~name:"syn" ~schema in
  let rng = Mope_stats.Rng.create 101L in
  for i = 0 to 299 do
    ignore
      (Table.insert table
         [| Value.Int i; Value.Date (window_lo + Mope_stats.Rng.int rng m) |])
  done;
  let specs =
    [ { Encrypted_db.table = "syn";
        encrypted_columns = [ ("d", Encrypted_db.Mope_date) ];
        index_columns = [ "d" ] } ]
  in
  let enc =
    Encrypted_db.create ~key:"synthetic-p" ~window_lo ~date_domain:m ~plain ~specs ()
  in
  let proxy = Proxy.create_adaptive ~enc ~k:5 ~rho:8 ~batch_size:4 ~seed:3L () in
  for _ = 1 to 12 do
    let lo = window_lo + Mope_stats.Rng.int rng m in
    let hi = Int.min (window_lo + m - 1) (lo + Mope_stats.Rng.int rng 9) in
    let sql =
      Printf.sprintf
        "SELECT count(*) FROM syn WHERE d >= DATE '%s' AND d <= DATE '%s'"
        (Date.to_string lo) (Date.to_string hi)
    in
    let expected = Database.query plain sql in
    let got = Proxy.execute proxy ~sql ~date_column:"d" ~date_lo:lo ~date_hi:hi in
    Alcotest.(check (list (list string))) sql (Testbed.fingerprint expected)
      (Testbed.fingerprint got)
  done

let test_adaptive_proxy_state () =
  let tb = Lazy.force testbed in
  let enc = Testbed.encrypted_for tb ~rho:None in
  let proxy =
    Proxy.create_adaptive ~enc ~k:(Tpch_queries.fixed_length Tpch_queries.Q14)
      ~seed:5L ()
  in
  (match Proxy.adaptive_state proxy with
  | Some a -> Alcotest.(check int) "buffer empty initially" 0 (Mope_core.Adaptive.buffer_size a)
  | None -> Alcotest.fail "expected a learner");
  let rng = Mope_stats.Rng.create 3L in
  let inst = Tpch_queries.random_instance rng Tpch_queries.Q14 in
  let plain = Testbed.run_plain tb inst in
  let got = Testbed.run_encrypted proxy inst in
  Alcotest.(check (list (list string))) "adaptive proxy agrees"
    (Testbed.fingerprint plain) (Testbed.fingerprint got);
  match Proxy.adaptive_state proxy with
  | Some a ->
    Alcotest.(check bool) "buffer grew" true (Mope_core.Adaptive.buffer_size a > 0);
    Alcotest.(check int) "nothing pending" 0 (Mope_core.Adaptive.pending a)
  | None -> Alcotest.fail "expected a learner"


(* ------------------------------------------------------------------ *)
(* Mope_int columns (per-column schemes) *)

let mope_int_setup () =
  let plain = Database.create () in
  let schema =
    Schema.make
      [ { Schema.name = "id"; ty = Value.TInt };
        { Schema.name = "qty"; ty = Value.TInt };
        { Schema.name = "d"; ty = Value.TDate } ]
  in
  let t = Database.create_table plain ~name:"stock" ~schema in
  let rng = Mope_stats.Rng.create 61L in
  let base = Date.of_ymd 1994 1 1 in
  for i = 0 to 399 do
    ignore
      (Table.insert t
         [| Value.Int i;
            Value.Int (1 + Mope_stats.Rng.int rng 50);
            Value.Date (base + Mope_stats.Rng.int rng 100) |])
  done;
  let specs =
    [ { Encrypted_db.table = "stock";
        encrypted_columns =
          [ ("d", Encrypted_db.Mope_date);
            ("qty", Encrypted_db.Mope_int { lo = 1; hi = 50 }) ];
        index_columns = [ "d"; "qty" ] } ]
  in
  let enc =
    Encrypted_db.create ~key:"int-col" ~window_lo:base ~date_domain:100 ~plain
      ~specs ()
  in
  (plain, enc)

let test_mope_int_roundtrip () =
  let plain, enc = mope_int_setup () in
  let src = Database.table_exn plain "stock" in
  let dst = Database.table_exn (Encrypted_db.server enc) "stock" in
  for id = 0 to 50 do
    let original = Table.get src id in
    let decrypted = Encrypted_db.decrypt_row enc ~table:"stock" (Table.get dst id) in
    Alcotest.(check bool) "row roundtrip" true
      (Array.for_all2 Value.equal original decrypted)
  done;
  (* Ciphertexts actually differ from plaintexts. *)
  match (Table.get src 0).(1), (Table.get dst 0).(1) with
  | Value.Int p, Value.Int c ->
    Alcotest.(check bool) "qty encrypted" true (p <> c || c > 50)
  | _ -> Alcotest.fail "shape"

let test_mope_int_segments_query () =
  let plain, enc = mope_int_setup () in
  (* Range query on the encrypted qty column via its ciphertext segments:
     the manual rewrite a client library performs for non-date columns. *)
  for _ = 1 to 10 do
    let rng = Mope_stats.Rng.create 71L in
    let lo = 1 + Mope_stats.Rng.int rng 40 in
    let hi = Int.min 50 (lo + Mope_stats.Rng.int rng 15) in
    let segments = Encrypted_db.int_segments enc ~table:"stock" ~column:"qty" ~lo ~hi in
    Alcotest.(check bool) "1-2 segments" true
      (List.length segments >= 1 && List.length segments <= 2);
    let predicate =
      Sql_ast.expr_to_string
        (Rewrite.cipher_ranges_expr ~column:"qty" ~segments)
    in
    let enc_count =
      match
        (Database.query (Encrypted_db.server enc)
           (Printf.sprintf "SELECT count(*) FROM stock WHERE %s" predicate))
          .Exec.rows
      with
      | [ [| Value.Int n |] ] -> n
      | _ -> Alcotest.fail "shape"
    in
    let plain_count =
      match
        (Database.query plain
           (Printf.sprintf "SELECT count(*) FROM stock WHERE qty BETWEEN %d AND %d"
              lo hi))
          .Exec.rows
      with
      | [ [| Value.Int n |] ] -> n
      | _ -> Alcotest.fail "shape"
    in
    Alcotest.(check int) "counts agree" plain_count enc_count
  done

let test_mope_int_window_property =
  QCheck.Test.make ~name:"Mope_int roundtrips over random windows" ~count:25
    QCheck.(triple (int_range (-500) 500) (int_range 1 300) (int_range 0 299))
    (fun (lo, size, off) ->
      QCheck.assume (off < size);
      let hi = lo + size - 1 in
      let plain = Database.create () in
      let schema = Schema.make [ { Schema.name = "x"; ty = Value.TInt } ] in
      let t = Database.create_table plain ~name:"w" ~schema in
      ignore (Table.insert t [| Value.Int (lo + off) |]);
      ignore (Table.insert t [| Value.Int lo |]);
      ignore (Table.insert t [| Value.Int hi |]);
      let enc =
        Encrypted_db.create ~key:"prop" ~window_lo:0 ~date_domain:10 ~plain
          ~specs:
            [ { Encrypted_db.table = "w";
                encrypted_columns = [ ("x", Encrypted_db.Mope_int { lo; hi }) ];
                index_columns = [] } ]
          ()
      in
      let dst = Database.table_exn (Encrypted_db.server enc) "w" in
      List.for_all
        (fun id ->
          Value.equal
            (Table.get (Database.table_exn plain "w") id).(0)
            (Encrypted_db.decrypt_row enc ~table:"w" (Table.get dst id)).(0))
        [ 0; 1; 2 ])

let test_mope_int_validation () =
  let _, enc = mope_int_setup () in
  Alcotest.check_raises "range outside window"
    (Invalid_argument "Encrypted_db.int_segments: range outside the column window")
    (fun () ->
      ignore (Encrypted_db.int_segments enc ~table:"stock" ~column:"qty" ~lo:0 ~hi:10));
  Alcotest.check_raises "not a Mope_int column"
    (Invalid_argument "Encrypted_db.int_segments: stock.d is not a Mope_int column")
    (fun () ->
      ignore (Encrypted_db.int_segments enc ~table:"stock" ~column:"d" ~lo:1 ~hi:2))

let () =
  Alcotest.run "system"
    [ ( "encrypted_db",
        [ Alcotest.test_case "date roundtrip" `Quick test_date_roundtrip;
          Alcotest.test_case "distinct ciphertexts" `Quick
            test_date_order_preserved_modularly;
          Alcotest.test_case "det roundtrip" `Quick test_int_det_roundtrip;
          Alcotest.test_case "tables mirrored" `Quick test_encrypted_tables_exist;
          Alcotest.test_case "schema types" `Quick test_encrypted_schema_types;
          Alcotest.test_case "det join consistency" `Quick test_det_join_consistency;
          Alcotest.test_case "decrypt row" `Quick test_decrypt_row;
          Alcotest.test_case "date segments" `Quick test_date_segments ] );
      ( "rewrite",
        [ Alcotest.test_case "replaces date conjuncts" `Quick
            test_rewrite_replaces_date_conjuncts;
          Alcotest.test_case "fetch stripping" `Quick test_rewrite_to_fetch;
          Alcotest.test_case "fetch keeps every row" `Quick
            test_rewrite_to_fetch_keeps_every_row;
          Alcotest.test_case "cipher ranges" `Quick test_rewrite_cipher_ranges;
          Alcotest.test_case "references_column" `Quick test_references_column ] );
      ( "synthetic_proxy",
        [ Alcotest.test_case "static equivalence (wrapping domain)" `Quick
            test_synthetic_static;
          Alcotest.test_case "adaptive equivalence" `Quick test_synthetic_adaptive;
          Alcotest.test_case "adaptive periodic equivalence" `Quick
            test_synthetic_adaptive_periodic;
          Alcotest.test_case "adaptive proxy on TPC-H" `Slow test_adaptive_proxy_state ] );
      ( "mope_int",
        [ Alcotest.test_case "roundtrip" `Quick test_mope_int_roundtrip;
          Alcotest.test_case "segments answer range queries" `Quick
            test_mope_int_segments_query;
          Alcotest.test_case "validation" `Quick test_mope_int_validation;
          QCheck_alcotest.to_alcotest test_mope_int_window_property ] );
      ( "key_rotation",
        [ Alcotest.test_case "preserves data" `Slow test_rotation_preserves_data;
          Alcotest.test_case "changes ciphertexts" `Slow test_rotation_changes_ciphertexts;
          Alcotest.test_case "queries still work" `Slow test_rotation_queries_still_work;
          Alcotest.test_case "same key is identity" `Slow
            test_rotation_same_key_is_identity;
          Alcotest.test_case "secondary indexes rebuilt" `Slow
            test_rotation_rebuilds_secondary_indexes;
          Alcotest.test_case "streaming move completes" `Slow
            test_streaming_move_completes;
          Alcotest.test_case "streaming move union always complete" `Slow
            test_streaming_move_union_always_complete ] );
      ( "proxy",
        [ Alcotest.test_case "Q6 under QueryU" `Slow test_proxy_q6_uniform;
          Alcotest.test_case "all templates under QueryP" `Slow test_proxy_all_periodic;
          Alcotest.test_case "batched execution" `Slow test_proxy_batched;
          Alcotest.test_case "counters" `Quick test_proxy_counters;
          Alcotest.test_case "batching reduces requests" `Quick
            test_proxy_batching_reduces_requests;
          Alcotest.test_case "batch larger than pieces" `Quick
            test_batch_larger_than_pieces;
          Alcotest.test_case "batch size invariant counters" `Quick
            test_batch_size_invariant_counters;
          Alcotest.test_case "segment cache determinism" `Quick
            test_segment_cache_determinism;
          Alcotest.test_case "batch coalescing never rescans" `Quick
            test_batch_coalescing_no_rescan;
          Alcotest.test_case "padded domains" `Quick test_padded_domain ] );
      ( "proxy range",
        [ Alcotest.test_case "range wider than the window" `Quick
            test_range_wider_than_window;
          Alcotest.test_case "range far wider than the window" `Quick
            test_range_far_wider_than_window;
          Alcotest.test_case "OR across the date predicate" `Quick
            test_range_or_across_date;
          Alcotest.test_case "date compare under NOT or <>" `Quick
            test_range_date_under_not;
          Alcotest.test_case "range outside the window fetches nothing" `Quick
            test_range_outside_window;
          Alcotest.test_case "HAVING stays local" `Quick test_having_not_fetched ] ) ]
