(* Tests for lib/net: wire codec robustness, the concurrent TCP server, and
   the client driver — including the loopback integration path that drives
   TPC-H query instances through the encrypted proxy pipeline over a real
   socket and checks the results against the plaintext baseline. *)

open Mope_db
open Mope_workload
open Mope_system
open Mope_net

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let roundtrip_request r = snd (Wire.decode_request (Wire.encode_request r))

let roundtrip_response r = snd (Wire.decode_response (Wire.encode_response r))

let test_request_roundtrip () =
  Alcotest.(check bool) "ping" true (roundtrip_request Wire.Ping = Wire.Ping);
  Alcotest.(check bool) "stats" true
    (roundtrip_request Wire.Get_stats = Wire.Get_stats);
  let q =
    Wire.Query
      { sql = "SELECT sum(l_discount) FROM lineitem WHERE ...";
        date_column = "l_shipdate";
        date_lo = Date.of_ymd 1994 1 1;
        date_hi = Date.of_ymd 1994 12 31 }
  in
  Alcotest.(check bool) "query" true (roundtrip_request q = q);
  (* The store ops (v5, with the v6 fencing/dedup fields). *)
  let f =
    Wire.Fetch { sql = "SELECT l_partkey FROM lineitem WHERE ..."; epoch = 0 }
  in
  Alcotest.(check bool) "fetch" true (roundtrip_request f = f);
  let f7 = Wire.Fetch { sql = "SELECT 1 FROM t"; epoch = 7 } in
  Alcotest.(check bool) "fetch with epoch" true (roundtrip_request f7 = f7);
  let a =
    Wire.Apply
      { sql = "INSERT INTO lineitem VALUES (1, 'x')";
        epoch = 0;
        request_id = "" }
  in
  Alcotest.(check bool) "apply" true (roundtrip_request a = a);
  let ar =
    Wire.Apply
      { sql = "INSERT INTO lineitem VALUES (2, 'y')";
        epoch = 3;
        request_id = "writer-1:42" }
  in
  Alcotest.(check bool) "apply with epoch and rid" true
    (roundtrip_request ar = ar);
  (* Oversized request ids are rejected at encode time, like trace ids. *)
  (match
     Wire.encode_request
       (Wire.Apply
          { sql = "INSERT"; epoch = 0; request_id = String.make 65 'r' })
   with
  | _ -> Alcotest.fail "expected encode to reject an oversized request id"
  | exception Wire.Protocol_error _ -> ());
  let w = Wire.Wal_since { from_pos = 424242; max_bytes = 1 lsl 20 } in
  Alcotest.(check bool) "wal_since" true (roundtrip_request w = w);
  let w0 = Wire.Wal_since { from_pos = 0; max_bytes = 1 } in
  Alcotest.(check bool) "wal_since minimal" true (roundtrip_request w0 = w0);
  (* The v6 fencing control op. *)
  let fe = Wire.Fence { epoch = 9 } in
  Alcotest.(check bool) "fence" true (roundtrip_request fe = fe)

let test_trace_id_header () =
  (* The v3 header carries the trace id between tag and body; the default
     (empty) id means untraced. *)
  let hdr, req =
    Wire.decode_request (Wire.encode_request ~trace_id:"a1b2c3d4e5f60718" Wire.Ping)
  in
  Alcotest.(check string) "trace id travels" "a1b2c3d4e5f60718" hdr.Wire.trace_id;
  Alcotest.(check bool) "request intact" true (req = Wire.Ping);
  let hdr, _ = Wire.decode_request (Wire.encode_request Wire.Get_stats) in
  Alcotest.(check string) "untraced by default" "" hdr.Wire.trace_id;
  (* Oversized ids are rejected on both sides of the wire. *)
  (match Wire.encode_request ~trace_id:(String.make 65 'x') Wire.Ping with
  | _ -> Alcotest.fail "expected encode to reject an oversized trace id"
  | exception Wire.Protocol_error _ -> ());
  let at_cap = String.make Wire.max_trace_id 'y' in
  let hdr, _ =
    Wire.decode_request (Wire.encode_request ~trace_id:at_cap Wire.Ping)
  in
  Alcotest.(check string) "cap-length id accepted" at_cap hdr.Wire.trace_id

let test_session_header () =
  (* The v7 header also carries the session token; both fields travel
     together and independently default to empty. *)
  let hdr, req =
    Wire.decode_request
      (Wire.encode_request ~trace_id:"00aa00aa00aa00aa" ~session:"tok-42"
         Wire.Get_stats)
  in
  Alcotest.(check string) "session travels" "tok-42" hdr.Wire.session;
  Alcotest.(check string) "trace id alongside" "00aa00aa00aa00aa"
    hdr.Wire.trace_id;
  Alcotest.(check bool) "request intact" true (req = Wire.Get_stats);
  let hdr, _ = Wire.decode_request (Wire.encode_request Wire.Ping) in
  Alcotest.(check string) "unauthenticated by default" "" hdr.Wire.session;
  (match
     Wire.encode_request ~session:(String.make (Wire.max_session + 1) 's')
       Wire.Ping
   with
  | _ -> Alcotest.fail "expected encode to reject an oversized session token"
  | exception Wire.Protocol_error _ -> ());
  let at_cap = String.make Wire.max_session 't' in
  let hdr, _ =
    Wire.decode_request (Wire.encode_request ~session:at_cap Wire.Ping)
  in
  Alcotest.(check string) "cap-length token accepted" at_cap hdr.Wire.session

let test_session_ops_roundtrip () =
  (* The v7 handshake and rotation ops. *)
  let os = Wire.Open_session { tenant = "acme" } in
  Alcotest.(check bool) "open_session" true (roundtrip_request os = os);
  let au =
    Wire.Authenticate
      { tenant = "acme"; nonce = String.make 32 'a'; mac = String.make 64 'b' }
  in
  Alcotest.(check bool) "authenticate" true (roundtrip_request au = au);
  let ro = Wire.Rotate { tenant = "acme"; status_only = false } in
  Alcotest.(check bool) "rotate" true (roundtrip_request ro = ro);
  let rs = Wire.Rotate { tenant = "acme"; status_only = true } in
  Alcotest.(check bool) "rotate status" true (roundtrip_request rs = rs);
  (* Oversized tenant ids and MACs are rejected at encode time. *)
  (match
     Wire.encode_request
       (Wire.Open_session { tenant = String.make (Wire.max_tenant_id + 1) 'x' })
   with
  | _ -> Alcotest.fail "expected encode to reject an oversized tenant id"
  | exception Wire.Protocol_error _ -> ());
  (match
     Wire.encode_request
       (Wire.Authenticate
          { tenant = "acme"; nonce = "n"; mac = String.make (Wire.max_mac + 1) 'm' })
   with
  | _ -> Alcotest.fail "expected encode to reject an oversized mac"
  | exception Wire.Protocol_error _ -> ());
  (* And the responses they are answered with. *)
  let ch = Wire.Session_challenge { nonce = String.make 32 'c' } in
  Alcotest.(check bool) "challenge" true (roundtrip_response ch = ch);
  let ok = Wire.Session_ok { token = "tok" } in
  Alcotest.(check bool) "session ok" true (roundtrip_response ok = ok);
  let rot =
    Wire.Rotation { state = "rotating"; generation = 3; rows_moved = 120;
                    rows_total = 480 }
  in
  Alcotest.(check bool) "rotation" true (roundtrip_response rot = rot);
  let uv = Wire.Unsupported_version { server_version = 7 } in
  Alcotest.(check bool) "unsupported version" true (roundtrip_response uv = uv);
  let af =
    Wire.Error
      { code = Wire.Auth_failed; message = "authentication failed";
        query = None; retry_after = None }
  in
  Alcotest.(check bool) "auth failed" true (roundtrip_response af = af);
  let ut =
    Wire.Error
      { code = Wire.Unknown_tenant; message = "unknown tenant"; query = None;
        retry_after = None }
  in
  Alcotest.(check bool) "unknown tenant" true (roundtrip_response ut = ut)

let test_unsupported_version_is_version_independent () =
  (* The one frozen message: whatever version byte the peer stamped on it,
     [Unsupported_version] must still decode, because it exists precisely
     to be readable across a version gap. *)
  let encoded =
    Wire.encode_response (Wire.Unsupported_version { server_version = 7 })
  in
  let stamped = "\x02" ^ String.sub encoded 1 (String.length encoded - 1) in
  match Wire.decode_response stamped with
  | 0, Wire.Unsupported_version { server_version } ->
    Alcotest.(check int) "body decodes under a foreign version" 7 server_version
  | _ -> Alcotest.fail "expected Unsupported_version"

let test_response_roundtrip () =
  Alcotest.(check bool) "pong" true (roundtrip_response Wire.Pong = Wire.Pong);
  (* Rows exercising every value constructor, including the empty row. *)
  let rows =
    Wire.Rows
      { Exec.columns = [ "a"; "b" ];
        rows =
          [ [| Value.Null; Value.Bool true |];
            [| Value.Int (-42); Value.Float 2.5 |];
            [| Value.Str ""; Value.Str "hello \x00 world" |];
            [| Value.Date (Date.of_ymd 1997 6 15); Value.Float nan |];
            [||] ] }
  in
  (match roundtrip_response rows, rows with
  | Wire.Rows got, Wire.Rows want ->
    Alcotest.(check (list string)) "columns" want.Exec.columns got.Exec.columns;
    List.iter2
      (fun w g ->
        Alcotest.(check (array string)) "row"
          (Array.map Value.to_string w) (Array.map Value.to_string g))
      want.Exec.rows got.Exec.rows
  | _ -> Alcotest.fail "rows shape");
  let err =
    Wire.Error
      { code = Wire.Exec_failed; message = "boom"; query = Some "SELECT 1";
        retry_after = None }
  in
  Alcotest.(check bool) "error" true (roundtrip_response err = err);
  let err_no_query =
    Wire.Error
      { code = Wire.Overloaded; message = "busy"; query = None;
        retry_after = Some 0.25 }
  in
  Alcotest.(check bool) "error no query" true
    (roundtrip_response err_no_query = err_no_query);
  (* The v5 store responses. *)
  let applied = Wire.Applied { wal_pos = 123456 } in
  Alcotest.(check bool) "applied" true (roundtrip_response applied = applied);
  let chunk =
    Wire.Wal_chunk
      { resync = false;
        records =
          [ "CREATE TABLE kv (k INTEGER)"; ""; "INSERT INTO kv VALUES (1)" ];
        next_pos = 77;
        end_pos = 142 }
  in
  Alcotest.(check bool) "wal chunk" true (roundtrip_response chunk = chunk);
  let resync =
    Wire.Wal_chunk { resync = true; records = []; next_pos = 9; end_pos = 9 }
  in
  Alcotest.(check bool) "resync chunk" true (roundtrip_response resync = resync);
  (* The v6 fencing responses. *)
  let es = Wire.Epoch_state { epoch = 41 } in
  Alcotest.(check bool) "epoch state" true (roundtrip_response es = es);
  let fenced =
    Wire.Error
      { code = Wire.Fenced;
        message = "fencing epoch mismatch: request epoch 2, store epoch 3";
        query = Some "INSERT INTO kv VALUES (1, 'x')";
        retry_after = None }
  in
  Alcotest.(check bool) "fenced error" true
    (roundtrip_response fenced = fenced)

let test_stats_roundtrip () =
  let open Mope_obs in
  let dump =
    { Trace.id = "00ff00ff00ff00ff";
      spans =
        [ { Trace.name = "request"; depth = 0; start_us = 1.0e12;
            dur_us = 1234.5; items = [] };
          { Trace.name = "exec"; depth = 1; start_us = 1.0e12 +. 10.0;
            dur_us = 42.25; items = [ ("rows_scanned", 17); ("hgd_draws", 3) ] } ] }
  in
  let s =
    { Wire.metrics_text = "# HELP x counts\n# TYPE x counter\nx 1\n";
      metrics_json = "{\"counters\":[]}";
      traces = [ dump; { Trace.id = "deadbeefdeadbeef"; spans = [] } ] }
  in
  match roundtrip_response (Wire.Stats s) with
  | Wire.Stats got ->
    Alcotest.(check bool) "stats roundtrip exact" true (got = s)
  | _ -> Alcotest.fail "stats shape"

let check_protocol_error name (f : unit -> unit) =
  match f () with
  | () -> Alcotest.fail (name ^ ": expected Protocol_error")
  | exception Wire.Protocol_error _ -> ()

let check_version_mismatch name expected (f : unit -> unit) =
  match f () with
  | () -> Alcotest.fail (name ^ ": expected Version_mismatch")
  | exception Wire.Version_mismatch { peer_version } ->
    Alcotest.(check int) (name ^ " peer version") expected peer_version

let test_decode_malformed () =
  let ping = Wire.encode_request Wire.Ping in
  (* Wrong version byte: a distinct exception, so the server can answer
     with the structured [Unsupported_version] instead of [Bad_frame]. *)
  let bad_version = "\x7F" ^ String.sub ping 1 (String.length ping - 1) in
  check_version_mismatch "version" 0x7F (fun () ->
      ignore (Wire.decode_request bad_version));
  (* Stale peers are reported with the version they actually speak. *)
  check_version_mismatch "stale version" 2 (fun () ->
      ignore (Wire.decode_request "\x02\x01"));
  check_version_mismatch "pre-session version" 6 (fun () ->
      ignore (Wire.decode_request "\x06\x01"));
  check_version_mismatch "pre-pipelining version" 7 (fun () ->
      ignore (Wire.decode_request "\x07\x01"));
  (* Unknown tag (with a well-formed empty header after it: empty trace id,
     empty session, request id 0). *)
  check_protocol_error "unknown tag" (fun () ->
      ignore
        (Wire.decode_request
           ("\x08\x6E"
           ^ "\x00\x00\x00\x00\x00\x00\x00\x00"
           ^ "\x00\x00\x00\x00\x00\x00\x00\x00"
           ^ "\x00\x00\x00\x00\x00\x00\x00\x00")));
  (* A response tag is not a request. *)
  check_protocol_error "response as request" (fun () ->
      ignore (Wire.decode_request (Wire.encode_response Wire.Pong)));
  (* Truncated body: a Query missing everything after the tag. *)
  check_protocol_error "truncated" (fun () ->
      ignore (Wire.decode_request "\x08\x02"));
  (* Trailing bytes after a complete message. *)
  check_protocol_error "trailing" (fun () ->
      ignore (Wire.decode_request (ping ^ "\x00")));
  (* Negative / insane string length inside the body (here: the trace id). *)
  check_protocol_error "bad length" (fun () ->
      ignore (Wire.decode_request "\x08\x02\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF"));
  (* A 62-bit length that would overflow a naive bounds check. *)
  check_protocol_error "overflowing length" (fun () ->
      ignore (Wire.decode_request "\x08\x02\x3F\xFF\xFF\xFF\xFF\xFF\xFF\xFF"));
  (* Empty payload. *)
  check_protocol_error "empty" (fun () -> ignore (Wire.decode_request ""))

(* ------------------------------------------------------------------ *)
(* Loopback server + client over the encrypted TPC-H pipeline *)

let testbed = lazy (Testbed.load ~sf:0.002 ~seed:21L ())

(* A service with one proxy per date column, as `mope serve` builds it. *)
let make_service ?batch_size () =
  let tb = Lazy.force testbed in
  let proxies =
    [ ( Tpch_queries.date_column Tpch_queries.Q6,
        Testbed.proxy tb ~template:Tpch_queries.Q6 ~rho:(Some 92) ?batch_size
          ~seed:17L () );
      ( Tpch_queries.date_column Tpch_queries.Q4,
        Testbed.proxy tb ~template:Tpch_queries.Q4 ~rho:(Some 92) ?batch_size
          ~seed:19L () ) ]
  in
  Service.create ~proxies ()

let with_server ?config handler f =
  let server = Server.start ?config ~handler () in
  Fun.protect ~finally:(fun () -> Server.shutdown server) (fun () -> f server)

(* The proxy and cache counters travel as metrics in a Stats scrape.
   The registry is process-wide, so a test reading them starts it from
   zero. *)
let with_fresh_metrics f =
  Mope_obs.Metrics.reset_all ();
  Mope_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Mope_obs.Metrics.set_enabled false) f

let scrape client =
  let json = (Client.stats client).Wire.metrics_json in
  fun name -> Option.value ~default:0 (Mope_obs.Metrics.json_counter json name)

let test_loopback_tpch () =
  let tb = Lazy.force testbed in
  let service = make_service ~batch_size:25 () in
  with_fresh_metrics @@ fun () ->
  with_server (Service.handler service) (fun server ->
      Client.with_client ~port:(Server.port server) (fun client ->
          Client.ping client;
          (* >= 3 instances across both date columns, checked against the
             plaintext baseline byte for byte. *)
          let rng = Mope_stats.Rng.create 23L in
          let instances =
            [ Tpch_queries.random_instance rng Tpch_queries.Q6;
              Tpch_queries.random_instance rng Tpch_queries.Q14;
              Tpch_queries.random_instance rng Tpch_queries.Q4;
              Tpch_queries.random_instance rng Tpch_queries.Q4 ]
          in
          List.iter
            (fun inst ->
              let plain = Testbed.run_plain tb inst in
              let got =
                Client.query client ~sql:inst.Tpch_queries.sql
                  ~date_column:
                    (Tpch_queries.date_column inst.Tpch_queries.template)
                  ~date_lo:inst.Tpch_queries.date_lo
                  ~date_hi:inst.Tpch_queries.date_hi ()
              in
              Alcotest.(check (list string))
                "columns" plain.Exec.columns got.Exec.columns;
              Alcotest.(check (list (list string)))
                (Tpch_queries.template_name inst.Tpch_queries.template
                ^ " over the wire")
                (Testbed.fingerprint plain) (Testbed.fingerprint got))
            instances;
          (* The proxy counters travelled the wire as metrics. *)
          let c = scrape client in
          Alcotest.(check int) "client queries" (List.length instances)
            (c "mope_proxy_queries_total");
          Alcotest.(check bool) "rows delivered" true
            (c "mope_proxy_rows_delivered_total" > 0);
          Alcotest.(check bool) "pieces counted" true
            (c "mope_proxy_real_pieces_total" >= List.length instances));
      let s = Server.stats server in
      (* ping + 4 queries + 1 stats scrape *)
      Alcotest.(check int) "requests" 6 s.Server.requests;
      Alcotest.(check int) "no errors" 0 s.Server.errors;
      Alcotest.(check int) "one connection" 1 s.Server.connections_accepted;
      Alcotest.(check bool) "latency recorded" true (s.Server.total_latency > 0.0));
  Alcotest.(check bool) "loopback done" true true

let test_loopback_cache_counters () =
  (* Repeating a statement over the wire must light up both cache layers —
     and stay byte-identical to the plaintext baseline, cached or not. A
     period of rho = m yields alpha = 1 (no fakes), so the executed starts
     — and hence the fetch statements — repeat exactly across runs. *)
  let tb = Lazy.force testbed in
  let rho = Testbed.padded_domain ~rho:None in
  let proxies =
    [ ( Tpch_queries.date_column Tpch_queries.Q6,
        Testbed.proxy tb ~template:Tpch_queries.Q6 ~rho:(Some rho)
          ~batch_size:25 ~seed:31L () ) ]
  in
  let service = Service.create ~proxies () in
  with_fresh_metrics @@ fun () ->
  with_server (Service.handler service) (fun server ->
      Client.with_client ~port:(Server.port server) (fun client ->
          let rng = Mope_stats.Rng.create 29L in
          let inst = Tpch_queries.random_instance rng Tpch_queries.Q6 in
          let plain = Testbed.run_plain tb inst in
          let run () =
            Client.query client ~sql:inst.Tpch_queries.sql
              ~date_column:(Tpch_queries.date_column inst.Tpch_queries.template)
              ~date_lo:inst.Tpch_queries.date_lo
              ~date_hi:inst.Tpch_queries.date_hi ()
          in
          let r1 = run () in
          let c1 = scrape client in
          let r2 = run () in
          let c2 = scrape client in
          Alcotest.(check (list (list string))) "cold run matches baseline"
            (Testbed.fingerprint plain) (Testbed.fingerprint r1);
          Alcotest.(check (list (list string))) "cached run byte-identical"
            (Testbed.fingerprint plain) (Testbed.fingerprint r2);
          (* First run: only misses. Second run: every start and statement
             repeats, so both layers hit. *)
          let seg_hits = "mope_segment_cache_hits_total"
          and seg_misses = "mope_segment_cache_misses_total"
          and plan_hits = "mope_plan_cache_hits_total" in
          Alcotest.(check bool) "cold segment misses" true (c1 seg_misses > 0);
          Alcotest.(check int) "no cold segment hits" 0 (c1 seg_hits);
          Alcotest.(check bool) "segment cache hits rose" true
            (c2 seg_hits > c1 seg_hits);
          Alcotest.(check bool) "plan cache hits rose" true
            (c2 plan_hits > c1 plan_hits);
          Alcotest.(check bool) "plan cache misses counted" true
            (c2 "mope_plan_cache_misses_total" >= 1);
          Alcotest.(check int) "no new segment walks on repeat"
            (c1 seg_misses) (c2 seg_misses)))

let test_trace_propagation () =
  (* End-to-end observability: a client-minted trace id rides the v3 header,
     the server's handler runs under it, and the Stats wire op brings back a
     span tree for that id plus the metric families the request touched. *)
  let open Mope_obs in
  Metrics.set_enabled true;
  Trace.set_enabled true;
  Trace.clear_recent ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Metrics.set_enabled false;
      Trace.clear_recent ())
    (fun () ->
      let tb = Lazy.force testbed in
      let service = make_service () in
      with_server (Service.handler service) (fun server ->
          Client.with_client ~port:(Server.port server) (fun client ->
              let rng = Mope_stats.Rng.create 91L in
              let inst = Tpch_queries.random_instance rng Tpch_queries.Q6 in
              let tid = Trace.mint_id rng in
              let got =
                Client.query client ~trace_id:tid ~sql:inst.Tpch_queries.sql
                  ~date_column:
                    (Tpch_queries.date_column inst.Tpch_queries.template)
                  ~date_lo:inst.Tpch_queries.date_lo
                  ~date_hi:inst.Tpch_queries.date_hi ()
              in
              (* Instrumentation must not disturb the result. *)
              let plain = Testbed.run_plain tb inst in
              Alcotest.(check (list (list string)))
                "result intact under tracing" (Testbed.fingerprint plain)
                (Testbed.fingerprint got);
              let s = Client.stats client in
              let dump =
                match
                  List.find_opt (fun d -> d.Trace.id = tid) s.Wire.traces
                with
                | Some d -> d
                | None -> Alcotest.fail "server has no trace for our id"
              in
              let names = List.map (fun sp -> sp.Trace.name) dump.Trace.spans in
              List.iter
                (fun expected ->
                  Alcotest.(check bool) (expected ^ " span present") true
                    (List.mem expected names))
                [ "request"; "decode"; "dispatch"; "exec"; "ope_segments";
                  "server_fetch"; "storage_scan"; "ope_decrypt" ];
              (match dump.Trace.spans with
              | root :: rest ->
                Alcotest.(check string) "root span" "request" root.Trace.name;
                Alcotest.(check int) "root depth" 0 root.Trace.depth;
                Alcotest.(check bool) "root spans the request" true
                  (root.Trace.dur_us > 0.0);
                Alcotest.(check bool) "tree has depth >= 3" true
                  (List.exists (fun sp -> sp.Trace.depth >= 3) rest)
              | [] -> Alcotest.fail "empty span tree");
              (* The OPE walk exported draw counts somewhere in the tree. *)
              let total_item key =
                List.fold_left
                  (fun acc sp ->
                    List.fold_left
                      (fun acc (k, v) -> if k = key then acc + v else acc)
                      acc sp.Trace.items)
                  0 dump.Trace.spans
              in
              (* hgd_draws can legitimately be 0 here (warm OPE caches skip
                 the tree walk), but segment and scan counts always appear. *)
              Alcotest.(check bool) "segment counts attached" true
                (total_item "segments" > 0);
              Alcotest.(check bool) "scan row counts attached" true
                (total_item "rows_scanned" > 0);
              (* Both metric renderings travelled and mention the families
                 this request exercised. *)
              List.iter
                (fun family ->
                  Alcotest.(check bool) (family ^ " in exposition") true
                    (contains ~needle:family s.Wire.metrics_text))
                [ "mope_server_requests_total"; "mope_server_request_seconds";
                  "mope_exec_queries_total"; "mope_ope_encrypt_total";
                  "mope_proxy_queries_total"; "mope_ope_hgd_draws_total" ];
              Alcotest.(check bool) "json exposition renders" true
                (contains ~needle:"\"histograms\"" s.Wire.metrics_json))))

let test_unknown_column_is_structured () =
  let service = make_service () in
  with_server (Service.handler service) (fun server ->
      Client.with_client ~port:(Server.port server) (fun client ->
          match
            Client.query client ~sql:"SELECT 1" ~date_column:"no_such_column"
              ~date_lo:(Date.of_ymd 1994 1 1) ~date_hi:(Date.of_ymd 1994 2 1) ()
          with
          | _ -> Alcotest.fail "expected a structured error"
          | exception Mope_error.Error e ->
            Alcotest.(check bool) "mentions unsupported" true
              (contains ~needle:"unsupported" e.Mope_error.msg);
            Alcotest.(check (option string)) "query attached" (Some "SELECT 1")
              e.Mope_error.query;
          (* The connection survives a handler-level error. *)
          Client.ping client))

(* Raw-socket client: drive malformed frames at the server. *)
let raw_connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  fd

let expect_bad_frame name payload =
  match Wire.decode_response payload with
  | 0, Wire.Error { code = Wire.Bad_frame; message; _ } ->
    Alcotest.(check bool) (name ^ " has reason") true (String.length message > 0)
  | _ -> Alcotest.fail (name ^ ": expected an id-0 Bad_frame error response")

let test_malformed_payload_keeps_connection () =
  let service = make_service () in
  with_server (Service.handler service) (fun server ->
      let fd = raw_connect (Server.port server) in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* Framing is intact but the payload is garbage under the right
             version byte: the server answers Bad_frame and the next frame
             boundary is still trustworthy, so the connection survives. *)
          Wire.write_frame fd "\x08\xF1";
          expect_bad_frame "unknown tag" (Wire.read_frame fd);
          Wire.write_frame fd (Wire.encode_request Wire.Ping);
          Alcotest.(check bool) "still serving" true
            (Wire.decode_response (Wire.read_frame fd) = (0, Wire.Pong))))

let test_version_handshake_structured () =
  (* Satellite: a client speaking yesterday's protocol gets the structured
     [Unsupported_version] answer, which the driver surfaces as a readable
     error naming both versions — not a codec crash, not a hung socket. *)
  let service = make_service () in
  with_server (Service.handler service) (fun server ->
      let fd = raw_connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* A well-formed v6 Ping: version byte, tag, empty trace id —
             exactly what last release's client would send. *)
          let ping = Wire.encode_request Wire.Ping in
          let stale = "\x06" ^ String.sub ping 1 (String.length ping - 1) in
          Wire.write_frame fd stale;
          (match Wire.decode_response (Wire.read_frame fd) with
          | 0, Wire.Unsupported_version { server_version } ->
            Alcotest.(check int) "server version in the answer" Wire.version
              server_version;
            (* The client driver turns it into a structured error that
               names both sides of the gap. *)
            (match ignore (Wire.decode_request stale) with
            | () -> Alcotest.fail "client codec must also refuse the frame"
            | exception Wire.Version_mismatch { peer_version } ->
              Alcotest.(check int) "peer version preserved" 6 peer_version)
          | _ -> Alcotest.fail "expected Unsupported_version");
          (* Every further frame would mismatch the same way, so the
             server hangs up after answering. *)
          Wire.write_frame fd stale;
          match Wire.read_frame fd with
          | _ -> Alcotest.fail "expected the server to close the connection"
          | exception End_of_file -> ()
          | exception Wire.Protocol_error _ -> ()
          | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ()))

let test_bad_length_prefix_closes_connection () =
  let service = make_service () in
  with_server (Service.handler service) (fun server ->
      let fd = raw_connect (Server.port server) in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* A 0-byte frame is below the version+tag minimum: the framing
             layer itself rejects it, so the server answers and hangs up.
             (Nothing follows the header — unread bytes at close would turn
             the server's FIN into an RST under the client's feet.) *)
          let junk = Bytes.of_string "\x00\x00\x00\x00\x00\x00\x00\x00" in
          ignore (Unix.write fd junk 0 (Bytes.length junk));
          expect_bad_frame "short frame" (Wire.read_frame fd);
          match Wire.read_frame fd with
          | _ -> Alcotest.fail "expected the server to close the connection"
          | exception End_of_file -> ()
          | exception Wire.Protocol_error _ -> ()))

let test_oversized_length_prefix_rejected () =
  let service = make_service () in
  with_server (Service.handler service) (fun server ->
      let fd = raw_connect (Server.port server) in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* Claim a 256 MiB payload: rejected before any allocation. *)
          let junk = Bytes.of_string "\x10\x00\x00\x00\x00\x00\x00\x00" in
          ignore (Unix.write fd junk 0 (Bytes.length junk));
          expect_bad_frame "oversized" (Wire.read_frame fd)))

let test_corrupted_frame_rejected () =
  let service = make_service () in
  with_server (Service.handler service) (fun server ->
      let fd = raw_connect (Server.port server) in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* A correctly framed Ping whose payload was bit-flipped in
             flight: the header CRC no longer matches, so the server must
             reject the frame instead of decoding the damaged bytes. *)
          let payload = Wire.encode_request Wire.Ping in
          let len = String.length payload in
          let frame = Bytes.create (8 + len) in
          let put_u32 at v =
            Bytes.set frame at (Char.chr ((v lsr 24) land 0xFF));
            Bytes.set frame (at + 1) (Char.chr ((v lsr 16) land 0xFF));
            Bytes.set frame (at + 2) (Char.chr ((v lsr 8) land 0xFF));
            Bytes.set frame (at + 3) (Char.chr (v land 0xFF))
          in
          put_u32 0 len;
          put_u32 4 (Int32.to_int (Crc32.digest payload) land 0xFFFFFFFF);
          Bytes.blit_string payload 0 frame 8 len;
          let last = 8 + len - 1 in
          Bytes.set frame last
            (Char.chr (Char.code (Bytes.get frame last) lxor 0x01));
          ignore (Unix.write fd frame 0 (Bytes.length frame));
          expect_bad_frame "checksum mismatch" (Wire.read_frame fd)))

let test_client_timeout_is_structured () =
  (* A handler that stalls longer than the client is willing to wait. *)
  let handler (_ : Wire.header) = function
    | Wire.Ping ->
      Thread.delay 1.5;
      Wire.Pong
    | _ ->
      Wire.Error
        { code = Wire.Unsupported; message = "no"; query = None;
          retry_after = None }
  in
  with_server handler (fun server ->
      let client =
        Client.connect ~port:(Server.port server) ~timeout:0.3
          ~request_retries:0 ()
      in
      (match Client.ping client with
      | () -> Alcotest.fail "expected a timeout"
      | exception Mope_error.Error e ->
        Alcotest.(check bool) "mentions timeout" true
          (contains ~needle:"timed out" e.Mope_error.msg));
      (* A timed-out connection has lost its frame boundary: it is dropped —
         but the client itself stays usable and redials on the next call. *)
      Alcotest.(check bool) "connection dropped" false (Client.is_connected client);
      Alcotest.(check bool) "client still open" false (Client.is_closed client);
      Client.close client)

let test_connect_retries_then_structured_error () =
  (* Find a port with no listener by binding one and closing it. *)
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close fd;
  match Client.connect ~port ~retries:2 ~backoff:0.01 () with
  | _ -> Alcotest.fail "expected connection failure"
  | exception Mope_error.Error e ->
    Alcotest.(check bool) "attempt count in message" true
      (contains ~needle:"3 attempts" e.Mope_error.msg);
    Alcotest.(check bool) "cause preserved" true (e.Mope_error.cause <> None)

let test_use_after_close () =
  let service = make_service () in
  with_server (Service.handler service) (fun server ->
      let client = Client.connect ~port:(Server.port server) () in
      Client.ping client;
      Client.close client;
      Client.close client (* idempotent *);
      match Client.ping client with
      | () -> Alcotest.fail "expected an error on a closed client"
      | exception Mope_error.Error _ -> ())

let test_transport_closes_once () =
  (* A closed descriptor number is free for the next open; neither closing
     the transport again nor shutting it down may reach whatever took it. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let io = Transport.of_fd a in
  io.Transport.close ();
  let c, d = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  io.Transport.shutdown ();
  io.Transport.close ();
  ignore (Unix.write_substring d "x" 0 1);
  Alcotest.(check int) "the newer descriptor is still open and readable" 1
    (Unix.read c (Bytes.create 1) 0 1);
  List.iter Unix.close [ b; c; d ]

let test_concurrent_clients () =
  let service = make_service () in
  let n_threads = 4 and pings = 5 in
  with_server (Service.handler service) (fun server ->
      let port = Server.port server in
      let failures = Atomic.make 0 in
      let worker () =
        try
          Client.with_client ~port (fun client ->
              for _ = 1 to pings do
                Client.ping client
              done;
              ignore (Client.stats client))
        with _ -> Atomic.incr failures
      in
      let threads = List.init n_threads (fun _ -> Thread.create worker ()) in
      List.iter Thread.join threads;
      Alcotest.(check int) "no thread failed" 0 (Atomic.get failures);
      let s = Server.stats server in
      Alcotest.(check int) "every request served"
        (n_threads * (pings + 1)) s.Server.requests;
      Alcotest.(check int) "every connection accepted" n_threads
        s.Server.connections_accepted;
      (* Server-side cleanup of a closed client is asynchronous: wait for
         the connection threads to notice the EOFs. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        Server.active_connections server > 0 && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.02
      done;
      Alcotest.(check int) "connections drained" 0
        (Server.active_connections server))

let test_shutdown_idempotent_and_rejects_late_clients () =
  let service = make_service () in
  let server = Server.start ~handler:(Service.handler service) () in
  let port = Server.port server in
  Client.with_client ~port (fun client -> Client.ping client);
  Server.shutdown server;
  Server.shutdown server (* idempotent *);
  match Client.connect ~port ~retries:0 () with
  | client ->
    (* The kernel may still complete the handshake on some platforms; the
       first round-trip must then fail. *)
    (match Client.ping client with
    | () -> Alcotest.fail "expected a dead server"
    | exception Mope_error.Error _ -> ());
    Client.close client
  | exception Mope_error.Error _ -> ()

let () =
  Alcotest.run "net"
    [ ( "wire",
        [ Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "trace id header" `Quick test_trace_id_header;
          Alcotest.test_case "session header" `Quick test_session_header;
          Alcotest.test_case "session ops roundtrip" `Quick
            test_session_ops_roundtrip;
          Alcotest.test_case "unsupported_version is version-independent"
            `Quick test_unsupported_version_is_version_independent;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "stats roundtrip" `Quick test_stats_roundtrip;
          Alcotest.test_case "malformed payloads rejected" `Quick
            test_decode_malformed ] );
      ( "loopback",
        [ Alcotest.test_case "TPC-H through the encrypted pipeline" `Slow
            test_loopback_tpch;
          Alcotest.test_case "cache counters over the wire" `Slow
            test_loopback_cache_counters;
          Alcotest.test_case "trace propagation end to end" `Slow
            test_trace_propagation;
          Alcotest.test_case "unknown column is a structured error" `Quick
            test_unknown_column_is_structured;
          Alcotest.test_case "malformed payload keeps the connection" `Quick
            test_malformed_payload_keeps_connection;
          Alcotest.test_case "version handshake is structured" `Quick
            test_version_handshake_structured;
          Alcotest.test_case "bad length prefix closes the connection" `Quick
            test_bad_length_prefix_closes_connection;
          Alcotest.test_case "oversized length prefix rejected" `Quick
            test_oversized_length_prefix_rejected;
          Alcotest.test_case "corrupted frame rejected" `Quick
            test_corrupted_frame_rejected ] );
      ( "client",
        [ Alcotest.test_case "timeout is a structured error" `Quick
            test_client_timeout_is_structured;
          Alcotest.test_case "connect retries then structured error" `Quick
            test_connect_retries_then_structured_error;
          Alcotest.test_case "use after close" `Quick test_use_after_close ] );
      ( "server",
        [ Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
          Alcotest.test_case "transport closes its descriptor once" `Quick
            test_transport_closes_once;
          Alcotest.test_case "shutdown is graceful and idempotent" `Quick
            test_shutdown_idempotent_and_rejects_late_clients ] ) ]
