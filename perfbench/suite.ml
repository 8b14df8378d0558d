(* The served-path benchmark: one process drives the real stack

     Client -> loopback TCP -> Server -> Service | Tenant_service -> Proxy
            -> Encrypted_db / Database

   at the paper's operating points, and splits each query's time across the
   layers it crosses.

   Workloads (one stack each; TPC-H SF 0.001, testbed seed 21, proxy batch
   size 25, fixed proxy seeds 17/19):
   - ceiling:    Service, rho = M = 2557 (alpha = 1, no fake queries). The
                 fake-free cache ceiling, not a secure setting: server work
                 per query is smallest, so wire, dispatch, decrypt and local
                 evaluation carry the largest share.
   - queryp_61d: Service, QueryP with rho = 61 (Fig. 13's 2-month period,
                 domain padded to 2562) - the paper's recommended point.
   - tenants:    Tenant_service, two tenants with their own derived keys,
                 twins and proxies, one session connection each, QueryU
                 (the [mope serve] default): hundreds of fakes per real
                 piece, so time sits in the server scan/fetch.

   A Service-at-QueryU workload is left out to keep the runs long enough
   to be steady within the time a full benchmark pass may take: it
   crosses the same proxy and db layers as [tenants], and Service itself
   is covered by the other two.

   Q14 is left out: Service routes by date column, so Q14 would share Q6's
   proxy, whose scheduler is built for Q6's start distribution.

   Load shape: one closed-loop client thread with one query in flight,
   taking two connections in turn; the connections are opened once per
   stack and kept open through warm-up and the passes. Each connection
   draws instances from its own seeded stream over a pool of 20 Q6
   (k = 366) and 20 Q4 (k = 92) instances, spread evenly over each
   template's start days. Warm-up runs the whole pool once per connection.
   Every response is compared byte for byte with the plaintext result
   computed during setup; a wrong answer or any exception is a failed
   operation, counted against those attempted.

   Passes: an untraced timed pass gives the end-to-end metrics. Unless
   --trace 1 or --quick is given, the stack is set up three times and each
   set-up is followed by a third of the pass; the set-up time reported is
   the median. A traced pass a quarter as long, on the last stack's
   process, caches and connections, gives the per-layer metrics. Both
   passes run until a deadline with the same load shape. The handler timer
   and trace collection are switched on for the traced pass only, so
   untraced latencies carry no tracing cost.

   Usage:
     suite.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
               [--quick] [--out PATH]
   Without --workload every workload runs. --trace 0 runs the untraced
   pass and reports the end-to-end metrics; --trace 1 adds the traced pass
   and reports the per-layer metrics; without --trace both are reported.
   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; --out also writes the
   full report (samples, layer table, failure messages). The exit code is
   non-zero when any operation failed. *)

open Mope_workload
open Mope_system
open Mope_net
open Perfbench_harness
module Trace = Mope_obs.Trace
module Metrics = Mope_obs.Metrics
module Rng = Mope_stats.Rng

(* ------------------------------------------------------------------ *)
(* Configuration *)

(* TPC-H scale. Twin encryption dominates set-up (about 1.2 s per 0.001
   of scale factor on a 2-core VM) and a --trace 0 run sets up three
   times, so the scale is kept small enough for a 20 s pass to make a run
   of 30 to 45 s. *)
let scale_factor = 0.001
let quick_scale_factor = 0.0005
let batch_size = 25
let connections = 2
(* 20 per template covers Q6's 5 start years 4 times and Q4's 20 start
   quarters once each (see [Gate.pool]). *)
let per_template = 20
let testbed_seed = 21L

(* The served templates, each with its proxy's fixed seed. *)
let templates = [ (Tpch_queries.Q6, 17L); (Tpch_queries.Q4, 19L) ]

(* Set-up is repeated and its median reported, so one slow set-up does not
   read as a regression. *)
let setup_repeats = 3

type front = Single | Tenants

type workload = { name : string; label : string; rho : int option; front : front }

let workloads =
  [ { name = "ceiling"; label = "Service, rho = M (no fakes)";
      rho = Some Tpch.date_domain; front = Single };
    { name = "queryp_61d"; label = "Service, QueryP rho = 61";
      rho = Some 61; front = Single };
    { name = "tenants"; label = "Tenant_service x2, QueryU"; rho = None;
      front = Tenants } ]

let tenants = [ ("alpha", "s-alpha"); ("beta", "s-beta") ]

let end_to_end =
  [ ("setup_s", "s"); ("p50_ms", "ms"); ("p95_ms", "ms"); ("qps", "1/s");
    ("live_mb", "MB") ]

(* Per-layer metrics: name, unit, the module that owns the layer, and the
   end-to-end metric (and workload) it is expected to move. *)
let per_layer =
  [ ("net.wire_ms", "ms", "Client/Wire/Server", "p50_ms on ceiling");
    ("server.overhead_ms", "ms", "Server", "p50_ms on ceiling");
    ("service.wait_ms", "ms", "Service/Tenant_service", "p50_ms, p95_ms on ceiling, tenants");
    ("proxy.plan_ms", "ms", "Proxy+Scheduler", "p50_ms on tenants");
    ("proxy.segments_ms", "ms", "Proxy+Ope", "p95_ms on tenants; setup_s");
    ("proxy.decrypt_ms", "ms", "Proxy+Mope/Encrypted_db", "p50_ms on ceiling, queryp_61d");
    ("db.fetch_ms", "ms", "Database/Exec", "qps on all; largest on tenants");
    ("db.scan_ms", "ms", "Exec/Btree", "qps, p95_ms on tenants, queryp_61d");
    ("db.plan_cache_ms", "ms", "Plan_cache", "p50_ms on tenants");
    ("eval.local_ms", "ms", "Proxy local re-evaluation", "p50_ms on ceiling");
    ("proxy.fakes_per_real", "fakes/real", "Scheduler", "security invariant: must not move");
    ("proxy.requests_per_query", "requests/query", "Proxy batching", "p50_ms on tenants");
    ("proxy.rows_fetched_per_query", "rows/query", "Proxy-server", "qps on tenants");
    ("proxy.useful_row_frac", "ratio", "Proxy", "qps on tenants");
    ("proxy.segment_hit_rate", "ratio", "Proxy segment cache", "p95_ms on tenants; live_mb");
    ("db.plan_cache_hit_rate", "ratio", "Plan_cache", "p50_ms on ceiling");
    ("db.rows_scanned_per_query", "rows/query", "Exec", "qps on tenants");
    ("db.index_ranges_per_request", "ranges/request", "Exec/Btree", "db.scan_ms on tenants");
    ("ope.decrypt_calls_per_query", "calls/query", "Ope", "proxy.decrypt_ms");
    ("ope.encrypt_calls_per_query", "calls/query", "Ope", "proxy.segments_ms");
    ("proxy.segments.explained_frac", "ratio", "Proxy+Ope", "micro-benchmark cross-check");
    ("proxy.decrypt.explained_frac", "ratio", "Proxy+Mope", "micro-benchmark cross-check");
    ("db.scan.explained_frac", "ratio", "Exec/Btree", "micro-benchmark cross-check");
    ("trace.overhead_frac", "ratio", "-", "-");
    ("residual_frac", "ratio", "-", "-") ]

(* Micro-benchmark constants from EXPERIMENTS.md, in ms. *)
let cold_ope_walk_ms = 0.346
let memo_ope_encrypt_ms = 20e-6
let memo_mope_decrypt_ms = 109e-6
let btree_row_ms = 1.7e-3 /. 1000.0

type options = {
  quick : bool;
  seed : int;
  seconds : float;
  trace : bool option;  (* None: report both metric sets *)
}

(* ------------------------------------------------------------------ *)
(* The served stack *)

(* A timer around the handler given to [Server.start]. It only records
   while [on] (the traced pass), keyed by the request's trace id, so the
   untraced pass pays one atomic load per request. Switching a flag rather
   than restarting the server keeps both connections open across passes. *)
type timer = { on : bool Atomic.t; lock : Mutex.t; times : (string, float) Hashtbl.t }

let timed timer handler (header : Wire.header) request =
  if not (Atomic.get timer.on) then handler header request
  else begin
    let t0 = Unix.gettimeofday () in
    let response = handler header request in
    let dt = Unix.gettimeofday () -. t0 in
    Mutex.protect timer.lock (fun () ->
        Hashtbl.replace timer.times header.Wire.trace_id dt);
    response
  end

let take_handler_time timer id =
  Mutex.protect timer.lock (fun () ->
      match Hashtbl.find_opt timer.times id with
      | Some dt ->
        Hashtbl.remove timer.times id;
        dt
      | None -> failwith ("no handler time recorded for trace " ^ id))

type stack = {
  server : Server.t;
  clients : Client.t array;
  proxies : Proxy.t list;
  server_dbs : Mope_db.Database.t list;  (* distinct, by physical identity *)
  gate : Gate.t;
  timer : timer;
}

let build w opts =
  let sf = if opts.quick then quick_scale_factor else scale_factor in
  let tb = Testbed.load ~sf ~seed:testbed_seed () in
  let gate =
    Gate.create ~plain:(Testbed.run_plain tb)
      (Gate.pool ~seed:(Int64.of_int opts.seed) ~per_template (List.map fst templates))
  in
  let proxies_over enc =
    List.map
      (fun (template, seed) ->
        ( Tpch_queries.date_column template,
          Testbed.proxy_over enc ~template ~rho:w.rho ~batch_size ~seed () ))
      templates
  in
  let handler, proxies =
    match w.front with
    | Single ->
      let proxies = proxies_over (Testbed.encrypted_for tb ~rho:w.rho) in
      (Service.handler (Service.create ~proxies ()), List.map snd proxies)
    | Tenants ->
      let make_enc ~key =
        Encrypted_db.create ~key ~window_lo:Tpch.window_lo
          ~date_domain:(Testbed.padded_domain ~rho:w.rho) ~plain:(Testbed.plain tb)
          ~specs:Testbed.specs ()
      in
      let registry =
        Mope_tenant.Registry.create ~master_key:"perfbench-root-key" ~make_enc
          ~make_proxies:proxies_over
          ~configs:
            (List.map
               (fun (cfg_id, cfg_secret) -> { Mope_tenant.Registry.cfg_id; cfg_secret })
               tenants)
          ()
      in
      let proxies =
        List.concat_map
          (fun id ->
            match Mope_tenant.Registry.find registry id with
            | Some t ->
              List.map snd t.Mope_tenant.Registry.current.Mope_tenant.Registry.proxies
            | None -> [])
          (Mope_tenant.Registry.ids registry)
      in
      ( Mope_tenant.Tenant_service.handler
          (Mope_tenant.Tenant_service.create ~registry ()),
        proxies )
  in
  let server_dbs =
    List.fold_left
      (fun acc p ->
        let db = Proxy.server_database p in
        if List.exists (fun d -> d == db) acc then acc else db :: acc)
      [] proxies
  in
  let timer = { on = Atomic.make false; lock = Mutex.create (); times = Hashtbl.create 64 } in
  let server = Server.start ~handler:(timed timer handler) () in
  let clients =
    Array.init connections (fun c ->
        let client = Client.connect ~port:(Server.port server) () in
        (match w.front with
        | Single -> ()
        | Tenants ->
          let tenant, secret = List.nth tenants c in
          ignore (Client.open_session client ~tenant ~secret ()));
        client)
  in
  { server; clients; proxies; server_dbs; gate; timer }

let teardown st =
  Array.iter Client.close st.clients;
  Server.shutdown st.server

(* One query on connection [conn]; the timer covers only the
   [Client.query] call, the gate check runs after it. *)
let query st ~conn ~trace_id idx =
  let inst = Gate.instance st.gate idx in
  let t0 = Unix.gettimeofday () in
  let result =
    Client.query st.clients.(conn) ~trace_id ~sql:inst.Tpch_queries.sql
      ~date_column:(Tpch_queries.date_column inst.Tpch_queries.template)
      ~date_lo:inst.Tpch_queries.date_lo ~date_hi:inst.Tpch_queries.date_hi ()
  in
  let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  Gate.check st.gate idx result;
  ms

(* ------------------------------------------------------------------ *)
(* Counter snapshots around the traced pass *)

type counts = {
  client_queries : int;
  real_pieces : int;
  fake_queries : int;
  server_requests : int;
  rows_fetched : int;
  rows_delivered : int;
  seg_hits : int;
  seg_misses : int;
  plan_hits : int;
  plan_misses : int;
  rows_scanned : int;
  index_ranges : int;
  ope_encrypts : int;
  ope_decrypts : int;
  ope_walks : int;
}

let ope_encrypts = Metrics.counter "mope_ope_encrypt_total" ()
let ope_decrypts = Metrics.counter "mope_ope_decrypt_total" ()

(* Same bounds as the OPE module's registration, so this returns its
   histogram: one sample per uncached encrypt or decrypt walk. *)
let ope_walks =
  Metrics.histogram
    ~buckets:[| 1.0; 2.0; 4.0; 8.0; 12.0; 16.0; 24.0; 32.0; 48.0; 64.0 |]
    "mope_ope_walk_depth" ()

let snapshot st =
  let sum f = List.fold_left (fun acc p -> acc + f (Proxy.counters p)) 0 st.proxies in
  let dbsum f = List.fold_left (fun acc db -> acc + f db) 0 st.server_dbs in
  let plan f =
    dbsum (fun db ->
        match Mope_db.Database.plan_cache_stats db with Some s -> f s | None -> 0)
  in
  { client_queries = sum (fun c -> c.Proxy.client_queries);
    real_pieces = sum (fun c -> c.Proxy.real_pieces);
    fake_queries = sum (fun c -> c.Proxy.fake_queries);
    server_requests = sum (fun c -> c.Proxy.server_requests);
    rows_fetched = sum (fun c -> c.Proxy.rows_fetched);
    rows_delivered = sum (fun c -> c.Proxy.rows_delivered);
    seg_hits = sum (fun c -> c.Proxy.segment_cache_hits);
    seg_misses = sum (fun c -> c.Proxy.segment_cache_misses);
    plan_hits = plan (fun s -> s.Mope_db.Plan_cache.hits);
    plan_misses = plan (fun s -> s.Mope_db.Plan_cache.misses);
    rows_scanned = dbsum (fun db -> (Mope_db.Database.stats db).Mope_db.Exec.rows_scanned);
    index_ranges = dbsum (fun db -> (Mope_db.Database.stats db).Mope_db.Exec.index_ranges);
    ope_encrypts = Metrics.counter_value ope_encrypts;
    ope_decrypts = Metrics.counter_value ope_decrypts;
    ope_walks = Metrics.histogram_count ope_walks }

let diff a b =
  { client_queries = b.client_queries - a.client_queries;
    real_pieces = b.real_pieces - a.real_pieces;
    fake_queries = b.fake_queries - a.fake_queries;
    server_requests = b.server_requests - a.server_requests;
    rows_fetched = b.rows_fetched - a.rows_fetched;
    rows_delivered = b.rows_delivered - a.rows_delivered;
    seg_hits = b.seg_hits - a.seg_hits;
    seg_misses = b.seg_misses - a.seg_misses;
    plan_hits = b.plan_hits - a.plan_hits;
    plan_misses = b.plan_misses - a.plan_misses;
    rows_scanned = b.rows_scanned - a.rows_scanned;
    index_ranges = b.index_ranges - a.index_ranges;
    ope_encrypts = b.ope_encrypts - a.ope_encrypts;
    ope_decrypts = b.ope_decrypts - a.ope_decrypts;
    ope_walks = b.ope_walks - a.ope_walks }

(* ------------------------------------------------------------------ *)
(* Passes *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let note tally msg =
  if not (List.mem msg tally.errors) then tally.errors <- tally.errors @ [ msg ]

let absorb tally (o : Closed_loop.outcome) =
  tally.attempted <- tally.attempted + o.Closed_loop.attempted;
  tally.failed <- tally.failed + o.Closed_loop.failed;
  List.iter (note tally) o.Closed_loop.errors

(* The load: one closed-loop client thread with one query in flight,
   taking the connections in turn. The process runs OCaml on one domain,
   so a second concurrent client would add runtime-lock contention, not
   parallelism, and its latencies would mostly measure the scheduler. *)
let drive ~stop op =
  Closed_loop.run ~conns:1 ~stop (fun ~conn:_ ~iter -> op ~conn:(iter mod connections) ~iter)

(* Warm-up: the whole pool once per connection, the connections starting
   half a pool apart so they begin on different date columns. *)
let warm_up st tally =
  let n = Gate.size st.gate in
  absorb tally
    (drive ~stop:(Closed_loop.Count (n * connections)) (fun ~conn ~iter ->
         query st ~conn ~trace_id:"" (((iter / connections) + (conn * n / connections)) mod n)))

(* Each connection walks the pool in its own seeded order, reshuffled on
   every pass over it, so any stretch of the run sees a near-even mix of
   the two templates. *)
type stream = { rng : Rng.t; order : int array; mutable pos : int }

let streams opts n =
  Array.init connections (fun c ->
      { rng = Rng.create (Int64.of_int ((opts.seed * 1000) + c + 1));
        order = Array.init n Fun.id;
        pos = n })

let next s =
  if s.pos >= Array.length s.order then begin
    Rng.shuffle s.rng s.order;
    s.pos <- 0
  end;
  s.pos <- s.pos + 1;
  s.order.(s.pos - 1)

let untraced_pass st ~seconds streams tally =
  let deadline = Unix.gettimeofday () +. seconds in
  let o =
    drive ~stop:(Closed_loop.Deadline deadline) (fun ~conn ~iter:_ ->
        query st ~conn ~trace_id:"" (next streams.(conn)))
  in
  absorb tally o;
  o

type traced = {
  outcome : Closed_loop.outcome;
  layers : Layers.t;  (* the attributed queries' traces *)
  client_ms : float;  (* mean client latency of the attributed queries *)
  handler_ms : float;  (* ... and their mean handler-wrapper time *)
  unattributed : int;  (* queries whose trace overflowed its span cap *)
  counts : counts;
}

(* The server pushes a request's trace to the ring before it writes the
   response, so the trace is there when [Client.query] returns. The ring
   is cleared only between passes; with one query in flight, one trace
   lands per query, far below the ring's 64 slots. *)
let find_trace id =
  match List.find_opt (fun d -> String.equal d.Trace.id id) (Trace.recent ()) with
  | Some d -> d
  | None -> failwith ("trace " ^ id ^ " missing from the ring")

(* Each traced query keeps its client latency, handler time and trace.
   A trace that overflowed the tracer's per-trace span cap has lost its
   outermost spans (they finish last), so it cannot be split into layers.
   Such a query (only one with hundreds of fakes fills the cap) is left
   out of the latency-derived layer means and counted instead. *)
let traced_pass st opts streams tally =
  let records = ref [] in
  Trace.clear_recent ();
  let before = snapshot st in
  Trace.set_enabled true;
  Metrics.set_enabled true;
  Atomic.set st.timer.on true;
  let o =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set st.timer.on false;
        Metrics.set_enabled false;
        Trace.set_enabled false)
      (fun () ->
        let deadline = Unix.gettimeofday () +. (opts.seconds /. 4.0) in
        drive ~stop:(Closed_loop.Deadline deadline) (fun ~conn ~iter ->
            let trace_id = Printf.sprintf "t-%d-%d" conn iter in
            let ms = query st ~conn ~trace_id (next streams.(conn)) in
            let dump = find_trace trace_id in
            records := (ms, 1000.0 *. take_handler_time st.timer trace_id, dump) :: !records;
            ms))
  in
  let counts = diff before (snapshot st) in
  absorb tally o;
  if List.is_empty !records then failwith "no query completed in the traced pass";
  let mean f rs = Mope_stats.Summary.mean (Array.of_list (List.map f rs)) in
  let attributed, overflowed =
    List.partition (fun (_, _, d) -> not (Layers.overflowed d)) !records
  in
  if List.is_empty attributed then failwith "every traced query overflowed the span cap";
  let layers = Layers.create () in
  List.iter (fun (_, _, d) -> Layers.add layers d) attributed;
  { outcome = o;
    layers;
    client_ms = mean (fun (ms, _, _) -> ms) attributed;
    handler_ms = mean (fun (_, h, _) -> h) attributed;
    unattributed = List.length overflowed;
    counts }

(* ------------------------------------------------------------------ *)
(* Metrics *)

let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

let end_to_end_values ~setup_s (timed : Closed_loop.outcome) ~live =
  let s = Sample.summarize timed.Closed_loop.latencies_ms in
  [ ("setup_s", setup_s);
    ("p50_ms", s.Sample.median);
    ("p95_ms", s.Sample.p95);
    ("qps", float_of_int s.Sample.n /. timed.Closed_loop.wall_s);
    ("live_mb", live) ]

(* Layer means per attributed traced query. The named layers partition the
   client's latency: the wire (client latency minus the trace's [request]
   root, which runs from frame decode to handler return: so client encode,
   both socket trips, response write and client decode), the server before
   the handler (root minus the handler timer: decode, admission and the
   worker-pool queue), and the handler, split by span self time. The
   residual is what is left: time in spans no layer names, less the slice
   of the [dispatch] span outside the handler timer, which both the server
   and service layers count. [Server.stats] latency is not used: the
   server records it after the response write, on a writer thread that
   may only get the runtime lock once the next request is being handled. *)
let layer_values ~untraced_p50 (tr : traced) =
  let c = tr.counts in
  let ratio a b = Sample.ratio (float_of_int a) (float_of_int b) in
  let lat = Sample.summarize tr.outcome.Closed_loop.latencies_ms in
  let root = Layers.root_ms tr.layers in
  let wire = tr.client_ms -. root in
  let overhead = root -. tr.handler_ms in
  let spans = List.map (fun (b, name) -> (name, Layers.self_ms tr.layers b)) Layers.span_layers in
  let named = wire +. overhead +. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 spans in
  let span name = List.assoc name spans in
  (* Cold OPE walks are split between segments and decrypt in proportion
     to the tree-node draws each layer's spans carried. *)
  let draws = tr.layers.Layers.hgd_segments + tr.layers.Layers.hgd_decrypt in
  let cold_seg =
    float_of_int c.ope_walks *. ratio tr.layers.Layers.hgd_segments draws
  in
  let cold_dec = float_of_int c.ope_walks -. cold_seg in
  (* The counts cover every traced query, so the per-query means are
     scaled to all of them too. *)
  let total_ms name = span name *. float_of_int c.client_queries in
  let predicted =
    [ ( "proxy.segments",
        (cold_seg *. cold_ope_walk_ms)
        +. (Float.max 0.0 (float_of_int c.ope_encrypts -. cold_seg) *. memo_ope_encrypt_ms),
        total_ms "proxy.segments_ms" );
      ( "proxy.decrypt",
        (cold_dec *. cold_ope_walk_ms)
        +. (Float.max 0.0 (float_of_int c.ope_decrypts -. cold_dec) *. memo_mope_decrypt_ms),
        total_ms "proxy.decrypt_ms" );
      ("db.scan", float_of_int c.rows_scanned *. btree_row_ms, total_ms "db.scan_ms") ]
  in
  let values =
    [ ("net.wire_ms", wire); ("server.overhead_ms", overhead) ]
    @ spans
    @ [ ("proxy.fakes_per_real", ratio c.fake_queries c.real_pieces);
        ("proxy.requests_per_query", ratio c.server_requests c.client_queries);
        ("proxy.rows_fetched_per_query", ratio c.rows_fetched c.client_queries);
        ("proxy.useful_row_frac", ratio c.rows_delivered c.rows_fetched);
        ("proxy.segment_hit_rate", ratio c.seg_hits (c.seg_hits + c.seg_misses));
        ("db.plan_cache_hit_rate", ratio c.plan_hits (c.plan_hits + c.plan_misses));
        ("db.rows_scanned_per_query", ratio c.rows_scanned c.client_queries);
        ("db.index_ranges_per_request", ratio c.index_ranges c.server_requests);
        ("ope.decrypt_calls_per_query", ratio c.ope_decrypts c.client_queries);
        ("ope.encrypt_calls_per_query", ratio c.ope_encrypts c.client_queries) ]
    @ List.map
        (fun (layer, pred, measured) ->
          (layer ^ ".explained_frac", Sample.ratio pred measured))
        predicted
    @ [ ("trace.overhead_frac", Sample.ratio lat.Sample.median untraced_p50 -. 1.0);
        ("residual_frac", Sample.ratio (tr.client_ms -. named) tr.client_ms) ]
  in
  (values, predicted, lat)

(* ------------------------------------------------------------------ *)
(* Reporting *)

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None ->
    (match List.find_opt (fun (n, _, _, _) -> String.equal n name) per_layer with
    | Some (_, u, _, _) -> u
    | None -> "")

let metrics_json ?(prefix = "") values =
  Json.Obj
    (List.map
       (fun (name, v) ->
         ( prefix ^ name,
           Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of name)) ] ))
       values)

let result_json ~attempted ~failed metrics =
  Json.Obj
    [ ("correct", Json.Bool (failed = 0));
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ("metrics", metrics) ]

let print_layers values predicted (tr : traced) ~client_mean =
  Printf.printf "  %-32s %12s %8s  %-26s %s\n" "per-layer metric" "value" "share"
    "layer" "moves";
  List.iter
    (fun (name, unit, layer, moves) ->
      let v = List.assoc name values in
      let share =
        if String.equal unit "ms" then Printf.sprintf "%7.1f%%" (100.0 *. v /. client_mean)
        else ""
      in
      Printf.printf "  %-32s %12.4f %8s  %-26s %s\n" (name ^ " [" ^ unit ^ "]") v share
        layer moves)
    per_layer;
  Printf.printf "  unnamed spans: %.4f ms/query\n" (Layers.unknown_ms tr.layers);
  Printf.printf "  micro-benchmark cross-check (count x EXPERIMENTS.md constant):\n";
  List.iter
    (fun (layer, pred, measured) ->
      Printf.printf "    %-16s predicted %10.3f ms, measured %10.3f ms\n" layer pred
        measured)
    predicted

let run_workload opts w =
  let tally = { attempted = 0; failed = 0; errors = [] } in
  let repeats =
    if opts.quick || Option.equal Bool.equal opts.trace (Some true) then 1
    else setup_repeats
  in
  Printf.printf "== %s (%s; batch %d, %d connections, seed %d) ==\n%!" w.name w.label
    batch_size connections opts.seed;
  (* Each set-up is timed from its own start to the end of its warm-up and
     is followed by its share of the untraced pass, so the timed queries
     are spread over the whole run rather than one stretch of it: the
     host's speed drifts over seconds, and a wider window averages more of
     that drift away. All but the last stack are torn down again. *)
  let streams = streams opts (per_template * List.length templates) in
  let slice_s = opts.seconds /. float_of_int repeats in
  let rec set_up k setups slices =
    let t0 = Unix.gettimeofday () in
    let st = build w opts in
    match
      warm_up st tally;
      let setup = Unix.gettimeofday () -. t0 in
      (setup, untraced_pass st ~seconds:slice_s streams tally)
    with
    | exception e ->
      teardown st;
      raise e
    | setup, slice ->
      if k < repeats then begin
        teardown st;
        set_up (k + 1) (setup :: setups) (slice :: slices)
      end
      else (st, List.rev (setup :: setups), Closed_loop.concat (List.rev (slice :: slices)))
  in
  let st, setup_times, timed = set_up 1 [] [] in
  Fun.protect
    ~finally:(fun () -> teardown st)
    (fun () ->
      let setup_s = Mope_stats.Summary.median (Array.of_list setup_times) in
      Printf.printf "  setup_s %.3f (each: %s)\n%!" setup_s
        (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
      if Array.length timed.Closed_loop.latencies_ms = 0 then
        failwith (w.name ^ ": no query completed in the timed pass");
      let live = live_mb () in
      let e2e = end_to_end_values ~setup_s timed ~live in
      let s = Sample.summarize timed.Closed_loop.latencies_ms in
      Printf.printf
        "  untraced: %d queries in %.2f s; %d beyond p95\n" s.Sample.n
        timed.Closed_loop.wall_s s.Sample.beyond_p95;
      List.iter
        (fun (name, v) -> Printf.printf "  %-10s %12.4f %s\n" name v (unit_of name))
        e2e;
      let layer_part =
        if Option.equal Bool.equal opts.trace (Some false) then None
        else begin
          let tr = traced_pass st opts streams tally in
          let values, predicted, lat = layer_values ~untraced_p50:s.Sample.median tr in
          Printf.printf
            "  traced: %d queries, p50 %.3f ms, mean %.3f ms; %d left out of the layers \
             (span cap), attributed mean %.3f ms\n"
            lat.Sample.n lat.Sample.median lat.Sample.mean tr.unattributed tr.client_ms;
          print_layers values predicted tr ~client_mean:tr.client_ms;
          Some (values, tr)
        end
      in
      List.iter (fun e -> Printf.printf "  FAILED: %s\n" e) tally.errors;
      Printf.printf "  gate: %s (%d attempted, %d failed)\n%!"
        (if tally.failed = 0 then "pass" else "FAIL")
        tally.attempted tally.failed;
      let reported =
        match (opts.trace, layer_part) with
        | Some false, _ | _, None -> e2e
        | Some true, Some (values, _) -> values
        | None, Some (values, _) -> e2e @ values
      in
      let report =
        Json.Obj
          ([ ("workload", Json.Str w.name);
             ("seed", Json.Num (float_of_int opts.seed));
             ("seconds", Json.Num opts.seconds);
             ( "trace",
               Json.Str
                 (match opts.trace with
                 | None -> "both"
                 | Some true -> "1"
                 | Some false -> "0") );
             ("setup_s_each", Json.Arr (List.map (fun x -> Json.Num x) setup_times));
             ( "untraced",
               Json.Obj
                 [ ("queries", Json.Num (float_of_int s.Sample.n));
                   ("beyond_p95", Json.Num (float_of_int s.Sample.beyond_p95));
                   ("wall_s", Json.Num timed.Closed_loop.wall_s) ] );
             ("errors", Json.Arr (List.map (fun e -> Json.Str e) tally.errors));
             ( "result",
               result_json ~attempted:tally.attempted ~failed:tally.failed
                 (metrics_json reported) ) ]
          @
          match layer_part with
          | None -> []
          | Some (_, tr) ->
            [ ("traced_queries",
               Json.Num (float_of_int (Array.length tr.outcome.Closed_loop.latencies_ms)));
              ("traced_unattributed", Json.Num (float_of_int tr.unattributed)) ])
      in
      (tally, reported, report))

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 41 and seconds = ref (-1.0) in
  let trace = ref (-1) and quick = ref false and out = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME  run one workload (default: all)");
      ("--seed", Arg.Set_int seed, "N  instance-stream seed (default 41)");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed pass (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  report end-to-end (0) or per-layer (1) metrics");
      ("--quick", Arg.Set quick, " tiny data and passes, for the smoke check");
      ("--out", Arg.Set_string out, "PATH  also write the full report as JSON") ]
  in
  let usage =
    "suite.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] \
     [--out PATH]"
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let selected =
    if String.equal !workload "" then workloads
    else
      match List.find_opt (fun w -> String.equal w.name !workload) workloads with
      | Some w -> [ w ]
      | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  let trace =
    match !trace with
    | -1 -> None
    | 0 -> Some false
    | 1 -> Some true
    | _ ->
      prerr_endline "--trace takes 0 or 1";
      exit 2
  in
  let opts =
    { quick = !quick;
      seed = !seed;
      seconds = (if !seconds > 0.0 then !seconds else if !quick then 1.0 else 20.0);
      trace }
  in
  let runs = List.map (run_workload opts) selected in
  let attempted = List.fold_left (fun acc (t, _, _) -> acc + t.attempted) 0 runs in
  let failed = List.fold_left (fun acc (t, _, _) -> acc + t.failed) 0 runs in
  if not (String.equal !out "") then begin
    let oc = open_out !out in
    output_string oc
      (Json.to_string (Json.Obj [ ("runs", Json.Arr (List.map (fun (_, _, r) -> r) runs)) ]));
    output_char oc '\n';
    close_out oc
  end;
  let metrics =
    match runs with
    | [ (_, reported, _) ] -> metrics_json reported
    | _ ->
      Json.Obj
        (List.concat_map
           (fun (w, (_, reported, _)) ->
             match metrics_json ~prefix:(w.name ^ ".") reported with
             | Json.Obj kvs -> kvs
             | _ -> [])
           (List.combine selected runs))
  in
  print_endline (Json.to_string (result_json ~attempted ~failed metrics));
  exit (if failed = 0 then 0 else 1)
