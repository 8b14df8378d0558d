(* Macro-benchmarks of the served system. Every section sends its queries
   the same way: a [Client] over loopback TCP into a [Server].

   - serving: [Service] at rho = m (alpha = 1, no fake queries). The
     caching fast path on (plan cache, proxy segment cache, OPE encrypt
     array and decrypt memo) versus off (plan caching off, segment cache
     off, twin built with [ope_cache:false]), each replaying the pool in
     lockstep. Then one warmed cached stack: the pipelined client (wire
     v8, [Client.query_batch]) swept over depth x connections, each point
     between two warm lockstep replays (windows) and compared with the
     pair. A sweep point's [batch_*] latency is the whole pipelined
     window's round trip, its [amortized_*] latency that divided by the
     window's size; lockstep_warm pools every lockstep window.
   - cluster: [Service] whose proxies fetch through [Topology.fetch_many]
     over K in {1, 2, 4} loopback shard primaries, rho = m. K = 1 is the
     in-sweep baseline, so the ratios price the fan-out itself.
   - tenant: [Tenant_service] with two tenants under their own derived
     keys, at QueryU, sessions opened by [Client.open_session]. A quiet
     tenant replays its pool alone (solo), then while a noisy tenant
     storms from four connections (storm; the p95 ratio is the isolation
     figure), then while an online key rotation moves its rows
     (rotation).

   Instances come from [Gate.pool], timed loops run on [Closed_loop.run],
   and every answer is compared byte for byte with the plaintext engine
   ([Gate.check]) after its latency is taken. Each section writes
   BENCH_<section>.json, a {"runs": [...]} report in the shape
   perfbench/suite.exe --out writes: one run per configuration, naming
   its operating point, with a {correct, attempted, failed, metrics}
   result.

   The exit status is 1 when a check fails:
   - a wrong answer or failed operation, in any run;
   - a section that did not complete, or a run missing from its report;
   - serving: plan- or segment-cache use in the uncached config, a
     cached config without hits on both, a cached-vs-uncached wall
     speedup below 1.2, or a pipelined point below 0.7x the rows/s of
     the lockstep windows run just before and after it;
   - tenant: a rotation that did not cut over.

   Usage: macro.exe [SECTION...] [--quick] [--seed N] [--out DIR]
   SECTION is serving, cluster or tenant (default: all three, in that
   order). --seed sets every section's instance seed (defaults: serving
   41, cluster 43, tenant 47); --out is the directory the reports are
   written to (default: the current one). *)

open Mope_workload
open Mope_system
open Mope_net
open Perfbench_harness
module Metrics = Mope_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Runs, reports and checks *)

type run = {
  name : string;
  point : string;  (* the operating point *)
  outcome : Closed_loop.outcome;
  metrics : (string * float * string) list;  (* name, value, unit *)
}

(* A requirement on one metric of one run. *)
type bound = { on : string; metric : string; holds : float -> bool; rule : string }

type report = { runs : run list; required : string list; bounds : bound list }

let bound on metric rule holds = { on; metric; holds; rule }

let lookup metrics name =
  Option.value ~default:0.0
    (List.find_map (fun (n, v, _) -> if String.equal n name then Some v else None) metrics)

let value r name = lookup r.metrics name

let extend r metrics = { r with metrics = r.metrics @ metrics }

let find rep name = List.find_opt (fun r -> String.equal r.name name) rep.runs

let problems section rep =
  let fail fmt = Printf.ksprintf (fun s -> Some (section ^ "/" ^ s)) fmt in
  List.filter_map
    (fun name -> if Option.is_none (find rep name) then fail "%s: run missing" name else None)
    rep.required
  @ List.filter_map
      (fun r ->
        let o = r.outcome in
        if o.Closed_loop.failed = 0 then None
        else
          fail "%s: %d of %d operations failed: %s" r.name o.Closed_loop.failed
            o.Closed_loop.attempted
            (String.concat "; " o.Closed_loop.errors))
      rep.runs
  @ List.filter_map
      (fun b ->
        match find rep b.on with
        | None -> None (* reported as missing above *)
        | Some r ->
          let v = value r b.metric in
          if b.holds v then None else fail "%s: %s is %g, must be %s" b.on b.metric v b.rule)
      rep.bounds

let run_json ~scale ~sf ~seed r =
  let o = r.outcome in
  let num x = Json.Num x and int n = Json.Num (float_of_int n) in
  Json.Obj
    [ ("workload", Json.Str r.name);
      ("operating_point", Json.Str r.point);
      ("scale", Json.Str scale);
      ("sf", num sf);
      ("seed", int seed);
      ("errors", Json.Arr (List.map (fun e -> Json.Str e) o.Closed_loop.errors));
      ( "result",
        Json.Obj
          [ ("correct", Json.Bool (o.Closed_loop.failed = 0));
            ("attempted", int o.Closed_loop.attempted);
            ("failed", int o.Closed_loop.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit) ]))
                   r.metrics) ) ] ) ]

let show r =
  Printf.printf "  %-18s %s\n%!" r.name
    (String.concat ", "
       (List.map (fun (n, v, _) -> Printf.sprintf "%s %.4g" n v) r.metrics));
  r

(* ------------------------------------------------------------------ *)
(* Measurements *)

(* Queries and rows delivered by a loop's gated answers. *)
type tally = { queries : int Atomic.t; rows : int Atomic.t }

let tally () = { queries = Atomic.make 0; rows = Atomic.make 0 }

let count t (r : Mope_db.Exec.result) =
  Atomic.incr t.queries;
  ignore (Atomic.fetch_and_add t.rows (List.length r.Mope_db.Exec.rows))

let throughput t (o : Closed_loop.outcome) =
  let rows = float_of_int (Atomic.get t.rows) in
  [ ("wall_s", o.Closed_loop.wall_s, "s");
    ("queries", float_of_int (Atomic.get t.queries), "queries");
    ("rows_delivered", rows, "rows");
    ("rows_per_s", Sample.ratio rows o.Closed_loop.wall_s, "rows/s") ]

let latency ?(prefix = "") samples =
  if Array.length samples = 0 then []
  else
    let s = Sample.summarize samples in
    [ (prefix ^ "p50_ms", s.Sample.median, "ms");
      (prefix ^ "p95_ms", s.Sample.p95, "ms");
      (prefix ^ "mean_ms", s.Sample.mean, "ms");
      (prefix ^ "beyond_p95", float_of_int s.Sample.beyond_p95, "samples") ]

(* ------------------------------------------------------------------ *)
(* The served stack *)

let batch_size = 25

(* m, the unpadded MOPE domain in days. *)
let domain = Testbed.padded_domain ~rho:None
let ceiling = Printf.sprintf "rho = m = %d (alpha = 1, no fake queries)" domain
let queryu = "QueryU (uniform completion, no period)"

(* One proxy per date column, each with its fixed seed; Q14 shares Q6's. *)
let proxy_seeds = [ (Tpch_queries.Q6, 17L); (Tpch_queries.Q4, 19L) ]

let proxies tb ?fetch_many ?(caching = true) () =
  List.map
    (fun (template, seed) ->
      ( Tpch_queries.date_column template,
        Testbed.proxy tb ~template ~rho:(Some domain) ~batch_size ~caching
          ~ope_cache:caching ?fetch_many ~seed () ))
    proxy_seeds

let pool tb ~seed ~per_template templates =
  Gate.create ~plain:(Testbed.run_plain tb)
    (Gate.pool ~seed:(Int64.of_int seed) ~per_template templates)

(* A [Server] on an ephemeral loopback port for the duration of [f]. *)
let serve handler f =
  let server = Server.start ~handler () in
  Fun.protect ~finally:(fun () -> Server.shutdown server) (fun () -> f (Server.port server))

let service proxies = Service.handler (Service.create ~proxies ())

(* A closed loop waits for every answer, and a QueryU query under the
   tenant storm takes seconds: the client's default 10 s timeout would
   abandon queries the server still runs and send the next ones. *)
let timeout = 120.0

let with_client ?request_retries port f = Client.with_client ~port ~timeout ?request_retries f

let column inst = Tpch_queries.date_column inst.Tpch_queries.template

(* One pool query: the latency covers the [Client.query] call alone. *)
let query gate t client i =
  let inst = Gate.instance gate i in
  let t0 = Unix.gettimeofday () in
  let r =
    Client.query client ~sql:inst.Tpch_queries.sql ~date_column:(column inst)
      ~date_lo:inst.Tpch_queries.date_lo ~date_hi:inst.Tpch_queries.date_hi ()
  in
  let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  Gate.check gate i r;
  count t r;
  ms

(* [rounds] replays of the pool in pool order, one query in flight. *)
let replay gate t client ~rounds =
  let n = Gate.size gate in
  Closed_loop.run ~conns:1 ~stop:(Closed_loop.Count (rounds * n)) (fun ~conn:_ ~iter ->
      query gate t client (iter mod n))

(* ------------------------------------------------------------------ *)
(* serving *)

(* Cache counters as an operator reads them: from the server's metrics
   JSON over the Stats wire op. *)
let cache_metrics client =
  let json = (Client.stats client).Wire.metrics_json in
  let read name = float_of_int (Option.value ~default:0 (Metrics.json_counter json name)) in
  List.concat_map
    (fun layer ->
      let hits = read ("mope_" ^ layer ^ "_hits_total")
      and misses = read ("mope_" ^ layer ^ "_misses_total") in
      [ (layer ^ "_hits", hits, "lookups");
        (layer ^ "_misses", misses, "lookups");
        (layer ^ "_hit_rate", Sample.ratio hits (hits +. misses), "ratio") ])
    [ "plan_cache"; "segment_cache" ]

(* A serving stack with every cache layer on or off. Both proxies share
   one encrypted twin, hence one server database. *)
let serving_stack tb ~caching f =
  let proxies = proxies tb ~caching () in
  Mope_db.Database.set_plan_caching (Proxy.server_database (snd (List.hd proxies))) caching;
  serve (service proxies) f

let serving_config tb gate ~rounds ~caching =
  serving_stack tb ~caching (fun port ->
      (* The registry is process-wide: each config counts from zero. *)
      Metrics.reset_all ();
      Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Metrics.set_enabled false)
        (fun () ->
          with_client port (fun client ->
              let t = tally () in
              let o = replay gate t client ~rounds in
              { name = (if caching then "cached" else "uncached");
                point = ceiling;
                outcome = o;
                metrics =
                  throughput t o @ latency o.Closed_loop.latencies_ms @ cache_metrics client })))

let rec chunks n = function
  | [] -> []
  | l -> List.filteri (fun i _ -> i < n) l :: chunks n (List.filteri (fun i _ -> i >= n) l)

(* Connection [c]'s share of [rounds] replays of the pool, dealt
   round-robin over [conns] connections, as windows of at most [depth]
   queries on one date column ([Client.query_batch] pipelines one). *)
let windows gate ~rounds ~depth ~conns c =
  let n = Gate.size gate in
  let mine =
    List.filter_map
      (fun j -> if j mod conns = c then Some (j mod n) else None)
      (List.init (rounds * n) Fun.id)
  in
  let on col i = String.equal (column (Gate.instance gate i)) col in
  Array.of_list
    (List.concat_map
       (fun (template, _) ->
         let col = Tpch_queries.date_column template in
         List.map (fun w -> (col, w)) (chunks depth (List.filter (on col) mine)))
       proxy_seeds)

let pipelined_point gate ~port ~rounds ~depth ~conns =
  let share = Array.init conns (windows gate ~rounds ~depth ~conns) in
  let per_conn = Array.length share.(0) in
  (* Equal shares: the pool size is a multiple of every connection count. *)
  if Array.exists (fun w -> Array.length w <> per_conn) share then
    invalid_arg "pipelined_point: unequal connection shares";
  let clients = Array.init conns (fun _ -> Client.connect ~port ~timeout ()) in
  Fun.protect
    ~finally:(fun () -> Array.iter Client.close clients)
    (fun () ->
      let t = tally () in
      let lock = Mutex.create () and amortized = ref [] in
      let o =
        Closed_loop.run ~conns ~stop:(Closed_loop.Count per_conn) (fun ~conn ~iter ->
            let date_column, idxs = share.(conn).(iter) in
            let queries =
              List.map
                (fun i ->
                  let inst = Gate.instance gate i in
                  (inst.Tpch_queries.sql, inst.Tpch_queries.date_lo, inst.Tpch_queries.date_hi))
                idxs
            in
            let t0 = Unix.gettimeofday () in
            let outcomes = Client.query_batch clients.(conn) ~depth ~date_column ~queries () in
            let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
            List.iter2
              (fun i -> function
                | Ok r ->
                  Gate.check gate i r;
                  count t r
                | Error e -> raise (Mope_error.Error e))
              idxs outcomes;
            Mutex.protect lock (fun () ->
                amortized := (ms /. float_of_int (List.length idxs)) :: !amortized);
            ms)
      in
      { name = Printf.sprintf "pipelined_d%d_c%d" depth conns;
        point = ceiling;
        outcome = o;
        metrics =
          [ ("depth", float_of_int depth, "requests");
            ("connections", float_of_int conns, "connections") ]
          @ throughput t o
          @ latency ~prefix:"batch_" o.Closed_loop.latencies_ms
          @ latency ~prefix:"amortized_" (Array.of_list (List.rev !amortized)) })

(* Lockstep windows, each a (tally, outcome) replay, pooled into one run:
   rows over their summed wall time, latencies in window order. *)
let lockstep_run name windows =
  let t = tally () in
  List.iter
    (fun (w, _) ->
      ignore (Atomic.fetch_and_add t.queries (Atomic.get w.queries));
      ignore (Atomic.fetch_and_add t.rows (Atomic.get w.rows)))
    windows;
  let o = Closed_loop.concat (List.map snd windows) in
  { name;
    point = ceiling;
    outcome = o;
    metrics =
      (("windows", float_of_int (List.length windows), "windows") :: throughput t o)
      @ latency o.Closed_loop.latencies_ms }

let versus lockstep p =
  let ratio mine theirs = Sample.ratio (value p mine) (value lockstep theirs) in
  extend p
    [ ("lockstep_rows_per_s", value lockstep "rows_per_s", "rows/s");
      ("vs_lockstep_rows_per_s", ratio "rows_per_s" "rows_per_s", "ratio");
      ("vs_lockstep_amortized_p95", ratio "amortized_p95_ms" "p95_ms", "ratio") ]

(* One warmed cached stack. Lockstep windows alternate with the sweep
   points, and each point is judged against the two windows run just
   before and just after it, so a drift in the host's speed over the sweep
   moves a point and its reference together. The lockstep_warm run pools
   every window. *)
let serving_pipelined tb gate ~rounds ~depths ~conns =
  serving_stack tb ~caching:true (fun port ->
      with_client port (fun client ->
          (* Warm every cache layer, so each window and point measures the
             steady state rather than whichever ran first. *)
          for i = 0 to Gate.size gate - 1 do
            ignore (query gate (tally ()) client i)
          done;
          let window () =
            let t = tally () in
            (t, replay gate t client ~rounds)
          in
          let sweep = List.concat_map (fun d -> List.map (fun c -> (d, c)) conns) depths in
          let first = window () in
          let _, windows, points =
            List.fold_left
              (fun (before, windows, points) (depth, conns) ->
                let p = pipelined_point gate ~port ~rounds ~depth ~conns in
                let after = window () in
                let p = show (versus (lockstep_run "adjacent" [ before; after ]) p) in
                (after, after :: windows, p :: points))
              (first, [ first ], []) sweep
          in
          (show (lockstep_run "lockstep_warm" (List.rev windows)), List.rev points)))

let serving tb ~quick ~seed =
  let per_template, rounds = if quick then (2, 3) else (4, 6) in
  let depths, conns = if quick then ([ 1; 8 ], [ 1; 2 ]) else ([ 1; 4; 8; 16 ], [ 1; 2; 4 ]) in
  let gate = pool tb ~seed ~per_template (List.map fst proxy_seeds) in
  let uncached = show (serving_config tb gate ~rounds ~caching:false) in
  let cached = serving_config tb gate ~rounds ~caching:true in
  let speedup name = Sample.ratio (value uncached name) (value cached name) in
  let cached =
    show
      (extend cached
         (List.map
            (fun (label, name) -> ("speedup_" ^ label, speedup name, "ratio"))
            [ ("wall", "wall_s"); ("mean", "mean_ms"); ("p50", "p50_ms"); ("p95", "p95_ms") ]))
  in
  (* More replays for the sweep: once warm a query is cheap, and each
     point should integrate over enough wall time to be stable. *)
  let lockstep, points = serving_pipelined tb gate ~rounds:(rounds * 5) ~depths ~conns in
  let best =
    List.fold_left
      (fun acc p ->
        match acc with
        | Some b when value b "rows_per_s" >= value p "rows_per_s" -> acc
        | _ -> Some p)
      None points
  in
  let lockstep =
    match best with
    | None -> lockstep
    | Some b ->
      extend lockstep
        [ ("best_depth", value b "depth", "requests");
          ("best_connections", value b "connections", "connections");
          ("best_rows_per_s", value b "rows_per_s", "rows/s");
          ("best_vs_lockstep_rows_per_s", value b "vs_lockstep_rows_per_s", "ratio") ]
  in
  { runs = [ uncached; cached; lockstep ] @ points;
    required = [ "uncached"; "cached"; "lockstep_warm" ] @ List.map (fun p -> p.name) points;
    bounds =
      List.map
        (fun m -> bound "uncached" m "0" (Float.equal 0.0))
        [ "plan_cache_hits"; "plan_cache_misses"; "segment_cache_hits"; "segment_cache_misses" ]
      @ List.map
          (fun m -> bound "cached" m "> 0" (fun v -> v > 0.0))
          [ "plan_cache_hits"; "segment_cache_hits" ]
      @ [ bound "cached" "speedup_wall" ">= 1.2" (fun v -> v >= 1.2) ]
      @ List.map
          (fun p -> bound p.name "vs_lockstep_rows_per_s" ">= 0.7" (fun v -> v >= 0.7))
          points }

(* ------------------------------------------------------------------ *)
(* cluster *)

let with_tmp_dir f =
  let dir = Filename.temp_file "mope_macro_bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let cluster_config tb gate ~rounds ~shards =
  let enc = Testbed.encrypted_for tb ~rho:(Some domain) in
  with_tmp_dir (fun wal_dir ->
      let topo = Mope_cluster.Topology.launch ~enc ~shards ~replicas:0 ~wal_dir () in
      Fun.protect
        ~finally:(fun () -> Mope_cluster.Topology.shutdown topo)
        (fun () ->
          serve
            (service (proxies tb ~fetch_many:(Mope_cluster.Topology.fetch_many topo) ()))
            (fun port ->
              with_client port (fun client ->
                  let t = tally () in
                  let o = replay gate t client ~rounds in
                  { name = Printf.sprintf "K=%d" shards;
                    point = ceiling;
                    outcome = o;
                    metrics =
                      (("shards", float_of_int shards, "shards") :: throughput t o)
                      @ latency o.Closed_loop.latencies_ms }))))

let cluster tb ~quick ~seed =
  let per_template, rounds = if quick then (2, 2) else (4, 5) in
  let gate =
    pool tb ~seed ~per_template [ Tpch_queries.Q6; Tpch_queries.Q14; Tpch_queries.Q4 ]
  in
  let single = show (cluster_config tb gate ~rounds ~shards:1) in
  let fanned =
    List.map
      (fun shards ->
        let r = cluster_config tb gate ~rounds ~shards in
        let speedup name = Sample.ratio (value single name) (value r name) in
        show
          (extend r
             [ ("speedup_wall", speedup "wall_s", "ratio");
               ("speedup_p95", speedup "p95_ms", "ratio") ]))
      [ 2; 4 ]
  in
  { runs = single :: fanned; required = [ "K=1"; "K=2"; "K=4" ]; bounds = [] }

(* ------------------------------------------------------------------ *)
(* tenant *)

let tenant_secrets = [ ("quiet", "s-quiet"); ("noisy", "s-noisy") ]
let storm_conns = 4

(* The noisy tenant runs in slices of this length until the quiet
   tenant's storm run is over. *)
let storm_slice_s = 1.0

let shed_prefix = "server error (" ^ Wire.error_code_to_string Wire.Overloaded ^ ")"

(* A connection with an open session of [tenant], for the duration of [f]. *)
let with_session ~port ?request_retries tenant f =
  with_client ?request_retries port (fun client ->
      ignore (Client.open_session client ~tenant ~secret:(List.assoc tenant tenant_secrets) ());
      f client)

let rec with_sessions ~port ?request_retries tenant n f =
  if n = 0 then f []
  else
    with_session ~port ?request_retries tenant (fun c ->
        with_sessions ~port ?request_retries tenant (n - 1) (fun cs -> f (c :: cs)))

(* The noisy tenant's storm, every connection sending its next query as
   soon as the last returned, until [over] is set. The clients make one
   attempt per query, so an [Overloaded] answer is one shed, counted in
   [shed] rather than as a failure. *)
let storm gate t clients ~shed ~over =
  let n = Gate.size gate in
  let next = Array.make (Array.length clients) 0 in
  let op ~conn ~iter:_ =
    let i = next.(conn) mod n in
    next.(conn) <- next.(conn) + 1;
    let t0 = Unix.gettimeofday () in
    match query gate t clients.(conn) i with
    | ms -> ms
    | exception Mope_error.Error e
      when String.starts_with ~prefix:shed_prefix e.Mope_error.msg ->
      Atomic.incr shed;
      1000.0 *. (Unix.gettimeofday () -. t0)
  in
  let rec slices acc =
    if Atomic.get over then Closed_loop.concat (List.rev acc)
    else
      let deadline = Unix.gettimeofday () +. storm_slice_s in
      slices
        (Closed_loop.run ~conns:(Array.length clients) ~stop:(Closed_loop.Deadline deadline) op
        :: acc)
  in
  slices []

(* [rounds] replays of the quiet tenant's pool while the noisy tenant
   storms: the quiet and the noisy outcome. *)
let under_storm ~port ~rounds (quiet_gate, quiet_t, quiet) (noisy_gate, noisy_t) ~shed =
  with_sessions ~port ~request_retries:0 "noisy" storm_conns (fun clients ->
      let over = Atomic.make false and noisy = ref None in
      let storm_thread =
        Thread.create
          (fun () -> noisy := Some (storm noisy_gate noisy_t (Array.of_list clients) ~shed ~over))
          ()
      in
      let quiet_run =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set over true;
            Thread.join storm_thread)
          (fun () -> replay quiet_gate quiet_t quiet ~rounds)
      in
      match !noisy with
      | Some o -> (quiet_run, o)
      | None -> failwith "the noisy tenant's storm did not finish")

(* Queries while an online rotation of [tenant] runs: pool passes until a
   status poll after one says the rotation is over. *)
let rotation_passes gate t client ~tenant =
  let rec pass acc =
    let acc = replay gate t client ~rounds:1 :: acc in
    let st = Client.rotate client ~status_only:true ~tenant () in
    if String.equal st.Client.state "rotating" then pass acc
    else (Closed_loop.concat (List.rev acc), st.Client.generation)
  in
  pass []

let rows_held registry tenant =
  match Mope_tenant.Registry.find registry tenant with
  | None -> 0
  | Some t ->
    let server = Encrypted_db.server t.Mope_tenant.Registry.current.Mope_tenant.Registry.enc in
    List.fold_left
      (fun acc spec ->
        acc + Mope_db.Table.length (Mope_db.Database.table_exn server spec.Encrypted_db.table))
      0 Testbed.specs

let tenant_registry tb =
  let make_enc ~key =
    Encrypted_db.create ~key ~window_lo:Tpch.window_lo ~date_domain:domain
      ~plain:(Testbed.plain tb) ~specs:Testbed.specs ()
  in
  let make_proxies enc =
    [ ( Tpch_queries.date_column Tpch_queries.Q6,
        Testbed.proxy_over enc ~template:Tpch_queries.Q6 ~rho:None ~seed:11L () ) ]
  in
  Mope_tenant.Registry.create ~master_key:"bench-root-key" ~make_enc ~make_proxies
    ~configs:
      (List.map
         (fun (cfg_id, cfg_secret) -> { Mope_tenant.Registry.cfg_id; cfg_secret })
         tenant_secrets)
    ()

let phase name ?wall_s t (o : Closed_loop.outcome) =
  { name;
    point = queryu;
    outcome = o;
    metrics =
      [ ("wall_s", Option.value ~default:o.Closed_loop.wall_s wall_s, "s");
        ("queries", float_of_int (Atomic.get t.queries), "queries") ]
      @ latency o.Closed_loop.latencies_ms }

let tenant tb ~quick ~seed =
  let per_template, rounds = if quick then (4, 3) else (8, 6) in
  let quiet_gate = pool tb ~seed ~per_template [ Tpch_queries.Q6 ] in
  let noisy_gate = pool tb ~seed:(seed + 1) ~per_template [ Tpch_queries.Q6 ] in
  let registry = tenant_registry tb in
  let svc = Mope_tenant.Tenant_service.create ~registry () in
  serve (Mope_tenant.Tenant_service.handler svc) (fun port ->
      with_session ~port "quiet" (fun quiet ->
          let solo_t = tally () in
          let solo = show (phase "solo" solo_t (replay quiet_gate solo_t quiet ~rounds)) in
          let storm_t = tally () and noisy_t = tally () and shed = Atomic.make 0 in
          let storm_run, noisy =
            under_storm ~port ~rounds (quiet_gate, storm_t, quiet) (noisy_gate, noisy_t) ~shed
          in
          let storm = phase "storm" storm_t storm_run in
          let p95_ratio = Sample.ratio (value storm "p95_ms") (value solo "p95_ms") in
          let storm = show (extend storm [ ("p95_vs_solo", p95_ratio, "ratio") ]) in
          let noisy =
            show
              { name = "noisy";
                point = queryu;
                outcome = noisy;
                metrics =
                  [ ("connections", float_of_int storm_conns, "connections");
                    ("wall_s", noisy.Closed_loop.wall_s, "s");
                    ("served", float_of_int (Atomic.get noisy_t.queries), "queries");
                    ("shed", float_of_int (Atomic.get shed), "queries") ] }
          in
          ignore (Client.rotate quiet ~tenant:"quiet" ());
          let t0 = Unix.gettimeofday () in
          let rot_t = tally () in
          let during, generation = rotation_passes quiet_gate rot_t quiet ~tenant:"quiet" in
          Mope_tenant.Tenant_service.join_workers svc;
          let wall_s = Unix.gettimeofday () -. t0 in
          let moved = float_of_int (rows_held registry "quiet") in
          let rotation =
            show
              (extend (phase "rotation" ~wall_s rot_t during)
                 [ ("rows_moved", moved, "rows");
                   ("rows_per_s", Sample.ratio moved wall_s, "rows/s");
                   ("generation", float_of_int generation, "generation") ])
          in
          { runs = [ solo; storm; noisy; rotation ];
            required = [ "solo"; "storm"; "noisy"; "rotation" ];
            bounds = [ bound "rotation" "generation" ">= 1 (cut over)" (fun g -> g >= 1.0) ] }))

(* ------------------------------------------------------------------ *)

let sections =
  [ ("serving", (41, serving)); ("cluster", (43, cluster)); ("tenant", (47, tenant)) ]

let () =
  let quick = ref false and seed = ref None and out = ref "." and chosen = ref [] in
  let spec =
    [ ("--quick", Arg.Set quick, " small workloads (the smoke check)");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N  instance seed of every section");
      ("--out", Arg.Set_string out, "DIR  where BENCH_<section>.json go (default .)") ]
  in
  let usage = "macro.exe [serving|cluster|tenant ...] [--quick] [--seed N] [--out DIR]" in
  Arg.parse spec
    (fun s ->
      if List.mem_assoc s sections then chosen := !chosen @ [ s ]
      else raise (Arg.Bad ("unknown section " ^ s)))
    usage;
  let selected =
    List.filter (fun (name, _) -> !chosen = [] || List.mem name !chosen) sections
  in
  let scale = if !quick then "quick" else "full" in
  let sf = if !quick then 0.002 else 0.005 in
  let tb = Testbed.load ~sf ~seed:21L () in
  let problems =
    List.concat_map
      (fun (name, (default_seed, section)) ->
        let seed = Option.value ~default:default_seed !seed in
        Printf.printf "== %s (%s: sf %g, seed %d) ==\n%!" name scale sf seed;
        match section tb ~quick:!quick ~seed with
        | exception e -> [ name ^ ": did not complete: " ^ Closed_loop.describe e ]
        | rep ->
          let path = Filename.concat !out ("BENCH_" ^ name ^ ".json") in
          Out_channel.with_open_bin path (fun oc ->
              output_string oc
                (Json.to_string
                   (Json.Obj [ ("runs", Json.Arr (List.map (run_json ~scale ~sf ~seed) rep.runs)) ]));
              output_char oc '\n');
          Printf.printf "wrote %s\n%!" path;
          problems name rep)
      selected
  in
  List.iter (fun p -> prerr_endline ("FAIL " ^ p)) problems;
  exit (if problems = [] then 0 else 1)
