(* Macro-benchmark for the multi-tenant frontend: per-tenant isolation
   under load, and the cost of serving through an online key rotation.

   Three phases over the same two-tenant registry (each tenant owns a
   full Encrypted_db/Proxy pipeline under its own Drbg-derived key):

   - solo: the quiet tenant runs the instance list alone — its baseline
     latency distribution.
   - storm: a noisy tenant hammers the dispatcher from several threads
     (eating Overloaded sheds as they come) while the quiet tenant runs
     the same instance list. The per-tenant in-flight budget and
     per-tenant locks are what keep the two distributions close; the
     p95 ratio is the isolation figure (target: < 2x the solo baseline;
     measure on an otherwise idle machine — on a single core a
     saturating neighbour contends for CPU and skews the ratio).
   - rotation: an online rotation streams the quiet tenant's rows to a
     fresh key generation while the same queries keep running through
     the dual-key read window; reports re-encryption throughput and the
     mid-rotation query latencies.

   Every query in every phase is checked byte for byte against the
   plaintext baseline before anything is reported.

   Writes BENCH_tenant.json: per phase — wall time, p50/p95/mean
   latency — plus the storm/solo p95 ratio, the noisy tenant's
   served/shed split, and the rotation's rows/s.

   Usage: dune exec bench/tenant.exe -- [--quick] [--seed SEED] [--out PATH] *)

open Mope_crypto
open Mope_workload
open Mope_system
open Mope_net
open Mope_tenant
module Summary = Mope_stats.Summary

let make_instances ~seed ~count =
  let rng = Mope_stats.Rng.create seed in
  List.init count (fun _ -> Tpch_queries.random_instance rng Tpch_queries.Q6)

let make_service tb =
  let make_enc ~key =
    Encrypted_db.create ~key ~window_lo:Tpch.window_lo
      ~date_domain:(Testbed.padded_domain ~rho:None) ~plain:(Testbed.plain tb)
      ~specs:Testbed.specs ()
  in
  let make_proxies enc =
    [ ( Tpch_queries.date_column Tpch_queries.Q6,
        Testbed.proxy_over enc ~template:Tpch_queries.Q6 ~rho:None ~seed:11L () ) ]
  in
  let registry =
    Registry.create ~master_key:"bench-root-key" ~make_enc ~make_proxies
      ~configs:
        [ { Registry.cfg_id = "quiet"; cfg_secret = "s-quiet" };
          { Registry.cfg_id = "noisy"; cfg_secret = "s-noisy" } ]
      ()
  in
  (registry, Tenant_service.create ~registry ())

let open_session h ~tenant ~secret =
  match h Wire.no_header (Wire.Open_session { tenant }) with
  | Wire.Session_challenge { nonce } -> (
    match
      h Wire.no_header
        (Wire.Authenticate { tenant; nonce; mac = Hmac.mac_hex ~key:secret nonce })
    with
    | Wire.Session_ok { token } ->
      { Wire.trace_id = ""; session = token; req_id = 0 }
    | _ -> failwith "handshake: expected Session_ok")
  | _ -> failwith "handshake: expected Session_challenge"

let request_of inst =
  Wire.Query
    { sql = inst.Tpch_queries.sql;
      date_column = Tpch_queries.date_column inst.Tpch_queries.template;
      date_lo = inst.Tpch_queries.date_lo;
      date_hi = inst.Tpch_queries.date_hi }

(* Run the instance list [rounds] times as [header]'s tenant, timing each
   query and gating every answer on the plaintext baseline. *)
let run_timed tb h header ~instances ~rounds ~phase =
  let lat = ref [] in
  let t0 = Unix.gettimeofday () in
  for _round = 1 to rounds do
    List.iter
      (fun inst ->
        let t = Unix.gettimeofday () in
        match h header (request_of inst) with
        | Wire.Rows r ->
          lat := (1000.0 *. (Unix.gettimeofday () -. t)) :: !lat;
          if Testbed.fingerprint r <> Testbed.fingerprint (Testbed.run_plain tb inst) then begin
            Printf.eprintf "FAIL (%s): result diverges from baseline for %s\n"
              phase inst.Tpch_queries.sql;
            exit 1
          end
        | Wire.Error { message; _ } ->
          Printf.eprintf "FAIL (%s): quiet tenant refused: %s\n" phase message;
          exit 1
        | _ ->
          Printf.eprintf "FAIL (%s): unexpected response\n" phase;
          exit 1)
      instances
  done;
  (Unix.gettimeofday () -. t0, Array.of_list (List.rev !lat))

let phase_json b name (wall, lat) =
  Printf.bprintf b
    "    \"%s\": {\n\
    \      \"wall_seconds\": %.3f,\n\
    \      \"queries\": %d,\n\
    \      \"latency_ms\": { \"mean\": %.3f, \"p50\": %.3f, \"p95\": %.3f, \
     \"max\": %.3f }\n\
    \    }"
    name wall (Array.length lat) (Summary.mean lat)
    (Summary.percentile lat 50.0) (Summary.percentile lat 95.0)
    (Array.fold_left Float.max 0.0 lat)

let () =
  let quick = ref false in
  let out = ref "BENCH_tenant.json" in
  let seed = ref 47 in
  let spec =
    [ ("--quick", Arg.Set quick, " small workload (CI smoke)");
      ("--seed", Arg.Set_int seed, "SEED  instance-selection seed (default \
                                    47)");
      ("--out", Arg.Set_string out, "PATH  output file (default \
                                     BENCH_tenant.json)") ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/tenant.exe [--quick] [--seed SEED] [--out PATH]";
  let sf = if !quick then 0.002 else 0.005 in
  let count = if !quick then 4 else 8 in
  let rounds = if !quick then 3 else 6 in
  let storm_threads = 4 in
  Printf.printf
    "tenant macro-benchmark (%s): sf=%g, seed=%d, %d instances x %d rounds, \
     %d storm threads\n%!"
    (if !quick then "quick" else "full")
    sf !seed count rounds storm_threads;
  let tb = Testbed.load ~sf ~seed:21L () in
  let registry, svc = make_service tb in
  let h = Tenant_service.handler svc in
  let quiet = open_session h ~tenant:"quiet" ~secret:"s-quiet" in
  let noisy = open_session h ~tenant:"noisy" ~secret:"s-noisy" in
  let instances = make_instances ~seed:(Int64.of_int !seed) ~count in

  Printf.printf "running solo baseline...\n%!";
  let solo = run_timed tb h quiet ~instances ~rounds ~phase:"solo" in

  Printf.printf "running two-tenant storm...\n%!";
  let stop = Atomic.make false in
  let noisy_served = Atomic.make 0 and noisy_shed = Atomic.make 0 in
  let storm_instances = make_instances ~seed:(Int64.of_int (!seed + 1)) ~count in
  let storm_worker () =
    while not (Atomic.get stop) do
      List.iter
        (fun inst ->
          if not (Atomic.get stop) then
            match h noisy (request_of inst) with
            | Wire.Rows _ -> Atomic.incr noisy_served
            | Wire.Error { code = Wire.Overloaded; _ } ->
              Atomic.incr noisy_shed
            | _ -> ())
        storm_instances
    done
  in
  let threads = List.init storm_threads (fun _ -> Thread.create storm_worker ()) in
  let storm = run_timed tb h quiet ~instances ~rounds ~phase:"storm" in
  Atomic.set stop true;
  List.iter Thread.join threads;

  Printf.printf "running queries through an online rotation...\n%!";
  (match h quiet (Wire.Rotate { tenant = "quiet"; status_only = false }) with
  | Wire.Rotation _ -> ()
  | _ ->
    prerr_endline "FAIL: rotation refused";
    exit 1);
  let rot_t0 = Unix.gettimeofday () in
  let rot_lat = ref [] in
  let rot_queries = ref 0 in
  let rec drain () =
    List.iter
      (fun inst ->
        let t = Unix.gettimeofday () in
        match h quiet (request_of inst) with
        | Wire.Rows r ->
          rot_lat := (1000.0 *. (Unix.gettimeofday () -. t)) :: !rot_lat;
          incr rot_queries;
          if Testbed.fingerprint r <> Testbed.fingerprint (Testbed.run_plain tb inst) then begin
            Printf.eprintf "FAIL (rotation): diverged mid-rotation for %s\n"
              inst.Tpch_queries.sql;
            exit 1
          end
        | _ ->
          prerr_endline "FAIL (rotation): query refused mid-rotation";
          exit 1)
      instances;
    match h quiet (Wire.Rotate { tenant = "quiet"; status_only = true }) with
    | Wire.Rotation { state = "rotating"; _ } -> drain ()
    | Wire.Rotation { generation; _ } -> generation
    | _ ->
      prerr_endline "FAIL (rotation): status refused";
      exit 1
  in
  let generation = drain () in
  Tenant_service.join_workers svc;
  let rot_wall = Unix.gettimeofday () -. rot_t0 in
  let rows_moved =
    List.fold_left
      (fun acc spec ->
        match Registry.find registry "quiet" with
        | Some t ->
          acc
          + Mope_db.Table.length
              (Mope_db.Database.table_exn
                 (Encrypted_db.server t.Registry.current.Registry.enc)
                 spec.Encrypted_db.table)
        | None -> acc)
      0 Testbed.specs
  in
  let p95 (_, lat) = Summary.percentile lat 95.0 in
  let ratio = p95 storm /. Float.max (p95 solo) 1e-9 in
  Printf.printf
    "  solo p95 %.2f ms, storm p95 %.2f ms (ratio %.2fx); noisy served %d, \
     shed %d\n%!"
    (p95 solo) (p95 storm) ratio (Atomic.get noisy_served)
    (Atomic.get noisy_shed);
  Printf.printf
    "  rotation: %d rows to generation %d in %.2fs (%.0f rows/s), %d queries \
     served mid-rotation\n%!"
    rows_moved generation rot_wall
    (float rows_moved /. Float.max rot_wall 1e-9)
    !rot_queries;
  let b = Buffer.create 2048 in
  Printf.bprintf b
    "{\n\
    \  \"bench\": \"tenant\",\n\
    \  \"scale\": \"%s\",\n\
    \  \"sf\": %g,\n\
    \  \"seed\": %d,\n\
    \  \"storm_threads\": %d,\n\
    \  \"phases\": {\n"
    (if !quick then "quick" else "full")
    sf !seed storm_threads;
  phase_json b "solo" solo;
  Buffer.add_string b ",\n";
  phase_json b "storm" storm;
  Buffer.add_string b ",\n";
  phase_json b "rotation"
    (rot_wall, Array.of_list (List.rev !rot_lat));
  Printf.bprintf b
    "\n\
    \  },\n\
    \  \"p95_ratio_storm_vs_solo\": %.3f,\n\
    \  \"noisy\": { \"served\": %d, \"shed\": %d },\n\
    \  \"rotation\": { \"rows_moved\": %d, \"rows_per_s\": %.1f, \
     \"generation\": %d }\n\
     }\n"
    ratio (Atomic.get noisy_served) (Atomic.get noisy_shed) rows_moved
    (float rows_moved /. Float.max rot_wall 1e-9)
    generation;
  let oc = open_out !out in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "wrote %s\n%!" !out
