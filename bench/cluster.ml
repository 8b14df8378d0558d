(* Macro-benchmark for the sharded cluster: the scatter-gather serving
   path (proxy -> coordinator -> K loopback shard stores over wire v5)
   swept over K in {1, 2, 4}.

   Each configuration partitions the same encrypted TPC-H twin over K
   shard primaries, runs the same instance list through proxies whose
   fetch seam is the coordinator's scatter-gather, and times the query
   loop. K = 1 is the single-store baseline, so the per-K ratios price
   the fan-out itself (threading, per-shard statements, ordered merge)
   against the smaller per-shard scans. Every configuration's answers
   are checked byte for byte against the plaintext baseline before
   anything is reported.

   Writes BENCH_cluster.json: per K — wall time, rows/s, p50/p95/mean
   latency — plus the K>1 speedups over K=1. The instance-selection seed
   is recorded so a run can be reproduced exactly.

   Usage: dune exec bench/cluster.exe -- [--quick] [--seed SEED] [--out PATH] *)

open Mope_workload
open Mope_system
open Mope_cluster
module Summary = Mope_stats.Summary

type measured = {
  wall : float;
  latencies_ms : float array;
  rows_delivered : int;
}

let templates = [ Tpch_queries.Q6; Tpch_queries.Q14; Tpch_queries.Q4 ]

let make_instances ~seed ~per_template =
  let rng = Mope_stats.Rng.create seed in
  List.concat_map
    (fun template ->
      List.init per_template (fun _ ->
          Tpch_queries.random_instance rng template))
    templates

let with_tmp_dir f =
  let dir = Filename.temp_file "mope_cluster_bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> Sys.remove (Filename.concat dir name))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let run_config tb ~shards ~instances ~rounds =
  let rho = Some (Testbed.padded_domain ~rho:None) in
  let enc = Testbed.encrypted_for tb ~rho in
  with_tmp_dir (fun wal_dir ->
      let topo = Topology.launch ~enc ~shards ~replicas:0 ~wal_dir () in
      Fun.protect
        ~finally:(fun () -> Topology.shutdown topo)
        (fun () ->
          let make_proxy template seed =
            Testbed.proxy tb ~template ~rho ~batch_size:25
              ~fetch_many:(Topology.fetch_many topo) ~seed ()
          in
          let proxies =
            [ ( Tpch_queries.date_column Tpch_queries.Q6,
                make_proxy Tpch_queries.Q6 17L );
              ( Tpch_queries.date_column Tpch_queries.Q4,
                make_proxy Tpch_queries.Q4 19L ) ]
          in
          let run inst =
            let col = Tpch_queries.date_column inst.Tpch_queries.template in
            Testbed.run_encrypted (List.assoc col proxies) inst
          in
          let lat = ref [] in
          let rows = ref 0 in
          let t0 = Unix.gettimeofday () in
          for _round = 1 to rounds do
            List.iter
              (fun inst ->
                let t = Unix.gettimeofday () in
                let r = run inst in
                lat := (1000.0 *. (Unix.gettimeofday () -. t)) :: !lat;
                rows := !rows + List.length r.Mope_db.Exec.rows)
              instances
          done;
          let wall = Unix.gettimeofday () -. t0 in
          (* Post-timing correctness gate: the scatter-gather must still be
             byte-identical to the plaintext baseline on every instance. *)
          List.iter
            (fun inst ->
              if Testbed.fingerprint (run inst) <> Testbed.fingerprint (Testbed.run_plain tb inst)
              then begin
                Printf.eprintf
                  "FAIL (K=%d): merged result diverges from baseline for %s\n"
                  shards inst.Tpch_queries.sql;
                exit 1
              end)
            instances;
          { wall;
            latencies_ms = Array.of_list (List.rev !lat);
            rows_delivered = !rows }))

let config_json b shards m =
  let lat = m.latencies_ms in
  Printf.bprintf b
    "    \"K=%d\": {\n\
    \      \"shards\": %d,\n\
    \      \"wall_seconds\": %.3f,\n\
    \      \"queries\": %d,\n\
    \      \"rows_delivered\": %d,\n\
    \      \"rows_per_s\": %.1f,\n\
    \      \"latency_ms\": { \"mean\": %.3f, \"p50\": %.3f, \"p95\": %.3f, \
     \"max\": %.3f }\n\
    \    }"
    shards shards m.wall (Array.length lat) m.rows_delivered
    (float m.rows_delivered /. Float.max m.wall 1e-9)
    (Summary.mean lat) (Summary.percentile lat 50.0)
    (Summary.percentile lat 95.0)
    (Array.fold_left Float.max 0.0 lat)

let () =
  let quick = ref false in
  let out = ref "BENCH_cluster.json" in
  let seed = ref 43 in
  let spec =
    [ ("--quick", Arg.Set quick, " small workload (CI smoke)");
      ("--seed", Arg.Set_int seed, "SEED  instance-selection seed (default \
                                    43)");
      ("--out", Arg.Set_string out, "PATH  output file (default \
                                     BENCH_cluster.json)") ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/cluster.exe [--quick] [--seed SEED] [--out PATH]";
  let sf = if !quick then 0.002 else 0.005 in
  let per_template = if !quick then 2 else 4 in
  let rounds = if !quick then 2 else 5 in
  let shard_counts = [ 1; 2; 4 ] in
  Printf.printf
    "cluster macro-benchmark (%s): sf=%g, seed=%d, %d instances x %d rounds, \
     K in {%s}\n%!"
    (if !quick then "quick" else "full")
    sf !seed
    (List.length templates * per_template)
    rounds
    (String.concat ", " (List.map string_of_int shard_counts));
  let tb = Testbed.load ~sf ~seed:21L () in
  let instances = make_instances ~seed:(Int64.of_int !seed) ~per_template in
  let results =
    List.map
      (fun shards ->
        Printf.printf "running K=%d...\n%!" shards;
        let m = run_config tb ~shards ~instances ~rounds in
        Printf.printf
          "  K=%d: %.2fs wall, %.1f rows/s, p50 %.2f ms, p95 %.2f ms\n%!"
          shards m.wall
          (float m.rows_delivered /. Float.max m.wall 1e-9)
          (Summary.percentile m.latencies_ms 50.0)
          (Summary.percentile m.latencies_ms 95.0);
        (shards, m))
      shard_counts
  in
  let baseline = List.assoc 1 results in
  let b = Buffer.create 2048 in
  Printf.bprintf b
    "{\n\
    \  \"bench\": \"cluster\",\n\
    \  \"scale\": \"%s\",\n\
    \  \"sf\": %g,\n\
    \  \"seed\": %d,\n\
    \  \"distinct_instances\": %d,\n\
    \  \"rounds\": %d,\n\
    \  \"configs\": {\n"
    (if !quick then "quick" else "full")
    sf !seed (List.length instances) rounds;
  List.iteri
    (fun i (shards, m) ->
      if i > 0 then Buffer.add_string b ",\n";
      config_json b shards m)
    results;
  Printf.bprintf b "\n  },\n  \"speedup_vs_single\": {";
  let non_baseline = List.filter (fun (k, _) -> k <> 1) results in
  List.iteri
    (fun i (shards, m) ->
      if i > 0 then Buffer.add_string b ",";
      Printf.bprintf b " \"K=%d\": { \"wall\": %.2f, \"p95_latency\": %.2f }"
        shards
        (baseline.wall /. Float.max m.wall 1e-9)
        (Summary.percentile baseline.latencies_ms 95.0
        /. Float.max (Summary.percentile m.latencies_ms 95.0) 1e-9))
    non_baseline;
  Buffer.add_string b " }\n}\n";
  let oc = open_out !out in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "wrote %s\n" !out
