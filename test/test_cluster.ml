(* Cluster suite: shard-map routing and persistence, the shard store and
   its WAL-shipping replication, and the scatter-gather coordinator —
   ending in a loopback 3-shard/1-replica topology whose merged results
   must be byte-identical to the single-node pipeline and to the plaintext
   baseline, including after a shard primary is killed mid-storm under
   seeded chaos. *)

open Mope_db
open Mope_workload
open Mope_system
open Mope_net
open Mope_cluster

let with_tmp_dir f =
  let dir = Filename.temp_file "mope_cluster_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> Sys.remove (Filename.concat dir name))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

let with_metrics f =
  Mope_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Mope_obs.Metrics.set_enabled false) f

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Shard map: partitioning *)

let test_map_partition () =
  let m = Shard_map.create ~shards:4 ~range:10 in
  Alcotest.(check (list int)) "bounds" [ 0; 3; 6; 8 ]
    (Array.to_list (Shard_map.bounds m));
  Alcotest.(check (list (pair int int))) "slices tile the space"
    [ (0, 2); (3, 5); (6, 7); (8, 9) ]
    (List.init 4 (Shard_map.slice m));
  for c = 0 to 9 do
    let i = Shard_map.shard_of m c in
    let lo, hi = Shard_map.slice m i in
    Alcotest.(check bool)
      (Printf.sprintf "c=%d inside its slice" c)
      true
      (lo <= c && c <= hi)
  done;
  (* Exhaustively over small spaces: slices tile [0, range) and widths
     differ by at most one, so a uniform MOPE offset balances rows. *)
  for range = 1 to 40 do
    for shards = 1 to range do
      let m = Shard_map.create ~shards ~range in
      let widths =
        List.init shards (fun i ->
            let lo, hi = Shard_map.slice m i in
            hi - lo + 1)
      in
      Alcotest.(check int)
        (Printf.sprintf "%d/%d covers the space" shards range)
        range
        (List.fold_left ( + ) 0 widths);
      Alcotest.(check bool)
        (Printf.sprintf "%d/%d near-equal widths" shards range)
        true
        (List.fold_left Int.max 0 widths
         - List.fold_left Int.min max_int widths
        <= 1)
    done
  done

let expect_invalid label f =
  match f () with
  | _ -> Alcotest.fail ("accepted invalid input: " ^ label)
  | exception Invalid_argument _ -> ()

let test_map_validation () =
  expect_invalid "0 shards" (fun () -> Shard_map.create ~shards:0 ~range:5);
  expect_invalid "shards > range" (fun () ->
      Shard_map.create ~shards:6 ~range:5);
  expect_invalid "bounds not starting at 0" (fun () ->
      Shard_map.of_bounds ~bounds:[| 1; 4 |] ~range:10);
  expect_invalid "bounds not increasing" (fun () ->
      Shard_map.of_bounds ~bounds:[| 0; 5; 5 |] ~range:10);
  expect_invalid "bound beyond range" (fun () ->
      Shard_map.of_bounds ~bounds:[| 0; 10 |] ~range:10);
  expect_invalid "empty bounds" (fun () ->
      Shard_map.of_bounds ~bounds:[||] ~range:10);
  let m = Shard_map.create ~shards:2 ~range:10 in
  expect_invalid "ciphertext below the space" (fun () ->
      Shard_map.shard_of m (-1));
  expect_invalid "ciphertext beyond the space" (fun () ->
      Shard_map.shard_of m 10);
  expect_invalid "segment beyond the space" (fun () ->
      Shard_map.route m [ (8, 10) ])

(* Routing as a property: every ciphertext of the input segments lands in
   exactly the sub-segment list of its owning shard, and nothing else. *)
let route_universe = 60

let segments_gen =
  QCheck.Gen.(
    list_size (int_range 0 6)
      (map2
         (fun a b -> (Int.min a b, Int.max a b))
         (int_range 0 (route_universe - 1))
         (int_range 0 (route_universe - 1))))

let arb_route_case =
  QCheck.make
    QCheck.Gen.(pair (int_range 1 7) segments_gen)
    ~print:(fun (shards, segs) ->
      Printf.sprintf "shards=%d segments=%s" shards
        (String.concat ","
           (List.map (fun (a, b) -> Printf.sprintf "[%d,%d]" a b) segs)))

let test_map_route_property =
  QCheck.Test.make ~name:"route clips segments exactly onto slices" ~count:300
    arb_route_case
    (fun (shards, raw) ->
      let m = Shard_map.create ~shards ~range:route_universe in
      let segments = Ranges.intervals (Ranges.normalize raw) in
      let routed = Shard_map.route m segments in
      let member segs x = List.exists (fun (lo, hi) -> lo <= x && x <= hi) segs in
      List.for_all
        (fun x ->
          let owner = Shard_map.shard_of m x in
          let in_owner = member routed.(owner) x in
          let elsewhere =
            List.exists
              (fun i -> i <> owner && member routed.(i) x)
              (List.init shards Fun.id)
          in
          in_owner = member segments x && not elsewhere)
        (List.init route_universe Fun.id))

(* A single segment straddling every boundary of the map must split into
   one clip per shard, in shard order, recombining to the original. *)
let test_map_route_straddle () =
  let m = Shard_map.create ~shards:3 ~range:30 in
  let routed = Shard_map.route m [ (5, 27) ] in
  Alcotest.(check (list (pair int int))) "first clip" [ (5, 9) ] routed.(0);
  Alcotest.(check (list (pair int int))) "middle slice whole" [ (10, 19) ]
    routed.(1);
  Alcotest.(check (list (pair int int))) "last clip" [ (20, 27) ] routed.(2);
  (* A segment entirely inside one slice touches only that shard. *)
  let routed = Shard_map.route m [ (12, 14) ] in
  Alcotest.(check (list (pair int int))) "only owner" [ (12, 14) ] routed.(1);
  Alcotest.(check (list (pair int int))) "shard 0 untouched" [] routed.(0);
  Alcotest.(check (list (pair int int))) "shard 2 untouched" [] routed.(2)

(* ------------------------------------------------------------------ *)
(* Shard map: persistence *)

let test_map_codec_roundtrip () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "map.bin" in
      List.iter
        (fun m ->
          Shard_map.save m ~path;
          let loaded = Shard_map.load ~path in
          Alcotest.(check int) "range" (Shard_map.range m)
            (Shard_map.range loaded);
          Alcotest.(check (list int)) "bounds"
            (Array.to_list (Shard_map.bounds m))
            (Array.to_list (Shard_map.bounds loaded)))
        [ Shard_map.create ~shards:1 ~range:1;
          Shard_map.create ~shards:4 ~range:10;
          Shard_map.create ~shards:7 ~range:33851;
          Shard_map.of_bounds ~bounds:[| 0; 1; 2; 100 |] ~range:101 ];
      Alcotest.(check bool) "no stray tmp" false
        (Sys.file_exists (path ^ ".tmp")))

let expect_map_corrupt label data =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "map.bin" in
      write_file path data;
      match Shard_map.load ~path with
      | _ -> Alcotest.fail ("accepted corrupt shard map: " ^ label)
      | exception Shard_map.Corrupt _ -> ()
      | exception e ->
        Alcotest.fail
          (Printf.sprintf "%s: escaped as %s instead of Corrupt" label
             (Printexc.to_string e)))

let test_map_codec_corruption () =
  (match Shard_map.load ~path:"/definitely/not/there.bin" with
  | _ -> Alcotest.fail "loaded a missing file"
  | exception Shard_map.Corrupt _ -> ());
  expect_map_corrupt "empty" "";
  expect_map_corrupt "wrong magic" "MOPEDB\x02\nxxxxxxxxxxxx";
  expect_map_corrupt "future version" "MOPESHRD\x03\n\x00\x00\x00\x00";
  expect_map_corrupt "version zero" "MOPESHRD\x00\n\x00\x00\x00\x00";
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "map.bin" in
      Shard_map.save (Shard_map.create ~shards:3 ~range:100) ~path;
      let good = read_file path in
      (* Every truncation is rejected. *)
      for n = 0 to String.length good - 1 do
        expect_map_corrupt
          (Printf.sprintf "truncated to %d" n)
          (String.sub good 0 n)
      done;
      (* Every single-bit flip is rejected (CRC-32 catches them all). *)
      let mangled = Bytes.of_string good in
      for i = 0 to String.length good - 1 do
        let orig = Bytes.get mangled i in
        Bytes.set mangled i (Char.chr (Char.code orig lxor 0x10));
        expect_map_corrupt
          (Printf.sprintf "bit flip at %d" i)
          (Bytes.to_string mangled);
        Bytes.set mangled i orig
      done;
      expect_map_corrupt "trailing garbage" (good ^ "x"))

(* ------------------------------------------------------------------ *)
(* Shard map: fencing epochs *)

let test_map_epochs () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "map.bin" in
      let m = Shard_map.create ~shards:3 ~range:100 in
      Alcotest.(check (list int)) "launch epochs" [ 1; 1; 1 ]
        (Array.to_list (Shard_map.epochs m));
      Shard_map.set_epoch m 1 4;
      Shard_map.set_epoch m 1 4;
      Alcotest.(check int) "epoch readable per shard" 4 (Shard_map.epoch m 1);
      expect_invalid "epoch going backwards" (fun () ->
          Shard_map.set_epoch m 1 3);
      expect_invalid "epoch of a bad shard" (fun () ->
          Shard_map.set_epoch m 9 2);
      expect_invalid "reading a bad shard's epoch" (fun () ->
          Shard_map.epoch m (-1));
      (* v2 roundtrip carries the epochs. *)
      Shard_map.save m ~path;
      let loaded = Shard_map.load ~path in
      Alcotest.(check (list int)) "epochs survive the roundtrip" [ 1; 4; 1 ]
        (Array.to_list (Shard_map.epochs loaded)))

(* A v1 file — bounds only, written before epochs existed — must still
   load, every epoch defaulting to 1, the launch value. Build the bytes by
   hand against the documented codec. *)
let test_map_v1_compat () =
  let u64 buf v =
    for byte = 0 to 7 do
      Buffer.add_char buf (Char.chr ((v lsr (8 * (7 - byte))) land 0xFF))
    done
  in
  let u32 buf v =
    for byte = 0 to 3 do
      Buffer.add_char buf (Char.chr ((v lsr (8 * (3 - byte))) land 0xFF))
    done
  in
  let file ~version body =
    let buf = Buffer.create 64 in
    Buffer.add_string buf (Printf.sprintf "MOPESHRD%c\n" (Char.chr version));
    u32 buf (String.length body);
    u32 buf (Int32.to_int (Crc32.digest body) land 0xFFFFFFFF);
    Buffer.add_string buf body;
    Buffer.contents buf
  in
  let body values =
    let buf = Buffer.create 64 in
    List.iter (u64 buf) values;
    Buffer.contents buf
  in
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "map.bin" in
      (* range 100, 2 shards at bounds 0 and 50, no epochs: v1. *)
      write_file path (file ~version:1 (body [ 100; 2; 0; 50 ]));
      let loaded = Shard_map.load ~path in
      Alcotest.(check (list int)) "v1 bounds" [ 0; 50 ]
        (Array.to_list (Shard_map.bounds loaded));
      Alcotest.(check (list int)) "v1 epochs default to 1" [ 1; 1 ]
        (Array.to_list (Shard_map.epochs loaded));
      (* Saving it back upgrades to v2; epochs then persist. *)
      Shard_map.set_epoch loaded 0 7;
      Shard_map.save loaded ~path;
      Alcotest.(check (list int)) "upgraded file keeps the bump" [ 7; 1 ]
        (Array.to_list (Shard_map.epochs (Shard_map.load ~path))));
  (* A v2 body with an epoch below the launch value is corrupt, as is a
     v1 body dragging epoch-looking trailing bytes. *)
  expect_map_corrupt "v2 zero epoch" (file ~version:2 (body [ 100; 2; 0; 50; 1; 0 ]));
  expect_map_corrupt "v1 with trailing epochs" (file ~version:1 (body [ 100; 2; 0; 50; 1; 1 ]))

(* ------------------------------------------------------------------ *)
(* Store: apply / fetch / wal_since over the WAL *)

let store_statements =
  [ "CREATE TABLE kv (k INTEGER, v TEXT)";
    "INSERT INTO kv VALUES (1, 'one')";
    "INSERT INTO kv VALUES (2, 'two')";
    "INSERT INTO kv VALUES (3, 'three')" ]

let fetch_ks store =
  let r = Store.fetch store ~sql:"SELECT k FROM kv" in
  List.sort compare
    (List.map (fun row -> Value.to_string row.(0)) r.Exec.rows)

let test_store_apply_fetch () =
  with_tmp_dir (fun dir ->
      let wal_path = Filename.concat dir "s.wal" in
      let store = Store.create ~wal_path () in
      let positions = List.map (fun sql -> Store.apply store ~sql) store_statements in
      (* Each apply lands in the log: strictly growing end offsets. *)
      List.iteri
        (fun i pos ->
          Alcotest.(check bool)
            (Printf.sprintf "wal grows at %d" i)
            true
            (pos > if i = 0 then Wal.head_pos else List.nth positions (i - 1)))
        positions;
      Alcotest.(check int) "wal_pos is the last apply"
        (List.nth positions (List.length positions - 1))
        (Store.wal_pos store);
      Alcotest.(check (list string)) "rows" [ "1"; "2"; "3" ] (fetch_ks store);
      (* A non-SELECT through fetch is a structured error. *)
      (match Store.fetch store ~sql:"INSERT INTO kv VALUES (9, 'x')" with
      | _ -> Alcotest.fail "fetch accepted a mutation"
      | exception Mope_error.Error _ -> ());
      (* Recovery replays the WAL back to the same state. *)
      Store.close store;
      let recovered = Store.recover ~wal_path () in
      Alcotest.(check (list string)) "recovered rows" [ "1"; "2"; "3" ]
        (fetch_ks recovered);
      Store.close recovered;
      (* A WAL-less store applies fine but cannot feed replication. *)
      let bare = Store.create () in
      Alcotest.(check int) "no wal, position 0" 0
        (Store.apply bare ~sql:"CREATE TABLE t (x INTEGER)");
      match Store.wal_since bare ~from_pos:Wal.head_pos ~max_bytes:1024 with
      | _ -> Alcotest.fail "wal_since without a WAL"
      | exception Mope_error.Error _ -> ())

let test_store_wal_since_chunking () =
  with_tmp_dir (fun dir ->
      let wal_path = Filename.concat dir "s.wal" in
      let store = Store.create ~wal_path () in
      List.iter (fun sql -> ignore (Store.apply store ~sql)) store_statements;
      (* One big chunk: everything, cursor parked at the end. *)
      let c = Store.wal_since store ~from_pos:Wal.head_pos ~max_bytes:(1 lsl 20) in
      Alcotest.(check (list string)) "all records" store_statements c.Wal.records;
      Alcotest.(check bool) "no resync" false c.Wal.resync;
      Alcotest.(check int) "cursor at the end" c.Wal.end_pos c.Wal.next_pos;
      Alcotest.(check int) "end is wal_pos" (Store.wal_pos store) c.Wal.end_pos;
      (* max_bytes:1 still guarantees progress: one record per chunk. *)
      let collected = ref [] in
      let pos = ref Wal.head_pos in
      let rounds = ref 0 in
      let continue = ref true in
      while !continue do
        incr rounds;
        if !rounds > 100 then Alcotest.fail "chunk walk does not terminate";
        let c = Store.wal_since store ~from_pos:!pos ~max_bytes:1 in
        Alcotest.(check int)
          (Printf.sprintf "round %d ships one record" !rounds)
          1
          (List.length c.Wal.records);
        collected := !collected @ c.Wal.records;
        pos := c.Wal.next_pos;
        if c.Wal.next_pos >= c.Wal.end_pos then continue := false
      done;
      Alcotest.(check (list string)) "chunk walk covers the log"
        store_statements !collected;
      (* Caught up: an empty chunk, no resync. *)
      let c = Store.wal_since store ~from_pos:!pos ~max_bytes:1024 in
      Alcotest.(check (list string)) "idle" [] c.Wal.records;
      Alcotest.(check bool) "idle no resync" false c.Wal.resync;
      (* A cursor off any record boundary demands a resync from the head. *)
      let c = Store.wal_since store ~from_pos:(Wal.head_pos + 1) ~max_bytes:1024 in
      Alcotest.(check bool) "resync flagged" true c.Wal.resync;
      Alcotest.(check int) "resync rewinds to head" Wal.head_pos c.Wal.next_pos;
      Alcotest.(check (list string)) "resync ships nothing" [] c.Wal.records;
      Store.close store)

let test_store_handler () =
  with_tmp_dir (fun dir ->
      let store = Store.create ~wal_path:(Filename.concat dir "s.wal") () in
      let h = Store.handler store Wire.no_header in
      Alcotest.(check bool) "ping" true (h Wire.Ping = Wire.Pong);
      (match
         h (Wire.Apply
              { sql = "CREATE TABLE kv (k INTEGER, v TEXT)";
                epoch = 0;
                request_id = "" })
       with
      | Wire.Applied { wal_pos } ->
        Alcotest.(check bool) "applied past the header" true
          (wal_pos > Wal.head_pos)
      | _ -> Alcotest.fail "expected Applied");
      ignore
        (h (Wire.Apply
              { sql = "INSERT INTO kv VALUES (1, 'one')";
                epoch = 0;
                request_id = "" }));
      (match h (Wire.Fetch { sql = "SELECT v FROM kv"; epoch = 0 }) with
      | Wire.Rows r ->
        Alcotest.(check int) "one row" 1 (List.length r.Exec.rows)
      | _ -> Alcotest.fail "expected Rows");
      (* Engine rejections surface as structured Exec_failed, not raises. *)
      (match h (Wire.Fetch { sql = "SELECT nope FROM missing"; epoch = 0 }) with
      | Wire.Error { code = Wire.Exec_failed; _ } -> ()
      | _ -> Alcotest.fail "expected a structured Exec_failed");
      (match h (Wire.Wal_since { from_pos = Wal.head_pos; max_bytes = 1024 }) with
      | Wire.Wal_chunk { records; resync = false; _ } ->
        Alcotest.(check int) "both records shipped" 2 (List.length records)
      | _ -> Alcotest.fail "expected Wal_chunk");
      (* Proxy query ops are refused: a store is not a query frontend. *)
      (match
         h (Wire.Query
              { sql = "SELECT 1"; date_column = "l_shipdate";
                date_lo = Date.of_ymd 1994 1 1; date_hi = Date.of_ymd 1994 2 1 })
       with
      | Wire.Error { code = Wire.Unsupported; _ } -> ()
      | _ -> Alcotest.fail "Query must be unsupported on a store");
      (match h (Wire.Rotate { tenant = "acme"; status_only = true }) with
      | Wire.Error { code = Wire.Unsupported; _ } -> ()
      | _ -> Alcotest.fail "tenant ops must be unsupported on a store");
      Store.close store)

(* ------------------------------------------------------------------ *)
(* Store: fencing epochs and retry dedup *)

let count_rows store sql =
  List.length (Store.fetch store ~sql).Exec.rows

let test_store_fencing () =
  with_tmp_dir (fun dir ->
      let wal_path = Filename.concat dir "s.wal" in
      let store = Store.create ~wal_path () in
      Alcotest.(check int) "born unfenced" 0 (Store.epoch store);
      ignore (Store.apply store ~sql:"CREATE TABLE kv (k INTEGER, v TEXT)");
      Store.set_epoch store 3;
      Alcotest.(check int) "stamped" 3 (Store.epoch store);
      (* Epoch-0 requests (local/replication traffic) always pass; a
         matching epoch passes; a mismatch — stale or future — is Fenced
         and reports both sides. *)
      ignore (Store.apply ~epoch:0 store ~sql:"INSERT INTO kv VALUES (1, 'one')");
      ignore (Store.apply ~epoch:3 store ~sql:"INSERT INTO kv VALUES (2, 'two')");
      (match Store.apply ~epoch:2 store ~sql:"INSERT INTO kv VALUES (9, 'x')" with
      | _ -> Alcotest.fail "stale-epoch apply accepted"
      | exception Store.Fenced { request_epoch = 2; store_epoch = 3; sealed = false }
        -> ()
      | exception Store.Fenced _ -> Alcotest.fail "wrong Fenced payload");
      (match Store.fetch ~epoch:4 store ~sql:"SELECT k FROM kv" with
      | _ -> Alcotest.fail "future-epoch fetch accepted"
      | exception Store.Fenced _ -> ());
      Alcotest.(check int) "refused write never executed" 2
        (count_rows store "SELECT k FROM kv");
      (* Epochs only move forward. *)
      (match Store.set_epoch store 2 with
      | () -> Alcotest.fail "epoch moved backwards"
      | exception Mope_error.Error _ -> ());
      (* The epoch mark rides the WAL: recovery and replicas adopt it. *)
      Store.close store;
      let recovered = Store.recover ~wal_path () in
      Alcotest.(check int) "epoch survives recovery" 3 (Store.epoch recovered);
      Alcotest.(check int) "rows survive recovery" 2
        (count_rows recovered "SELECT k FROM kv");
      (* Sealing refuses everything — even the matching epoch. *)
      Alcotest.(check int) "fence adopts and reports the epoch" 5
        (Store.fence recovered ~epoch:5);
      Alcotest.(check bool) "sealed" true (Store.is_sealed recovered);
      (match Store.apply ~epoch:5 recovered ~sql:"INSERT INTO kv VALUES (7, 'z')" with
      | _ -> Alcotest.fail "sealed store accepted a write"
      | exception Store.Fenced { sealed = true; _ } -> ());
      (match Store.fetch recovered ~sql:"SELECT k FROM kv" with
      | _ -> Alcotest.fail "sealed store served a read"
      | exception Store.Fenced { sealed = true; _ } -> ());
      Store.close recovered)

(* The wire adapter turns Fenced into a structured error frame, never a
   raise — chaos clients depend on that. *)
let test_store_handler_fencing () =
  let store = Store.create () in
  Store.set_epoch store 2;
  let h = Store.handler store Wire.no_header in
  (match
     h (Wire.Apply { sql = "CREATE TABLE t (x INTEGER)"; epoch = 1; request_id = "" })
   with
  | Wire.Error { code = Wire.Fenced; message; _ } ->
    Alcotest.(check bool) "message names both epochs" true
      (contains_sub message "request epoch 1" && contains_sub message "store epoch 2")
  | _ -> Alcotest.fail "expected a Fenced error frame");
  (match h (Wire.Fence { epoch = 9 }) with
  | Wire.Epoch_state { epoch = 9 } -> ()
  | _ -> Alcotest.fail "expected Epoch_state 9");
  (match h (Wire.Fetch { sql = "SELECT 1"; epoch = 9 }) with
  | Wire.Error { code = Wire.Fenced; message; _ } ->
    Alcotest.(check bool) "sealed message" true (contains_sub message "sealed")
  | _ -> Alcotest.fail "sealed store must refuse over the wire");
  Store.close store

let test_store_dedup () =
  with_tmp_dir (fun dir ->
      let wal_path = Filename.concat dir "s.wal" in
      let store = Store.create ~wal_path () in
      ignore (Store.apply store ~sql:"CREATE TABLE kv (k INTEGER, v TEXT)");
      (* The same request id applies once; the retry is acknowledged at
         the current log position without re-executing. *)
      let p1 =
        Store.apply ~request_id:"w:1" store
          ~sql:"INSERT INTO kv VALUES (1, 'one')"
      in
      let p2 =
        Store.apply ~request_id:"w:1" store
          ~sql:"INSERT INTO kv VALUES (1, 'one')"
      in
      Alcotest.(check int) "retry acked at the same position" p1 p2;
      Alcotest.(check int) "retry did not re-execute" 1
        (count_rows store "SELECT k FROM kv WHERE k = 1");
      (* Dedup state rides the WAL: a recovered store still refuses the
         replay — the exactly-once guarantee survives a crash. *)
      Store.close store;
      let recovered = Store.recover ~wal_path () in
      ignore
        (Store.apply ~request_id:"w:1" recovered
           ~sql:"INSERT INTO kv VALUES (1, 'one')");
      Alcotest.(check int) "retry refused after recovery too" 1
        (count_rows recovered "SELECT k FROM kv WHERE k = 1");
      (* Malformed request ids are rejected before execution. *)
      (match
         Store.apply ~request_id:(String.make 65 'a') recovered ~sql:"SELECT 1"
       with
      | _ -> Alcotest.fail "oversized request id accepted"
      | exception Mope_error.Error _ -> ());
      (match Store.apply ~request_id:"a\x00b" recovered ~sql:"SELECT 1" with
      | _ -> Alcotest.fail "NUL request id accepted"
      | exception Mope_error.Error _ -> ());
      Store.close recovered)

let test_store_dedup_eviction () =
  (* The table is bounded FIFO: old ids fall out once the cap is passed,
     so an ancient retry can double-apply — the documented trade for a
     bounded memory footprint. cap=2 makes the horizon visible. *)
  let store = Store.create ~dedup_cap:2 () in
  ignore (Store.apply store ~sql:"CREATE TABLE kv (k INTEGER, v TEXT)");
  let insert rid k =
    ignore
      (Store.apply ~request_id:rid store
         ~sql:(Printf.sprintf "INSERT INTO kv VALUES (%d, 'v')" k))
  in
  insert "w:1" 1;
  insert "w:2" 2;
  insert "w:1" 1;
  Alcotest.(check int) "still remembered inside the cap" 1
    (count_rows store "SELECT k FROM kv WHERE k = 1");
  insert "w:3" 3;
  (* w:1 was the oldest of the three distinct ids — evicted. *)
  insert "w:1" 1;
  Alcotest.(check int) "evicted id re-applies" 2
    (count_rows store "SELECT k FROM kv WHERE k = 1");
  insert "w:3" 3;
  Alcotest.(check int) "recent ids still dedup" 1
    (count_rows store "SELECT k FROM kv WHERE k = 3");
  Store.close store

(* ------------------------------------------------------------------ *)
(* Replication: catch-up, incremental sync, lag gauge, resync *)

let serve store = Server.start ~handler:(Store.handler store) ()

let test_replica_sync () =
  with_metrics @@ fun () ->
  with_tmp_dir (fun dir ->
      let store = Store.create ~wal_path:(Filename.concat dir "p.wal") () in
      List.iter (fun sql -> ignore (Store.apply store ~sql)) store_statements;
      let server = serve store in
      let replica = Replica.create ~shard:0 ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () ->
          Replica.close replica;
          Server.shutdown server;
          Store.close store)
        (fun () ->
          (* Initial catch-up applies the whole log. *)
          Alcotest.(check int) "initial catch-up"
            (List.length store_statements)
            (Replica.sync replica);
          Alcotest.(check (list string)) "replica state" [ "1"; "2"; "3" ]
            (fetch_ks (Replica.store replica));
          Alcotest.(check int) "caught up" 0 (Replica.lag_bytes replica);
          Alcotest.(check int) "cursor at the primary's end"
            (Store.wal_pos store) (Replica.cursor replica);
          let lag_gauge =
            Mope_obs.Metrics.gauge "mope_cluster_replica_lag_bytes"
              ~labels:[ ("shard", "0") ] ()
          in
          Alcotest.(check int) "lag gauge caught up" 0
            (Mope_obs.Metrics.gauge_value lag_gauge);
          (* Incremental: only the delta travels on the next sync. *)
          ignore (Store.apply store ~sql:"INSERT INTO kv VALUES (4, 'four')");
          ignore (Store.apply store ~sql:"DELETE FROM kv WHERE k = 1");
          Alcotest.(check int) "delta applied" 2 (Replica.sync replica);
          Alcotest.(check (list string)) "replica follows" [ "2"; "3"; "4" ]
            (fetch_ks (Replica.store replica));
          (* Idle sync is a no-op. *)
          Alcotest.(check int) "idle sync" 0 (Replica.sync replica)))

(* The primary restarts with a shorter history (its WAL was reset under the
   replica's cursor): the primary answers resync and the replica rebuilds
   its whole slice from the head of the new log. *)
let test_replica_resync () =
  with_tmp_dir (fun dir ->
      let store1 = Store.create ~wal_path:(Filename.concat dir "p1.wal") () in
      List.iter (fun sql -> ignore (Store.apply store1 ~sql)) store_statements;
      let server1 = serve store1 in
      let port = Server.port server1 in
      let replica = Replica.create ~shard:1 ~port () in
      Fun.protect
        ~finally:(fun () -> Replica.close replica)
        (fun () ->
          ignore (Replica.sync replica);
          Alcotest.(check (list string)) "synced to the first primary"
            [ "1"; "2"; "3" ]
            (fetch_ks (Replica.store replica));
          (* Unreachable primary: sync fails structurally, cursor intact. *)
          Server.shutdown server1;
          Store.close store1;
          let cursor = Replica.cursor replica in
          (match Replica.sync replica with
          | _ -> Alcotest.fail "sync against a dead primary must fail"
          | exception Mope_error.Error _ -> ());
          Alcotest.(check int) "cursor unchanged after the failure" cursor
            (Replica.cursor replica);
          (* A new primary on the same port with a shorter WAL. *)
          let store2 = Store.create ~wal_path:(Filename.concat dir "p2.wal") () in
          ignore (Store.apply store2 ~sql:"CREATE TABLE kv (k INTEGER, v TEXT)");
          ignore (Store.apply store2 ~sql:"INSERT INTO kv VALUES (100, 'fresh')");
          let server2 =
            Server.start
              ~config:{ Server.default_config with Server.port }
              ~handler:(Store.handler store2) ()
          in
          Fun.protect
            ~finally:(fun () ->
              Server.shutdown server2;
              Store.close store2)
            (fun () ->
              let applied = Replica.sync replica in
              Alcotest.(check int) "full head replay after resync" 2 applied;
              Alcotest.(check (list string)) "replica rebuilt, old rows gone"
                [ "100" ]
                (fetch_ks (Replica.store replica));
              Alcotest.(check int) "caught up on the new history" 0
                (Replica.lag_bytes replica))))

(* ------------------------------------------------------------------ *)
(* The loopback cluster: scatter-gather equality and failover *)

let testbed = lazy (Testbed.load ~sf:0.002 ~seed:21L ())

let with_topology ?wrap ?(shards = 3) ?(replicas = 1) f =
  let tb = Lazy.force testbed in
  let enc = Testbed.encrypted_for tb ~rho:(Some 92) in
  with_tmp_dir (fun dir ->
      let topo = Topology.launch ~enc ~shards ~replicas ~wal_dir:dir ?wrap () in
      Fun.protect ~finally:(fun () -> Topology.shutdown topo) (fun () ->
          f tb topo))

(* One proxy per date column, exactly as `mope serve` builds them — but
   fetching through the coordinator instead of the local encrypted twin. *)
let cluster_proxies tb topo =
  [ ( Tpch_queries.date_column Tpch_queries.Q6,
      Testbed.proxy tb ~template:Tpch_queries.Q6 ~rho:(Some 92) ~batch_size:25
        ~fetch_many:(Topology.fetch_many topo) ~seed:17L () );
    ( Tpch_queries.date_column Tpch_queries.Q4,
      Testbed.proxy tb ~template:Tpch_queries.Q4 ~rho:(Some 92) ~batch_size:25
        ~fetch_many:(Topology.fetch_many topo) ~seed:19L () ) ]

let single_node_proxies tb =
  [ ( Tpch_queries.date_column Tpch_queries.Q6,
      Testbed.proxy tb ~template:Tpch_queries.Q6 ~rho:(Some 92) ~batch_size:25
        ~seed:17L () );
    ( Tpch_queries.date_column Tpch_queries.Q4,
      Testbed.proxy tb ~template:Tpch_queries.Q4 ~rho:(Some 92) ~batch_size:25
        ~seed:19L () ) ]

let run_via proxies inst =
  let col = Tpch_queries.date_column inst.Tpch_queries.template in
  Testbed.run_encrypted (List.assoc col proxies) inst

let query_instances seed =
  let rng = Mope_stats.Rng.create seed in
  [ Tpch_queries.random_instance rng Tpch_queries.Q6;
    Tpch_queries.random_instance rng Tpch_queries.Q14;
    Tpch_queries.random_instance rng Tpch_queries.Q4;
    Tpch_queries.random_instance rng Tpch_queries.Q4 ]

let check_instance ~msg tb cluster single inst =
  let plain = Testbed.run_plain tb inst in
  let got = run_via cluster inst in
  let name = Tpch_queries.template_name inst.Tpch_queries.template in
  Alcotest.(check (list (list string)))
    (Printf.sprintf "%s: %s matches the plaintext baseline" msg name)
    (Testbed.fingerprint plain) (Testbed.fingerprint got);
  match single with
  | None -> ()
  | Some proxies ->
    Alcotest.(check (list (list string)))
      (Printf.sprintf "%s: %s byte-identical to the single node" msg name)
      (Testbed.fingerprint (run_via proxies inst))
      (Testbed.fingerprint got)

let test_scatter_gather_equality () =
  List.iter
    (fun shards ->
      with_topology ~shards ~replicas:0 (fun tb topo ->
          let cluster = cluster_proxies tb topo in
          let single = single_node_proxies tb in
          List.iter
            (check_instance
               ~msg:(Printf.sprintf "%d shards" shards)
               tb cluster (Some single))
            (query_instances 23L)))
    [ 1; 3 ]

let test_failover_to_replica () =
  with_metrics @@ fun () ->
  with_topology ~shards:3 ~replicas:1 (fun tb topo ->
      let cluster = cluster_proxies tb topo in
      (* Replicas start caught up (Topology.launch syncs them). *)
      for shard = 0 to Topology.shards topo - 1 do
        Alcotest.(check (list int))
          (Printf.sprintf "shard %d replica caught up" shard)
          [ 0 ]
          (Topology.replica_lag topo ~shard)
      done;
      let insts = query_instances 29L in
      check_instance ~msg:"healthy cluster" tb cluster None (List.hd insts);
      (* Kill every primary: each sub-fetch must fail over to the shard's
         replica, and the answers must not change by a byte. *)
      let failover_counters =
        List.init (Topology.shards topo) (fun i ->
            Mope_obs.Metrics.counter "mope_cluster_failover_total"
              ~labels:[ ("shard", string_of_int i) ] ())
      in
      let failovers0 =
        List.fold_left
          (fun acc c -> acc + Mope_obs.Metrics.counter_value c)
          0 failover_counters
      in
      for shard = 0 to Topology.shards topo - 1 do
        Topology.kill_primary topo ~shard
      done;
      List.iter
        (check_instance ~msg:"all primaries dead" tb cluster None)
        (List.tl insts);
      let failovers =
        List.fold_left
          (fun acc c -> acc + Mope_obs.Metrics.counter_value c)
          0 failover_counters
      in
      Alcotest.(check bool) "failovers counted" true (failovers > failovers0))

(* The acceptance storm: a seeded chaos schedule on every connection, and a
   shard primary killed mid-run. Chaos.slow is lossless, so every query
   must still complete — through the replica — byte-identical. *)
let test_chaos_kill_primary_mid_storm () =
  List.iter
    (fun seed ->
      let wrap io = Chaos.wrap ~config:Chaos.slow ~seed io in
      with_topology ~wrap ~shards:3 ~replicas:1 (fun tb topo ->
          let cluster = cluster_proxies tb topo in
          let msg = Printf.sprintf "seed %Ld" seed in
          match query_instances (Int64.add 1000L seed) with
          | before :: after ->
            check_instance ~msg:(msg ^ " before the kill") tb cluster None
              before;
            (* The storm is on and queries are flowing; now a primary dies. *)
            Topology.kill_primary topo ~shard:1;
            List.iter
              (check_instance ~msg:(msg ^ " after the kill") tb cluster None)
              after
          | [] -> assert false))
    [ 3L; 11L ]

(* A write must reach a later IN (SELECT ...) resolution: the coordinator
   memoizes resolved value lists, and an emptied inner table resolves to
   no values at all. Own testbed: the plaintext twin takes the same
   DELETE. *)
let test_subquery_after_write () =
  let tb = Testbed.load ~sf:0.001 ~seed:21L () in
  let enc = Testbed.encrypted_for tb ~rho:(Some 92) in
  with_tmp_dir (fun dir ->
      let topo = Topology.launch ~enc ~shards:2 ~replicas:0 ~wal_dir:dir () in
      Fun.protect ~finally:(fun () -> Topology.shutdown topo) (fun () ->
          let proxy =
            Testbed.proxy tb ~template:Tpch_queries.Q4 ~rho:(Some 92)
              ~batch_size:25 ~fetch_many:(Topology.fetch_many topo) ~seed:19L ()
          in
          let inst =
            Tpch_queries.random_instance (Mope_stats.Rng.create 31L) Tpch_queries.Q4
          in
          let check msg =
            Alcotest.(check (list (list string)))
              msg
              (Testbed.fingerprint (Testbed.run_plain tb inst))
              (Testbed.fingerprint (Testbed.run_encrypted proxy inst))
          in
          Alcotest.(check bool) "the instance has rows to lose" true
            ((Testbed.run_plain tb inst).Exec.rows <> []);
          check "before the write";
          let delete = "DELETE FROM lineitem" in
          for shard = 0 to Topology.shards topo - 1 do
            ignore (Coordinator.apply (Topology.coordinator topo) ~shard ~sql:delete)
          done;
          ignore (Database.execute (Testbed.plain tb) delete);
          check "after emptying the inner table"))

(* ------------------------------------------------------------------ *)
(* Failover: supervised promotion, fencing, exactly-once writes *)

(* Ticks needed for the failure detector to declare a leg dead. *)
let miss_threshold = Supervisor.default_config.Supervisor.miss_threshold

let audit_rows topo coord ~shard sql =
  let leg = Coordinator.primary_leg coord ~shard in
  let port =
    if leg = 0 then Topology.primary_port topo ~shard
    else Topology.replica_port topo ~shard ~index:(leg - 1)
  in
  let epoch = Coordinator.epoch coord ~shard in
  Client.with_client ~port (fun c -> Client.fetch c ~epoch ~sql ())

(* Kill a primary under a deterministic supervisor (tick, no threads):
   the most-caught-up replica must take over under a bumped, persisted
   epoch, with no acknowledged write lost and the lag gauge reset. *)
let test_supervised_promotion () =
  with_metrics @@ fun () ->
  with_topology ~shards:2 ~replicas:2 (fun _tb topo ->
      let coord = Topology.coordinator topo in
      let sup = Topology.supervisor topo () in
      Fun.protect
        ~finally:(fun () -> Supervisor.stop sup)
        (fun () ->
          let shard = 0 in
          let labels = [ ("shard", string_of_int shard) ] in
          let promotions =
            Mope_obs.Metrics.counter "mope_cluster_promotions_total" ~labels ()
          in
          let promotions0 = Mope_obs.Metrics.counter_value promotions in
          Supervisor.tick sup;
          Alcotest.(check int) "healthy shard keeps leg 0" 0
            (Supervisor.primary_leg sup ~shard);
          ignore
            (Coordinator.apply coord ~request_id:"p:create" ~shard
               ~sql:"CREATE TABLE f (w INTEGER)");
          for w = 0 to 9 do
            ignore
              (Coordinator.apply coord
                 ~request_id:(Printf.sprintf "p:%d" w)
                 ~shard
                 ~sql:(Printf.sprintf "INSERT INTO f VALUES (%d)" w))
          done;
          Supervisor.tick sup;
          Topology.kill_primary topo ~shard;
          for _ = 1 to miss_threshold do
            Supervisor.tick sup
          done;
          let leg = Supervisor.primary_leg sup ~shard in
          Alcotest.(check bool) "promoted off the dead leg" true (leg > 0);
          Alcotest.(check int) "coordinator follows" leg
            (Coordinator.primary_leg coord ~shard);
          Alcotest.(check int) "epoch bumped and persisted in the map" 2
            (Shard_map.epoch (Topology.map topo) shard);
          Alcotest.(check int) "coordinator carries the epoch" 2
            (Coordinator.epoch coord ~shard);
          Alcotest.(check int) "untouched shard keeps its epoch" 1
            (Coordinator.epoch coord ~shard:1);
          Alcotest.(check int) "promotion counted" (promotions0 + 1)
            (Mope_obs.Metrics.counter_value promotions);
          Alcotest.(check int) "epoch gauge follows" 2
            (Mope_obs.Metrics.gauge_value
               (Mope_obs.Metrics.gauge "mope_cluster_epoch" ~labels ()));
          Alcotest.(check int) "promoted leg's lag gauge reset" 0
            (Mope_obs.Metrics.gauge_value
               (Mope_obs.Metrics.gauge "mope_cluster_replica_lag_bytes"
                  ~labels ()));
          Alcotest.(check bool) "shard is writable" false
            (Coordinator.is_read_only coord ~shard);
          (* Every pre-kill write survived, and new writes flow under the
             new epoch. *)
          ignore
            (Coordinator.apply coord ~request_id:"p:after" ~shard
               ~sql:"INSERT INTO f VALUES (100)");
          Alcotest.(check int) "no acknowledged write lost" 11
            (List.length
               (audit_rows topo coord ~shard "SELECT w FROM f").Exec.rows)))

(* The acceptance storm: supervisor threads running, every connection
   under seeded chaos, primary killed mid-write-storm. Every acknowledged
   write must land exactly once; every refused write must be absent. *)
let test_supervised_storm_exactly_once () =
  with_metrics @@ fun () ->
  List.iter
    (fun seed ->
      let wrap io = Chaos.wrap ~config:Chaos.slow ~seed io in
      with_topology ~wrap ~shards:2 ~replicas:1 (fun _tb topo ->
          let coord = Topology.coordinator topo in
          let sup =
            Topology.supervisor topo ~seed:(Int64.add 400L seed) ()
          in
          Supervisor.start sup;
          Fun.protect
            ~finally:(fun () -> Supervisor.stop sup)
            (fun () ->
              let shard = 0 in
              let msg m = Printf.sprintf "seed %Ld: %s" seed m in
              ignore
                (Coordinator.apply coord ~request_id:"s:create" ~retries:300
                   ~retry_backoff:0.02 ~shard
                   ~sql:"CREATE TABLE f (w INTEGER)");
              let acked = ref [] and refused = ref [] in
              for w = 0 to 39 do
                if w = 20 then Topology.kill_primary topo ~shard;
                match
                  Coordinator.apply coord
                    ~request_id:(Printf.sprintf "s:%d" w)
                    ~retries:300 ~retry_backoff:0.02 ~shard
                    ~sql:(Printf.sprintf "INSERT INTO f VALUES (%d)" w)
                with
                | _ -> acked := w :: !acked
                | exception Mope_error.Error _ -> refused := w :: !refused
              done;
              (* Give the supervisor until a deadline to finish promoting
                 (writes above already waited out the detection window). *)
              let deadline = Unix.gettimeofday () +. 10.0 in
              while
                Coordinator.is_read_only coord ~shard
                && Unix.gettimeofday () < deadline
              do
                Thread.delay 0.02
              done;
              Alcotest.(check int)
                (msg "promoted to the only replica")
                1
                (Coordinator.primary_leg coord ~shard);
              Alcotest.(check int) (msg "epoch bumped") 2
                (Coordinator.epoch coord ~shard);
              let rows =
                (audit_rows topo coord ~shard "SELECT w FROM f").Exec.rows
              in
              let count w =
                List.length
                  (List.filter
                     (fun row -> Value.to_string row.(0) = string_of_int w)
                     rows)
              in
              List.iter
                (fun w ->
                  Alcotest.(check int)
                    (msg (Printf.sprintf "acknowledged write %d exactly once" w))
                    1 (count w))
                !acked;
              List.iter
                (fun w ->
                  Alcotest.(check int)
                    (msg (Printf.sprintf "refused write %d absent" w))
                    0 (count w))
                !refused;
              Alcotest.(check int) (msg "every write accounted for") 40
                (List.length !acked + List.length !refused))))
    [ 5L; 23L ]

(* A deposed primary that comes back from the dead must not serve: new-
   epoch traffic is refused by exact-match fencing, and the supervisor's
   next probe seals it outright. *)
let test_zombie_fenced () =
  with_metrics @@ fun () ->
  with_topology ~shards:1 ~replicas:1 (fun _tb topo ->
      let coord = Topology.coordinator topo in
      let sup = Topology.supervisor topo () in
      Fun.protect
        ~finally:(fun () -> Supervisor.stop sup)
        (fun () ->
          let shard = 0 in
          ignore
            (Coordinator.apply coord ~request_id:"z:create" ~shard
               ~sql:"CREATE TABLE f (w INTEGER)");
          ignore
            (Coordinator.apply coord ~request_id:"z:1" ~shard
               ~sql:"INSERT INTO f VALUES (1)");
          Supervisor.tick sup;
          Topology.kill_primary topo ~shard;
          for _ = 1 to miss_threshold do
            Supervisor.tick sup
          done;
          Alcotest.(check int) "promoted to the replica" 1
            (Supervisor.primary_leg sup ~shard);
          (* The old primary rises again on its old port, stale epoch and
             all. A late write carrying the new epoch is refused — the
             zombie is still at epoch 1. *)
          let zport = Topology.revive_primary topo ~shard in
          let late epoch =
            Client.with_client ~port:zport (fun c ->
                Client.apply c ~epoch ~request_id:"z:late"
                  ~sql:"INSERT INTO f VALUES (666)" ())
          in
          (match late 2 with
          | _ -> Alcotest.fail "zombie accepted a new-epoch write"
          | exception Mope_error.Error e ->
            Alcotest.(check bool) "structured Fenced error" true
              (Client.is_fenced e));
          (* The next probe finds the deposed leg alive and seals it: now
             even its own stale epoch is refused. *)
          Supervisor.tick sup;
          (match late 1 with
          | _ -> Alcotest.fail "sealed zombie accepted its own stale epoch"
          | exception Mope_error.Error e ->
            Alcotest.(check bool) "sealed error is Fenced too" true
              (Client.is_fenced e));
          (* And none of the refused writes ever landed anywhere. *)
          Alcotest.(check int) "refused writes absent" 0
            (List.length
               (audit_rows topo coord ~shard
                  "SELECT w FROM f WHERE w = 666").Exec.rows)))

(* With no replica to promote, the shard degrades to read-only: writes
   shed with a retry-after hint, reads keep flowing — and the primary
   coming back lifts the degradation without an epoch bump. *)
let test_read_only_degradation () =
  with_metrics @@ fun () ->
  with_topology ~shards:1 ~replicas:0 (fun _tb topo ->
      let coord = Topology.coordinator topo in
      let sup = Topology.supervisor topo () in
      Fun.protect
        ~finally:(fun () -> Supervisor.stop sup)
        (fun () ->
          let shard = 0 in
          ignore
            (Coordinator.apply coord ~request_id:"r:create" ~shard
               ~sql:"CREATE TABLE f (w INTEGER)");
          Topology.kill_primary topo ~shard;
          for _ = 1 to miss_threshold do
            Supervisor.tick sup
          done;
          Alcotest.(check bool) "parked read-only" true
            (Coordinator.is_read_only coord ~shard);
          (match
             Coordinator.apply coord ~request_id:"r:1" ~retries:0 ~shard
               ~sql:"INSERT INTO f VALUES (1)"
           with
          | _ -> Alcotest.fail "read-only shard accepted a write"
          | exception Mope_error.Error e ->
            let m = Mope_error.to_string e in
            Alcotest.(check bool) "read-only error with a retry hint" true
              (contains_sub m "read-only" && contains_sub m "retry after"));
          (* The primary returns (same store, same port, epoch 1 — it was
             never deposed, no promotion happened): the next clean probe
             reopens writes. *)
          ignore (Topology.revive_primary topo ~shard);
          Supervisor.tick sup;
          Alcotest.(check bool) "writes flow again" false
            (Coordinator.is_read_only coord ~shard);
          Alcotest.(check int) "epoch never bumped" 1
            (Coordinator.epoch coord ~shard);
          ignore
            (Coordinator.apply coord ~request_id:"r:2" ~shard
               ~sql:"INSERT INTO f VALUES (2)");
          Alcotest.(check int) "write landed" 1
            (List.length
               (audit_rows topo coord ~shard "SELECT w FROM f").Exec.rows)))

let () =
  Alcotest.run "cluster"
    [ ( "shard-map",
        [ Alcotest.test_case "equal-width partition" `Quick test_map_partition;
          Alcotest.test_case "invalid maps rejected" `Quick test_map_validation;
          QCheck_alcotest.to_alcotest test_map_route_property;
          Alcotest.test_case "straddling segments split per shard" `Quick
            test_map_route_straddle;
          Alcotest.test_case "codec roundtrip" `Quick test_map_codec_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick
            test_map_codec_corruption;
          Alcotest.test_case "fencing epochs persist" `Quick test_map_epochs;
          Alcotest.test_case "v1 files load with launch epochs" `Quick
            test_map_v1_compat ] );
      ( "store",
        [ Alcotest.test_case "apply, fetch, recover" `Quick
            test_store_apply_fetch;
          Alcotest.test_case "wal_since chunk walk" `Quick
            test_store_wal_since_chunking;
          Alcotest.test_case "wire handler" `Quick test_store_handler;
          Alcotest.test_case "fencing epochs and sealing" `Quick
            test_store_fencing;
          Alcotest.test_case "fenced as a structured wire error" `Quick
            test_store_handler_fencing;
          Alcotest.test_case "request-id dedup, exactly once" `Quick
            test_store_dedup;
          Alcotest.test_case "dedup horizon is bounded FIFO" `Quick
            test_store_dedup_eviction ] );
      ( "replication",
        [ Alcotest.test_case "catch-up, incremental, lag gauge" `Quick
            test_replica_sync;
          Alcotest.test_case "resync after primary history loss" `Quick
            test_replica_resync ] );
      ( "scatter-gather",
        [ Alcotest.test_case "merged results byte-identical" `Slow
            test_scatter_gather_equality;
          Alcotest.test_case "failover routes reads to replicas" `Slow
            test_failover_to_replica;
          Alcotest.test_case "kill primary mid-storm under seeded chaos" `Slow
            test_chaos_kill_primary_mid_storm;
          Alcotest.test_case "IN (SELECT) sees writes, empty set" `Slow
            test_subquery_after_write ] );
      ( "failover",
        [ Alcotest.test_case "supervised promotion under a new epoch" `Slow
            test_supervised_promotion;
          Alcotest.test_case "write storm exactly-once under chaos" `Slow
            test_supervised_storm_exactly_once;
          Alcotest.test_case "revived zombie is fenced" `Slow
            test_zombie_fenced;
          Alcotest.test_case "no candidate degrades to read-only" `Slow
            test_read_only_degradation ] ) ]
