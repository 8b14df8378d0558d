(* Crash-safety tests for lib/db persistence: CRC-checksummed v2 snapshots,
   corruption handling (truncations, bit flips, wrong magic — always
   [Storage.Corrupt], never a raw exception), the append-only WAL with
   torn-tail tolerance, and [Storage.recover] after a process dies
   mid-save or mid-append. *)

open Mope_db

let with_tmp f =
  let path = Filename.temp_file "mope_storage_test" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

(* A small database: big enough to exercise every value type, small enough
   that exhaustive byte-level corruption sweeps stay fast. *)
let small_database () =
  let db = Database.create () in
  ignore
    (Database.execute db
       "CREATE TABLE t (a INTEGER, b TEXT, c FLOAT, d DATE, e BOOLEAN)");
  ignore (Database.execute db "CREATE INDEX ON t (a)");
  for i = 0 to 9 do
    ignore
      (Database.execute db
         (Printf.sprintf
            "INSERT INTO t VALUES (%d, 'row %d', %d.5, DATE '1997-0%d-01', %s)"
            (i * 3) i i ((i mod 9) + 1)
            (if i mod 2 = 0 then "TRUE" else "FALSE")))
  done;
  db

let dump db =
  List.concat_map
    (fun name ->
      let r = Database.query db (Printf.sprintf "SELECT * FROM %s" name) in
      List.map
        (fun row -> Array.to_list (Array.map Value.to_string row))
        r.Exec.rows
      |> List.sort compare)
    (Database.tables db)

(* ------------------------------------------------------------------ *)
(* Snapshot format *)

let test_v2_roundtrip_and_header () =
  let db = small_database () in
  let data = Storage.save_string db in
  Alcotest.(check string) "v2 magic" "MOPEDB\x02\n" (String.sub data 0 8);
  let loaded = Storage.load_string data in
  Alcotest.(check (list (list string))) "contents" (dump db) (dump loaded)

let test_legacy_v1_still_loads () =
  let db = small_database () in
  let v2 = Storage.save_string db in
  (* v2 layout: 8-byte magic, 8-byte length, 4-byte CRC, body. The body is
     the v1 payload, so a v1 file is magic1 ^ body. *)
  let body = String.sub v2 20 (String.length v2 - 20) in
  let v1 = "MOPEDB\x01\n" ^ body in
  let loaded = Storage.load_string v1 in
  Alcotest.(check (list (list string))) "v1 contents" (dump db) (dump loaded)

let expect_corrupt label data =
  match Storage.load_string data with
  | _ -> Alcotest.fail ("accepted corrupt input: " ^ label)
  | exception Storage.Corrupt msg ->
    Alcotest.(check bool) (label ^ " has a reason") true (String.length msg > 0)
  | exception e ->
    Alcotest.fail
      (Printf.sprintf "%s: escaped as %s instead of Storage.Corrupt" label
         (Printexc.to_string e))

let test_wrong_magic () =
  expect_corrupt "empty" "";
  expect_corrupt "not a database" "hello world, definitely not a snapshot";
  expect_corrupt "half a magic" "MOPE";
  expect_corrupt "wal magic" "MOPEWAL\x01\n";
  expect_corrupt "future version" "MOPEDB\x09\n\x00\x00\x00\x00"

(* Every proper prefix of a valid snapshot must be rejected as Corrupt. *)
let test_truncation_sweep () =
  let good = Storage.save_string (small_database ()) in
  for n = 0 to String.length good - 1 do
    expect_corrupt (Printf.sprintf "truncated to %d" n) (String.sub good 0 n)
  done

(* CRC-32 detects every single-bit error, so any one-bit flip anywhere —
   magic, length, checksum or body — must be rejected as Corrupt. *)
let test_bit_flip_sweep () =
  let good = Storage.save_string (small_database ()) in
  let mangled = Bytes.of_string good in
  for i = 0 to String.length good - 1 do
    let bit = 1 lsl (i mod 8) in
    let orig = Bytes.get mangled i in
    Bytes.set mangled i (Char.chr (Char.code orig lxor bit));
    expect_corrupt
      (Printf.sprintf "bit flip at byte %d" i)
      (Bytes.to_string mangled);
    Bytes.set mangled i orig
  done

let test_trailing_garbage () =
  let good = Storage.save_string (small_database ()) in
  expect_corrupt "trailing bytes" (good ^ "x")

(* A crash after writing the temp file but before the rename leaves the old
   snapshot in place plus a stray .tmp; save must replace atomically and
   clean its temp file on the happy path. *)
let test_save_atomic () =
  with_tmp (fun path ->
      let db1 = small_database () in
      Storage.save db1 ~path;
      Alcotest.(check bool) "no stray tmp" false
        (Sys.file_exists (path ^ ".tmp"));
      (* Simulate the half-finished save of a crashed writer... *)
      write_file (path ^ ".tmp") "MOPEDB\x02\n\x00\x00torn";
      (* ...the snapshot at the final path is still the good one. *)
      let loaded = Storage.load ~path in
      Alcotest.(check (list (list string))) "old snapshot intact" (dump db1)
        (dump loaded);
      (* And a fresh save replaces both. *)
      let db2 = Database.create () in
      ignore (Database.execute db2 "CREATE TABLE only (x INTEGER)");
      Storage.save db2 ~path;
      Alcotest.(check (list string)) "replaced" [ "only" ]
        (Database.tables (Storage.load ~path)))

(* Torn rename: a crash can leave the temp file in any state — empty, a
   torn header, half a body, or even a complete snapshot that was never
   published by the rename. Whatever the stray .tmp holds, the canonical
   path stays authoritative for load and recover, and the next save
   consumes the stray atomically. *)
let test_torn_rename () =
  with_tmp (fun path ->
      let db = small_database () in
      Storage.save db ~path;
      let good = Storage.save_string db in
      List.iteri
        (fun i stray ->
          write_file (path ^ ".tmp") stray;
          let loaded = Storage.load ~path in
          Alcotest.(check (list (list string)))
            (Printf.sprintf "canonical path wins over stray %d" i)
            (dump db) (dump loaded);
          let r = Storage.recover ~snapshot:path ~wal:(path ^ ".wal") () in
          Alcotest.(check (list (list string)))
            (Printf.sprintf "recover ignores stray %d" i)
            (dump db) (dump r.Storage.db);
          Storage.save db ~path;
          Alcotest.(check bool)
            (Printf.sprintf "stray %d consumed by the next save" i)
            false
            (Sys.file_exists (path ^ ".tmp")))
        [ "";
          "MOPEDB\x02\n";
          String.sub good 0 (String.length good / 2);
          Storage.save_string (Database.create ()) ])

(* ------------------------------------------------------------------ *)
(* WAL *)

let sample_statements =
  [ "CREATE TABLE kv (k INTEGER, v TEXT)";
    "INSERT INTO kv VALUES (1, 'one')";
    "INSERT INTO kv VALUES (2, 'two')";
    "UPDATE kv SET v = 'deux' WHERE k = 2";
    "INSERT INTO kv VALUES (3, 'three')";
    "DELETE FROM kv WHERE k = 1" ]

let write_wal path statements =
  let log = Wal.open_log ~path in
  List.iter (fun s -> Wal.append ~sync:false log s) statements;
  Wal.close log

let test_wal_roundtrip () =
  with_tmp (fun path ->
      Sys.remove path;
      write_wal path sample_statements;
      let r = Wal.replay ~path in
      Alcotest.(check (list string)) "statements" sample_statements
        r.Wal.statements;
      Alcotest.(check bool) "not torn" false r.Wal.torn)

let test_wal_missing_file_is_empty () =
  with_tmp (fun path ->
      Sys.remove path;
      let r = Wal.replay ~path in
      Alcotest.(check (list string)) "no statements" [] r.Wal.statements;
      Alcotest.(check bool) "not torn" false r.Wal.torn)

let test_wal_bad_header () =
  with_tmp (fun path ->
      write_file path "definitely not a wal, but longer than the header";
      match Wal.replay ~path with
      | _ -> Alcotest.fail "accepted a non-WAL file"
      | exception Wal.Corrupt _ -> ())

(* Kill-mid-append, exhaustively: every possible prefix of a valid log is
   what some crash instant leaves behind. Replay must never raise, must
   recover a prefix of the appended statements, and must flag the torn
   tail exactly when one exists. *)
let test_wal_truncation_sweep () =
  with_tmp (fun path ->
      Sys.remove path;
      write_wal path sample_statements;
      let full = read_file path in
      let is_prefix l =
        let rec go a b =
          match a, b with
          | [], _ -> true
          | x :: a', y :: b' -> x = y && go a' b'
          | _ :: _, [] -> false
        in
        go l sample_statements
      in
      for n = 0 to String.length full do
        write_file path (String.sub full 0 n);
        match Wal.replay ~path with
        | r ->
          Alcotest.(check bool)
            (Printf.sprintf "prefix at %d" n)
            true (is_prefix r.Wal.statements);
          let complete = n = String.length full in
          if complete then begin
            Alcotest.(check (list string)) "full file intact" sample_statements
              r.Wal.statements;
            Alcotest.(check bool) "full file not torn" false r.Wal.torn
          end
          else
            Alcotest.(check bool)
              (Printf.sprintf "torn flagged at %d" n)
              (n > 0 && n <> r.Wal.valid_bytes)
              r.Wal.torn
        | exception e ->
          Alcotest.fail
            (Printf.sprintf "replay raised at truncation %d: %s" n
               (Printexc.to_string e))
      done)

(* A bit flip inside a record invalidates that record and everything after
   it (the longest *valid prefix* is what recovery trusts), but never
   raises. *)
let test_wal_bit_flip_gives_prefix () =
  with_tmp (fun path ->
      Sys.remove path;
      write_wal path sample_statements;
      let full = read_file path in
      let header = String.length "MOPEWAL\x01\n" in
      let mangled = Bytes.of_string full in
      for i = header to String.length full - 1 do
        let orig = Bytes.get mangled i in
        Bytes.set mangled i (Char.chr (Char.code orig lxor 0x40));
        write_file path (Bytes.to_string mangled);
        (match Wal.replay ~path with
        | r ->
          let rec is_prefix a b =
            match a, b with
            | [], _ -> true
            | x :: a', y :: b' -> x = y && is_prefix a' b'
            | _ :: _, [] -> false
          in
          Alcotest.(check bool)
            (Printf.sprintf "flip at %d yields a valid prefix" i)
            true
            (is_prefix r.Wal.statements sample_statements
            && List.length r.Wal.statements < List.length sample_statements);
          Alcotest.(check bool)
            (Printf.sprintf "flip at %d flagged torn" i)
            true r.Wal.torn
        | exception e ->
          Alcotest.fail
            (Printf.sprintf "replay raised on flip at %d: %s" i
               (Printexc.to_string e)));
        Bytes.set mangled i orig
      done)

(* open_log after a crash truncates the torn tail so new appends extend
   the valid prefix instead of hiding behind garbage. *)
let test_wal_open_repairs_torn_tail () =
  with_tmp (fun path ->
      Sys.remove path;
      write_wal path sample_statements;
      let full = read_file path in
      (* Tear the last record in half. *)
      write_file path (String.sub full 0 (String.length full - 3));
      let r = Wal.replay ~path in
      Alcotest.(check bool) "tail torn" true r.Wal.torn;
      let log = Wal.open_log ~path in
      Wal.append ~sync:false log "INSERT INTO kv VALUES (9, 'nine')";
      Wal.close log;
      let r' = Wal.replay ~path in
      Alcotest.(check bool) "repaired" false r'.Wal.torn;
      Alcotest.(check (list string)) "prefix + new record"
        (List.filteri (fun i _ -> i < List.length sample_statements - 1)
           sample_statements
        @ [ "INSERT INTO kv VALUES (9, 'nine')" ])
        r'.Wal.statements)

(* ------------------------------------------------------------------ *)
(* Recovery *)

let test_recover_snapshot_plus_wal () =
  with_tmp (fun snapshot ->
      with_tmp (fun wal ->
          Sys.remove wal;
          let db = small_database () in
          Storage.save db ~path:snapshot;
          write_wal wal sample_statements;
          let r = Storage.recover ~snapshot ~wal () in
          Alcotest.(check bool) "snapshot loaded" true r.Storage.snapshot_loaded;
          Alcotest.(check int) "all applied"
            (List.length sample_statements)
            r.Storage.wal_applied;
          Alcotest.(check bool) "not torn" false r.Storage.wal_torn;
          (* The recovered state is snapshot + statements, exactly. *)
          let expected = Storage.load ~path:snapshot in
          List.iter
            (fun s -> ignore (Database.execute expected s))
            sample_statements;
          Alcotest.(check (list (list string))) "state" (dump expected)
            (dump r.Storage.db)))

let test_recover_discards_torn_tail () =
  with_tmp (fun snapshot ->
      with_tmp (fun wal ->
          Sys.remove wal;
          let db = small_database () in
          Storage.save db ~path:snapshot;
          write_wal wal sample_statements;
          let full = read_file wal in
          write_file wal (String.sub full 0 (String.length full - 2));
          let r = Storage.recover ~snapshot ~wal () in
          Alcotest.(check bool) "torn reported" true r.Storage.wal_torn;
          Alcotest.(check int) "prefix applied"
            (List.length sample_statements - 1)
            r.Storage.wal_applied))

let test_recover_without_snapshot () =
  with_tmp (fun wal ->
      Sys.remove wal;
      write_wal wal sample_statements;
      let r = Storage.recover ~snapshot:(wal ^ ".does-not-exist") ~wal () in
      Alcotest.(check bool) "no snapshot" false r.Storage.snapshot_loaded;
      let rows = Database.query r.Storage.db "SELECT k FROM kv" in
      Alcotest.(check int) "wal-only state" 2 (List.length rows.Exec.rows))

let test_checkpoint_resets_wal () =
  with_tmp (fun snapshot ->
      with_tmp (fun wal ->
          Sys.remove snapshot;
          Sys.remove wal;
          write_wal wal sample_statements;
          let r = Storage.recover ~snapshot ~wal () in
          Storage.checkpoint r.Storage.db ~path:snapshot ~wal;
          let r' = Storage.recover ~snapshot ~wal () in
          Alcotest.(check int) "wal empty after checkpoint" 0
            r'.Storage.wal_applied;
          Alcotest.(check (list (list string))) "state preserved"
            (dump r.Storage.db) (dump r'.Storage.db)))

(* A replication follower's cursor races a checkpoint: the cursor is taken
   against the old log, then [reset] truncates the log under it, then the
   cursor is consumed. Every such stale cursor must come back as a resync
   demand — never as records from the dead history — while the head cursor
   stays valid throughout, and the post-resync head replay must ship
   exactly the new history. *)
let test_since_cursor_races_reset () =
  with_tmp (fun wal ->
      Sys.remove wal;
      write_wal wal sample_statements;
      (* Chunked catch-up parks mid-log: max_bytes:1 ships one record. *)
      let mid = Wal.since ~max_bytes:1 ~path:wal ~from_pos:Wal.head_pos () in
      Alcotest.(check int) "one record consumed" 1
        (List.length mid.Wal.records);
      let parked = mid.Wal.next_pos and old_end = mid.Wal.end_pos in
      Alcotest.(check bool) "parked strictly inside the log" true
        (parked > Wal.head_pos && parked < old_end);
      (* The checkpoint truncates the log under both cursors. *)
      Wal.reset ~path:wal;
      List.iter
        (fun (label, from_pos) ->
          let c = Wal.since ~path:wal ~from_pos () in
          Alcotest.(check bool) (label ^ ": resync demanded") true c.Wal.resync;
          Alcotest.(check (list string))
            (label ^ ": nothing from the dead history")
            [] c.Wal.records;
          Alcotest.(check int) (label ^ ": rewound to head") Wal.head_pos
            c.Wal.next_pos)
        [ ("mid-log cursor", parked); ("old-end cursor", old_end) ];
      (* The head cursor is always a boundary — empty log included. *)
      let c = Wal.since ~path:wal ~from_pos:Wal.head_pos () in
      Alcotest.(check bool) "head cursor valid after reset" false c.Wal.resync;
      Alcotest.(check (list string)) "empty log ships nothing" [] c.Wal.records;
      (* New history grows after the checkpoint. The stale cursors still
         resync (they name no boundary of the new log), and the head
         replay ships exactly the new records. *)
      let fresh = [ "INSERT INTO kv VALUES (9, 'nine')"; "DELETE FROM kv" ] in
      write_wal wal fresh;
      let c = Wal.since ~path:wal ~from_pos:parked () in
      Alcotest.(check bool) "stale cursor still resyncs over new history"
        true c.Wal.resync;
      let c = Wal.since ~path:wal ~from_pos:Wal.head_pos () in
      Alcotest.(check (list string)) "head replay is the new history" fresh
        c.Wal.records;
      Alcotest.(check bool) "head replay is clean" false c.Wal.resync;
      Alcotest.(check int) "head replay lands at the end" c.Wal.end_pos
        c.Wal.next_pos)

(* The same race through [Storage.checkpoint] — the call a real primary
   makes — and a consumer that follows the documented protocol: resync
   from the snapshot, resume from head. The rebuilt state must equal the
   primary's exactly. *)
let test_since_cursor_races_storage_checkpoint () =
  with_tmp (fun snapshot ->
      with_tmp (fun wal ->
          Sys.remove snapshot;
          Sys.remove wal;
          write_wal wal sample_statements;
          (* The follower consumes part of the log... *)
          let mid = Wal.since ~max_bytes:40 ~path:wal ~from_pos:Wal.head_pos () in
          let parked = mid.Wal.next_pos in
          (* ...the primary checkpoints (snapshot + truncate) and keeps
             writing... *)
          let r = Storage.recover ~snapshot ~wal () in
          Storage.checkpoint r.Storage.db ~path:snapshot ~wal;
          let post = "INSERT INTO kv VALUES (7, 'seven')" in
          (let log = Wal.open_log ~path:wal in
           Wal.append log post;
           Wal.close log;
           ignore (Database.execute r.Storage.db post));
          (* ...and only then is the parked cursor consumed. *)
          let c = Wal.since ~path:wal ~from_pos:parked () in
          Alcotest.(check bool) "checkpoint invalidated the cursor" true
            c.Wal.resync;
          (* Follow the protocol: rebuild from the snapshot, then replay
             from the head. The result matches the primary byte for
             byte. *)
          let rebuilt = Storage.recover ~snapshot ~wal () in
          Alcotest.(check int) "head replay applied the post-checkpoint tail"
            1 rebuilt.Storage.wal_applied;
          Alcotest.(check (list (list string))) "follower state rebuilt"
            (dump r.Storage.db) (dump rebuilt.Storage.db)))

(* The real thing: a child process appends WAL records in a tight loop and
   is SIGKILLed mid-stream. Replay must recover a clean prefix of what the
   child wrote — however far it got — and recovery must build a database
   whose row count matches the count of recovered inserts. *)
let test_recover_after_sigkill () =
  with_tmp (fun wal ->
      Sys.remove wal;
      (let log = Wal.open_log ~path:wal in
       Wal.append log "CREATE TABLE kv (k INTEGER, v TEXT)";
       Wal.close log);
      match Unix.fork () with
      | 0 ->
        (* Child: append forever until killed. [sync:false] keeps the rate
           high; records survive SIGKILL once write(2) returns. *)
        let log = Wal.open_log ~path:wal in
        let i = ref 0 in
        (try
           while true do
             incr i;
             Wal.append ~sync:false log
               (Printf.sprintf "INSERT INTO kv VALUES (%d, 'value %d')" !i !i)
           done
         with _ -> ());
        Unix._exit 0
      | pid ->
        (* Let it write for a moment, then kill it abruptly. *)
        Thread.delay 0.15;
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        let r = Wal.replay ~path:wal in
        let n = List.length r.Wal.statements - 1 in
        Alcotest.(check bool) "child wrote something" true (n > 0);
        (* Statements are exactly the expected sequence 1..n. *)
        List.iteri
          (fun idx s ->
            if idx > 0 then
              Alcotest.(check string)
                (Printf.sprintf "record %d" idx)
                (Printf.sprintf "INSERT INTO kv VALUES (%d, 'value %d')" idx
                   idx)
                s)
          r.Wal.statements;
        let rec_ = Storage.recover ~wal () in
        Alcotest.(check int) "every recovered insert applied" n
          (List.length
             (Database.query rec_.Storage.db "SELECT k FROM kv").Exec.rows))

(* Kill-mid-save: run a child that saves a snapshot over and over and kill
   it; whatever instant the kill lands at, the snapshot path must hold a
   loadable database (the old or the new one — never a torn file). *)
let test_snapshot_survives_sigkill () =
  with_tmp (fun path ->
      let db = small_database () in
      Storage.save db ~path;
      match Unix.fork () with
      | 0 ->
        (try
           while true do
             Storage.save db ~path
           done
         with _ -> ());
        Unix._exit 0
      | pid ->
        Thread.delay 0.15;
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        let loaded = Storage.load ~path in
        Alcotest.(check (list (list string))) "snapshot loadable and right"
          (dump db) (dump loaded))

(* ------------------------------------------------------------------ *)
(* Byte formats, pinned as literal bytes rather than round trips: wire
   payloads and frames, snapshots, WAL files and shard maps must stay
   byte-identical whatever happens to the code that writes them. *)

let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let check_bytes what expected actual =
  Alcotest.(check string) what expected (hex actual)

let test_format_query_request () =
  check_bytes "query request"
    "0802000000000000000274720000000000000002736500000000000000070000000000\
     00000853454c45435420310000000000000001640000000000000009ffffffffffffff\
     fe"
    (Mope_net.Wire.encode_request ~trace_id:"tr" ~session:"se" ~req_id:7
       (Mope_net.Wire.Query
          { sql = "SELECT 1"; date_column = "d"; date_lo = 9; date_hi = -2 }))

let test_format_rows_response () =
  let rows =
    { Exec.columns = [ "a"; "b" ];
      rows =
        [ [| Value.Null; Value.Bool true; Value.Bool false; Value.Int (-5);
             Value.Float 1.5; Value.Str "xy"; Value.Date 10 |];
          [| Value.Int 300 |] ] }
  in
  check_bytes "rows response"
    "0882000000000000000300000000000000020000000000000001610000000000000001\
     6200000000000000020000000000000007000101010002fffffffffffffffb033ff800\
     0000000000040000000000000002787905000000000000000a00000000000000010200\
     0000000000012c"
    (Mope_net.Wire.encode_response ~req_id:3 (Mope_net.Wire.Rows rows))

let test_format_error_response () =
  check_bytes "error response"
    "08bf00000000000000040400000000000000046275737901000000000000000171013f\
     d0000000000000"
    (Mope_net.Wire.encode_response ~req_id:4
       (Mope_net.Wire.Error
          { code = Mope_net.Wire.Overloaded; message = "busy";
            query = Some "q"; retry_after = Some 0.25 }))

let test_format_frame () =
  let out = Buffer.create 32 in
  let io =
    { Mope_net.Transport.read = (fun _ _ _ -> 0);
      write =
        (fun b pos len ->
          Buffer.add_subbytes out b pos len;
          len);
      shutdown = ignore;
      close = ignore }
  in
  Mope_net.Wire.write_frame_t io
    (Mope_net.Wire.encode_response ~req_id:1 Mope_net.Wire.Pong);
  check_bytes "frame" "0000000af6740c1808810000000000000001"
    (Buffer.contents out)

let test_format_snapshot () =
  let db = Database.create () in
  List.iter
    (fun sql -> ignore (Database.execute db sql))
    [ "CREATE TABLE items (id INTEGER, name TEXT, price FLOAT)";
      "CREATE INDEX ON items (id)";
      "INSERT INTO items VALUES (1, 'pen', 2.5)";
      "INSERT INTO items VALUES (2, NULL, NULL)";
      "CREATE TABLE days (d DATE, ok BOOLEAN)";
      "INSERT INTO days VALUES (DATE '1970-01-03', TRUE)" ];
  check_bytes "snapshot"
    "4d4f50454442020a00000000000000ed452b6c6f000000000000000200000000000000\
     0464617973000000000000000200000000000000016400000000000000040000000000\
     0000026f6b000000000000000000000000000000010500000000000000020101000000\
     000000000000000000000000056974656d730000000000000003000000000000000269\
     64000000000000000100000000000000046e616d650000000000000003000000000000\
     0005707269636500000000000000020000000000000002020000000000000001040000\
     00000000000370656e0340040000000000000200000000000000020000000000000000\
     000100000000000000026964"
    (Storage.save_string db)

let test_format_wal () =
  with_tmp (fun path ->
      Sys.remove path;
      let log = Wal.open_log ~path in
      Wal.append log "INSERT INTO t VALUES (1)";
      Wal.append ~sync:false log "DELETE FROM t";
      Wal.close log;
      check_bytes "wal file"
        "4d4f504557414c010a000000189be8f43f494e5345525420494e544f20742056414c55\
         4553202831290000000d1d346d5944454c4554452046524f4d2074"
        (read_file path))

let test_format_shard_map () =
  with_tmp (fun path ->
      let map = Mope_cluster.Shard_map.create ~shards:3 ~range:100 in
      Mope_cluster.Shard_map.set_epoch map 1 4;
      Mope_cluster.Shard_map.save map ~path;
      check_bytes "shard map"
        "4d4f504553485244020a0000004044893c250000000000000064000000000000000300\
         0000000000000000000000000000220000000000000043000000000000000100000000\
         000000040000000000000001"
        (read_file path))

let () =
  Alcotest.run "storage"
    [ ( "snapshot",
        [ Alcotest.test_case "v2 roundtrip + header" `Quick
            test_v2_roundtrip_and_header;
          Alcotest.test_case "legacy v1 still loads" `Quick
            test_legacy_v1_still_loads;
          Alcotest.test_case "wrong magic rejected" `Quick test_wrong_magic;
          Alcotest.test_case "every truncation is Corrupt" `Quick
            test_truncation_sweep;
          Alcotest.test_case "every bit flip is Corrupt" `Slow
            test_bit_flip_sweep;
          Alcotest.test_case "trailing garbage rejected" `Quick
            test_trailing_garbage;
          Alcotest.test_case "atomic save" `Quick test_save_atomic;
          Alcotest.test_case "torn rename leaves the old snapshot" `Quick
            test_torn_rename ] );
      ( "wal",
        [ Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "missing file is empty" `Quick
            test_wal_missing_file_is_empty;
          Alcotest.test_case "bad header rejected" `Quick test_wal_bad_header;
          Alcotest.test_case "every truncation yields a valid prefix" `Quick
            test_wal_truncation_sweep;
          Alcotest.test_case "bit flips yield a valid prefix" `Slow
            test_wal_bit_flip_gives_prefix;
          Alcotest.test_case "open repairs a torn tail" `Quick
            test_wal_open_repairs_torn_tail ] );
      ( "recovery",
        [ Alcotest.test_case "snapshot + wal" `Quick
            test_recover_snapshot_plus_wal;
          Alcotest.test_case "torn tail discarded" `Quick
            test_recover_discards_torn_tail;
          Alcotest.test_case "wal without snapshot" `Quick
            test_recover_without_snapshot;
          Alcotest.test_case "checkpoint resets the wal" `Quick
            test_checkpoint_resets_wal;
          Alcotest.test_case "since cursor races a reset" `Quick
            test_since_cursor_races_reset;
          Alcotest.test_case "since cursor races a checkpoint" `Quick
            test_since_cursor_races_storage_checkpoint;
          Alcotest.test_case "kill -9 mid-append" `Quick
            test_recover_after_sigkill;
          Alcotest.test_case "kill -9 mid-save" `Quick
            test_snapshot_survives_sigkill ] );
      ( "formats",
        [ Alcotest.test_case "wire query request" `Quick
            test_format_query_request;
          Alcotest.test_case "wire rows response" `Quick
            test_format_rows_response;
          Alcotest.test_case "wire error response" `Quick
            test_format_error_response;
          Alcotest.test_case "wire frame" `Quick test_format_frame;
          Alcotest.test_case "snapshot" `Quick test_format_snapshot;
          Alcotest.test_case "wal file" `Quick test_format_wal;
          Alcotest.test_case "shard map" `Quick test_format_shard_map ] ) ]
