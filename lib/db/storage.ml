exception Corrupt of string

module Metrics = Mope_obs.Metrics
module Trace = Mope_obs.Trace

(* Registered at module init; all no-ops until Metrics.set_enabled true. *)
let m_save_seconds =
  Metrics.histogram ~help:"Snapshot save latency (serialize + fsync + rename)"
    "mope_storage_save_seconds" ()

let m_load_seconds =
  Metrics.histogram ~help:"Snapshot load latency (read + verify + rebuild)"
    "mope_storage_load_seconds" ()

let m_wal_replayed =
  Metrics.counter ~help:"WAL records replayed during recovery"
    "mope_storage_wal_replayed_total" ()

(* v1: magic ^ body (no checksum; still readable).
   v2: magic ^ u64 body length ^ u32 CRC-32(body) ^ body. *)
let magic_v1 = "MOPEDB\x01\n"
let magic_v2 = "MOPEDB\x02\n"

let ty_tag = function
  | Value.TBool -> 0
  | Value.TInt -> 1
  | Value.TFloat -> 2
  | Value.TStr -> 3
  | Value.TDate -> 4

let ty_of_tag = function
  | 0 -> Value.TBool
  | 1 -> Value.TInt
  | 2 -> Value.TFloat
  | 3 -> Value.TStr
  | 4 -> Value.TDate
  | n -> raise (Corrupt (Printf.sprintf "unknown type tag %d" n))

let body_string db =
  let buf = Buffer.create (1 lsl 16) in
  let names = Database.tables db in
  Codec.put_int buf (List.length names);
  List.iter
    (fun name ->
      let table = Database.table_exn db name in
      let schema = Table.schema table in
      Codec.put_string buf name;
      let columns = Schema.columns schema in
      Codec.put_int buf (List.length columns);
      List.iter
        (fun c ->
          Codec.put_string buf c.Schema.name;
          Codec.put_int buf (ty_tag c.Schema.ty))
        columns;
      Codec.put_int buf (Table.length table);
      Table.iter table (fun _ row -> Array.iter (Codec.put_value buf) row);
      let indexed =
        List.map
          (fun col -> (Schema.column_at schema col).Schema.name)
          (Table.indexed_columns table)
        |> List.sort String.compare
      in
      Codec.put_int buf (List.length indexed);
      List.iter (Codec.put_string buf) indexed)
    names;
  Buffer.contents buf

let save_string db =
  let body = body_string db in
  let buf = Buffer.create (String.length body + 32) in
  Buffer.add_string buf magic_v2;
  Codec.put_int buf (String.length body);
  Buffer.add_int32_be buf (Crc32.digest body);
  Buffer.add_string buf body;
  Buffer.contents buf

(* Parse the table payload from the cursor to the end of the data. *)
let parse_body cur =
  let db = Database.create () in
  let n_tables = Codec.get_nat cur in
  for _ = 1 to n_tables do
    let name = Codec.get_string cur in
    let n_cols = Codec.get_nat cur in
    if n_cols <= 0 then raise (Corrupt "table with no columns");
    let columns =
      List.init n_cols (fun _ ->
          let col_name = Codec.get_string cur in
          let ty = ty_of_tag (Codec.get_nat cur) in
          { Schema.name = col_name; ty })
    in
    let schema =
      try Schema.make columns
      with Invalid_argument msg -> raise (Corrupt msg)
    in
    let table =
      try Database.create_table db ~name ~schema
      with Invalid_argument msg -> raise (Corrupt msg)
    in
    let n_rows = Codec.get_nat cur in
    for _ = 1 to n_rows do
      (* Explicit loop: Array.init's evaluation order is unspecified. *)
      let row = Array.make n_cols Value.Null in
      for i = 0 to n_cols - 1 do
        row.(i) <- Codec.get_value cur
      done;
      match Table.insert table row with
      | _ -> ()
      | exception Invalid_argument msg -> raise (Corrupt msg)
    done;
    let n_indexes = Codec.get_nat cur in
    for _ = 1 to n_indexes do
      let column = Codec.get_string cur in
      match Table.create_index table column with
      | () -> ()
      | exception Invalid_argument msg -> raise (Corrupt msg)
    done
  done;
  if Codec.remaining cur <> 0 then raise (Corrupt "trailing bytes");
  db

let starts_with prefix data =
  String.length data >= String.length prefix
  && String.equal (String.sub data 0 (String.length prefix)) prefix

let corrupt msg = Corrupt msg

let load_string data =
  (* The parse must end in a database or [Corrupt] — never a stray
     [Invalid_argument]/[Failure] from a substrate module fed garbage. *)
  let guarded parse =
    try parse () with
    | Corrupt _ as e -> raise e
    | Invalid_argument msg | Failure msg -> raise (Corrupt msg)
  in
  if starts_with magic_v2 data then begin
    let cur = Codec.cursor corrupt ~pos:(String.length magic_v2) data in
    let body_len = Codec.get_nat cur in
    let crc = Int32.of_int (Codec.get_u32 cur) in
    if not (Int.equal (Codec.remaining cur) body_len) then
      raise (Corrupt "body length mismatch");
    if not (Int32.equal (Crc32.sub data ~pos:(Codec.pos cur) ~len:body_len) crc)
    then raise (Corrupt "checksum mismatch");
    guarded (fun () -> parse_body cur)
  end
  else if starts_with magic_v1 data then
    (* Legacy pre-checksum snapshot: still readable; a re-save upgrades. *)
    guarded (fun () ->
        parse_body (Codec.cursor corrupt ~pos:(String.length magic_v1) data))
  else raise (Corrupt "bad magic header")

let save db ~path =
  Trace.with_span "snapshot_save" (fun () ->
      Metrics.time m_save_seconds (fun () ->
          Codec.replace_file ~path (save_string db)))

let load ~path =
  Trace.with_span "snapshot_load" (fun () ->
      Metrics.time m_load_seconds (fun () ->
          load_string (Codec.read_file path)))

(* ------------------------------------------------------------------ *)
(* Crash recovery: snapshot + longest valid WAL prefix. *)

type recovery = {
  db : Database.t;
  snapshot_loaded : bool;
  wal_applied : int;
  wal_torn : bool;
}

let recover ?snapshot ?wal () =
  let db, snapshot_loaded =
    match snapshot with
    | Some path when Sys.file_exists path -> (load ~path, true)
    | _ -> (Database.create (), false)
  in
  match wal with
  | None -> { db; snapshot_loaded; wal_applied = 0; wal_torn = false }
  | Some wal_path ->
    let r =
      try Wal.replay ~path:wal_path
      with Wal.Corrupt msg -> raise (Corrupt ("wal: " ^ msg))
    in
    List.iteri
      (fun i statement ->
        (* A CRC-valid record that will not execute is not a torn tail —
           the log and the snapshot disagree, and silently skipping it
           would resurrect a different database than the one that crashed. *)
        (try ignore (Database.execute db statement)
         with e ->
           raise
             (Corrupt
                (Printf.sprintf "wal: record %d failed to replay: %s" i
                   (Mope_error.describe_exn e))));
        Metrics.inc m_wal_replayed)
      r.Wal.statements;
    { db; snapshot_loaded;
      wal_applied = List.length r.Wal.statements;
      wal_torn = r.Wal.torn }

let checkpoint db ~path ~wal =
  save db ~path;
  Wal.reset ~path:wal
