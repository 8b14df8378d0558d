exception Corrupt of string

module Metrics = Mope_obs.Metrics
module Trace = Mope_obs.Trace

(* Registered at module init; all no-ops until Metrics.set_enabled true. *)
let m_append_seconds =
  Metrics.histogram ~help:"WAL append latency (write + optional fsync)"
    "mope_wal_append_seconds" ()

let m_fsyncs =
  Metrics.counter ~help:"WAL fsyncs issued by append" "mope_wal_fsync_total" ()

let magic = "MOPEWAL\x01\n"

(* Sanity cap on one record: rejects garbage lengths in torn tails fast. *)
let max_record = 64 * 1024 * 1024

type t = { fd : Unix.file_descr; path : string; mutable closed : bool }

let path t = t.path

type replay = { statements : string list; torn : bool; valid_bytes : int }

(* [valid_bytes] counts the header; 0 means even the header is torn. *)
let scan data =
  let mlen = String.length magic in
  let n = String.length data in
  if n < mlen then
    if String.equal data (String.sub magic 0 n) then
      (* A crash during the very first write tore the header itself. *)
      { statements = []; torn = n > 0; valid_bytes = 0 }
    else raise (Corrupt "bad wal header")
  else if not (String.equal (String.sub data 0 mlen) magic) then
    raise (Corrupt "bad wal header")
  else begin
    let rec go pos acc =
      match Codec.read_record data ~pos ~max_len:max_record with
      | None -> (acc, pos)
      | Some payload -> go (pos + 8 + String.length payload) (payload :: acc)
    in
    let rev_statements, valid_bytes = go mlen [] in
    { statements = List.rev rev_statements;
      torn = valid_bytes < n;
      valid_bytes }
  end

let replay ~path =
  match Codec.read_file path with
  | exception Sys_error _ -> { statements = []; torn = false; valid_bytes = 0 }
  | data -> scan data

let open_log ~path =
  let r = replay ~path in
  let fd = Unix.openfile path [ O_RDWR; O_CREAT; O_CLOEXEC ] 0o644 in
  try
    if r.valid_bytes < String.length magic then begin
      (* Fresh file (or a header torn by a first-write crash): start over. *)
      Unix.ftruncate fd 0;
      Codec.write_all (Unix.write fd) magic
    end
    else if r.torn then
      (* Drop the torn tail so new records extend the valid prefix. *)
      Unix.ftruncate fd r.valid_bytes;
    Unix.fsync fd;
    (* O_CREAT may have made a new directory entry; make it durable. *)
    Codec.fsync_dir path;
    ignore (Unix.lseek fd 0 Unix.SEEK_END);
    { fd; path; closed = false }
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let append_pos t =
  if t.closed then invalid_arg "Wal.append_pos: log is closed";
  Unix.lseek t.fd 0 Unix.SEEK_CUR

let append ?(sync = true) t statement =
  if t.closed then invalid_arg "Wal.append: log is closed";
  let len = String.length statement in
  if len = 0 || len > max_record then
    invalid_arg "Wal.append: bad statement length";
  (* One write(2) per record: a crash can tear this record but cannot
     interleave it with a neighbour. *)
  let record = Codec.record statement in
  Trace.with_span "wal_append" (fun () ->
      Metrics.time m_append_seconds (fun () ->
          Codec.write_all (Unix.write t.fd) record;
          if sync then begin
            Metrics.inc m_fsyncs;
            Unix.fsync t.fd
          end))

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let reset ~path =
  let fd = Unix.openfile path [ O_RDWR; O_CREAT; O_CLOEXEC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.ftruncate fd 0;
      Codec.write_all (Unix.write fd) magic;
      Unix.fsync fd);
  (* The truncation (or O_CREAT creation) is only durable once the
     directory entry is. *)
  Codec.fsync_dir path

(* ------------------------------------------------------------------ *)
(* Streaming cursor for replication: read the records that follow a
   previously returned position. Positions are plain file offsets on
   valid record boundaries; [0] (or anything inside the header) means
   "from the beginning". *)

let head_pos = String.length magic

type chunk = {
  records : string list;
  next_pos : int;
  end_pos : int;
  resync : bool;
}

let default_chunk_bytes = 1 lsl 20

let since ?(max_bytes = default_chunk_bytes) ~path ~from_pos () =
  let scanned = replay ~path in
  if scanned.valid_bytes < head_pos then
    (* Missing or still-header-torn log: nothing to ship. A follower that
       had already consumed records must restart from scratch. *)
    { records = []; next_pos = head_pos; end_pos = head_pos;
      resync = from_pos > head_pos }
  else begin
    let end_pos = scanned.valid_bytes in
    let start = if from_pos <= head_pos then head_pos else from_pos in
    (* Walk the valid prefix, collecting the records whose boundaries start
       at or after [start]; cap the chunk at [max_bytes] of payload, always
       shipping at least one record so progress is guaranteed even when a
       single record exceeds the cap. If [start] never lands exactly on a
       record boundary the cursor is stale — a checkpoint [reset] truncated
       the log under the follower, or a torn tail was cut — and the
       follower's history has diverged: it must resync from scratch. *)
    let records = ref [] and taken = ref 0 in
    let cursor = ref head_pos and next = ref start and seen_start = ref false in
    if Int.equal start head_pos then seen_start := true;
    List.iter
      (fun stmt ->
        let rec_end = !cursor + 8 + String.length stmt in
        if Int.equal !cursor start then seen_start := true;
        if !seen_start
           && Int.equal !next !cursor
           && (!taken = 0 || !taken + String.length stmt <= max_bytes)
        then begin
          records := stmt :: !records;
          taken := !taken + String.length stmt;
          next := rec_end
        end;
        cursor := rec_end)
      scanned.statements;
    if Int.equal start end_pos then seen_start := true;
    if not !seen_start then
      { records = []; next_pos = head_pos; end_pos; resync = true }
    else
      { records = List.rev !records; next_pos = !next; end_pos;
        resync = false }
  end

