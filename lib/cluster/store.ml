open Mope_db
module Wire = Mope_net.Wire
module Metrics = Mope_obs.Metrics
module Trace = Mope_obs.Trace

(* Registered at module init; all no-ops until Metrics.set_enabled true. *)
let m_fetches =
  Metrics.counter ~help:"Fetch statements served by cluster stores"
    "mope_store_fetch_total" ()

let m_applies =
  Metrics.counter ~help:"Apply statements executed by cluster stores"
    "mope_store_apply_total" ()

let m_dedup_hits =
  Metrics.counter
    ~help:"Apply requests answered from the dedup table instead of re-executing"
    "mope_store_apply_dedup_total" ()

let m_fenced =
  Metrics.counter ~help:"Fetch/Apply requests refused with a Fenced error"
    "mope_store_fenced_total" ()

let m_wal_chunks =
  Metrics.counter ~help:"Replication chunks shipped by cluster stores"
    "mope_store_wal_chunks_total" ()

exception
  Fenced of { request_epoch : int; store_epoch : int; sealed : bool }

(* ------------------------------------------------------------------ *)
(* WAL record codec.

   v5 logged bare SQL. v6 prefixes two control shapes, both keyed on a NUL
   at byte 1 — a byte the SQL layer never emits, so plain statements (and
   every v5 log) decode unchanged:

     "R\x00" rid "\x00" sql     statement carrying its client request id
     "E\x00" digits             fencing-epoch adoption mark

   Replicas append the records verbatim, so a replica's WAL is
   byte-identical to its primary's prefix and WAL offsets stay valid
   cursors across a promotion. *)

type record =
  | Statement of { request_id : string; sql : string }
  | Epoch_mark of int

let encode_statement ~request_id sql =
  if request_id = "" then sql else "R\x00" ^ request_id ^ "\x00" ^ sql

let encode_epoch epoch = "E\x00" ^ string_of_int epoch

let decode_record r =
  let n = String.length r in
  if n >= 2 && r.[1] = '\x00' && (r.[0] = 'R' || r.[0] = 'E') then
    if r.[0] = 'R' then
      match String.index_from_opt r 2 '\x00' with
      | None ->
        Mope_error.raise_error "Store: WAL statement record has no id delimiter"
      | Some stop ->
        Statement
          { request_id = String.sub r 2 (stop - 2);
            sql = String.sub r (stop + 1) (n - stop - 1) }
    else
      match int_of_string_opt (String.sub r 2 (n - 2)) with
      | Some epoch when epoch >= 0 -> Epoch_mark epoch
      | _ -> Mope_error.raise_error "Store: malformed WAL epoch record"
  else Statement { request_id = ""; sql = r }

(* ------------------------------------------------------------------ *)
(* Bounded request-id dedup: a FIFO set. Entries are evicted oldest-first
   once [cap] ids are held, so memory stays bounded no matter how many
   retryable writes a long-lived cluster serves; a client only needs its id
   remembered across its own bounded retry window. *)

type dedup = {
  cap : int;
  ids : (string, unit) Hashtbl.t;
  order : string Queue.t;
}

let dedup_create cap =
  { cap = max 1 cap; ids = Hashtbl.create 64; order = Queue.create () }

let dedup_mem d rid = Hashtbl.mem d.ids rid

let dedup_remember d rid =
  if not (Hashtbl.mem d.ids rid) then begin
    Hashtbl.replace d.ids rid ();
    Queue.push rid d.order;
    while Queue.length d.order > d.cap do
      Hashtbl.remove d.ids (Queue.pop d.order)
    done
  end

let default_dedup_cap = 1024

type t = {
  db : Database.t;
  wal : Wal.t option;
  wal_sync : bool;
  dedup : dedup;
  mutable epoch : int;
  mutable sealed : bool;
  lock : Mutex.t;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let make ?wal_path ?(wal_sync = true) ?(dedup_cap = default_dedup_cap) db =
  { db;
    wal = (match wal_path with None -> None | Some path -> Some (Wal.open_log ~path));
    wal_sync;
    dedup = dedup_create dedup_cap;
    epoch = 0;
    sealed = false;
    lock = Mutex.create () }

let create ?wal_path ?wal_sync ?dedup_cap () =
  make ?wal_path ?wal_sync ?dedup_cap (Database.create ())

let recover ~wal_path ?wal_sync ?dedup_cap () =
  let r = Wal.replay ~path:wal_path in
  let db = Database.create () in
  let epoch = ref 0 in
  let rids = ref [] in
  List.iter
    (fun record ->
      match decode_record record with
      | Epoch_mark e -> epoch := e
      | Statement { request_id; sql } ->
        ignore (Database.execute db sql);
        if request_id <> "" then rids := request_id :: !rids)
    r.Wal.statements;
  let t = make ~wal_path ?wal_sync ?dedup_cap db in
  t.epoch <- !epoch;
  List.iter (dedup_remember t.dedup) (List.rev !rids);
  t

let database t = t.db

let check_epoch_locked t ~request_epoch =
  if t.sealed
     || (request_epoch > 0 && t.epoch > 0
         && not (Int.equal request_epoch t.epoch))
  then begin
    Metrics.inc m_fenced;
    raise
      (Fenced { request_epoch; store_epoch = t.epoch; sealed = t.sealed })
  end

let check_request_id request_id =
  if String.length request_id > Wire.max_request_id then
    Mope_error.failwithf "Store.apply: request id of %d bytes exceeds %d"
      (String.length request_id) Wire.max_request_id;
  if String.contains request_id '\x00' then
    Mope_error.raise_error "Store.apply: request id contains a NUL byte"

let log_record_locked t record =
  match t.wal with
  | None -> 0
  | Some wal ->
    Wal.append ~sync:t.wal_sync wal record;
    Wal.append_pos wal

let apply ?(epoch = 0) ?(request_id = "") t ~sql =
  if request_id <> "" then check_request_id request_id;
  locked t (fun () ->
      check_epoch_locked t ~request_epoch:epoch;
      if request_id <> "" && dedup_mem t.dedup request_id then begin
        Metrics.inc m_dedup_hits;
        match t.wal with None -> 0 | Some wal -> Wal.append_pos wal
      end
      else begin
        Metrics.inc m_applies;
        (* Execute first: a statement the engine rejects must not reach the
           log, or replicas would diverge on replay. *)
        ignore (Database.execute t.db sql);
        let pos = log_record_locked t (encode_statement ~request_id sql) in
        if request_id <> "" then dedup_remember t.dedup request_id;
        pos
      end)

let apply_record t record =
  locked t (fun () ->
      match decode_record record with
      | Epoch_mark e ->
        t.epoch <- max t.epoch e;
        ignore (log_record_locked t record)
      | Statement { request_id; sql } ->
        if request_id = "" || not (dedup_mem t.dedup request_id) then begin
          Metrics.inc m_applies;
          ignore (Database.execute t.db sql);
          ignore (log_record_locked t record);
          if request_id <> "" then dedup_remember t.dedup request_id
        end
        else Metrics.inc m_dedup_hits)

let fetch ?(epoch = 0) t ~sql =
  locked t (fun () ->
      check_epoch_locked t ~request_epoch:epoch;
      Metrics.inc m_fetches;
      match Database.execute t.db sql with
      | Database.Rows result -> result
      | Database.Affected _ ->
        Mope_error.raise_error ~query:sql "Store.fetch: not a SELECT")

let epoch t = locked t (fun () -> t.epoch)

let set_epoch t e =
  locked t (fun () ->
      if e < t.epoch then
        Mope_error.failwithf "Store.set_epoch: %d is behind current epoch %d"
          e t.epoch;
      if not (Int.equal e t.epoch) then begin
        t.epoch <- e;
        ignore (log_record_locked t (encode_epoch e))
      end)

let fence t ~epoch =
  locked t (fun () ->
      if epoch > 0 then begin
        t.sealed <- true;
        if epoch > t.epoch then t.epoch <- epoch
      end;
      t.epoch)

let is_sealed t = locked t (fun () -> t.sealed)

let wal_path_exn t =
  match t.wal with
  | Some wal -> Wal.path wal
  | None -> Mope_error.raise_error "Store.wal_since: store has no WAL"

let wal_since t ~from_pos ~max_bytes =
  (* Stateless file rescan; take the lock only to order against an
     in-flight append's write+fsync, so a shipped chunk never ends inside
     a half-written record. *)
  let path = wal_path_exn t in
  locked t (fun () ->
      Metrics.inc m_wal_chunks;
      Wal.since ~max_bytes ~path ~from_pos ())

let wal_pos t =
  locked t (fun () ->
      match t.wal with None -> 0 | Some wal -> Wal.append_pos wal)

let close t =
  locked t (fun () -> match t.wal with None -> () | Some wal -> Wal.close wal)

(* ------------------------------------------------------------------ *)
(* Wire adapter *)

let unsupported ?sql message =
  Wire.Error
    { code = Wire.Unsupported; message; query = sql; retry_after = None }

let guarded ?sql f =
  match f () with
  | resp -> resp
  | exception Fenced { request_epoch; store_epoch; sealed } ->
    let message =
      if sealed then
        Printf.sprintf "store sealed at epoch %d (request epoch %d)"
          store_epoch request_epoch
      else
        Printf.sprintf "fencing epoch mismatch: request epoch %d, store epoch %d"
          request_epoch store_epoch
    in
    Wire.Error { code = Wire.Fenced; message; query = sql; retry_after = None }
  | exception e ->
    Wire.Error
      { code = Wire.Exec_failed;
        message = Mope_error.describe_exn e;
        query = sql;
        retry_after = None }

let handler t (_header : Wire.header) = function
  | Wire.Ping -> Wire.Pong
  | Wire.Fetch { sql; epoch } ->
    guarded ~sql (fun () ->
        Trace.with_span "store_fetch" (fun () ->
            let result = fetch ~epoch t ~sql in
            Trace.add_item "rows" (List.length result.Exec.rows);
            Wire.Rows result))
  | Wire.Apply { sql; epoch; request_id } ->
    guarded ~sql (fun () ->
        Trace.with_span "store_apply" (fun () ->
            Wire.Applied { wal_pos = apply ~epoch ~request_id t ~sql }))
  | Wire.Fence { epoch } ->
    guarded (fun () -> Wire.Epoch_state { epoch = fence t ~epoch })
  | Wire.Wal_since { from_pos; max_bytes } ->
    guarded (fun () ->
        let c = wal_since t ~from_pos ~max_bytes in
        Wire.Wal_chunk
          { resync = c.Wal.resync;
            records = c.Wal.records;
            next_pos = c.Wal.next_pos;
            end_pos = c.Wal.end_pos })
  | Wire.Get_stats -> Mope_net.Service.stats ()
  | Wire.Query { sql; _ } ->
    unsupported ~sql "query sent to a shard store (stores only serve Fetch)"
  | Wire.Open_session _ | Wire.Authenticate _ | Wire.Rotate _ ->
    unsupported "tenant operation sent to a shard store"
