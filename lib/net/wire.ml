open Mope_db

exception Protocol_error of string

exception Version_mismatch of { peer_version : int }

let fail fmt = Printf.ksprintf (fun msg -> raise (Protocol_error msg)) fmt

let version = 8

let max_frame = 16 * 1024 * 1024

(* Trace ids ride in every request header; bounding them keeps a hostile
   header from smuggling bulk data into server-side trace storage. *)
let max_trace_id = 64

(* Client-minted request ids (v6) bound [Apply] dedup-table entries the
   same way. *)
let max_request_id = 64

(* Session tokens (v7) ride in the request header next to the trace id;
   tenant ids key registry lookups and metric labels. Both are bounded so
   a hostile header cannot smuggle bulk data into session or label
   storage. Nonces and MACs are hex renderings of at most 32 bytes. *)
let max_session = 64

let max_tenant_id = 64

let max_mac = 128

type stats = {
  metrics_text : string;
  metrics_json : string;
  traces : Mope_obs.Trace.dump list;
}

type header = { trace_id : string; session : string; req_id : int }

let no_header = { trace_id = ""; session = ""; req_id = 0 }

type request =
  | Ping
  | Query of {
      sql : string;
      date_column : string;
      date_lo : Date.t;
      date_hi : Date.t;
    }
  | Get_stats
  | Fetch of { sql : string; epoch : int }
  | Apply of { sql : string; epoch : int; request_id : string }
  | Wal_since of { from_pos : int; max_bytes : int }
  | Fence of { epoch : int }
  | Open_session of { tenant : string }
  | Authenticate of { tenant : string; nonce : string; mac : string }
  | Rotate of { tenant : string; status_only : bool }

type error_code =
  | Bad_frame
  | Unsupported
  | Exec_failed
  | Overloaded
  | Internal
  | Fenced
  | Auth_failed
  | Unknown_tenant

type response =
  | Pong
  | Rows of Exec.result
  | Stats of stats
  | Applied of { wal_pos : int }
  | Wal_chunk of {
      resync : bool;
      records : string list;
      next_pos : int;
      end_pos : int;
    }
  | Epoch_state of { epoch : int }
  | Session_challenge of { nonce : string }
  | Session_ok of { token : string }
  | Rotation of {
      state : string;
      generation : int;
      rows_moved : int;
      rows_total : int;
    }
  | Unsupported_version of { server_version : int }
  | Error of {
      code : error_code;
      message : string;
      query : string option;
      retry_after : float option;
    }

let error_code_to_string = function
  | Bad_frame -> "bad-frame"
  | Unsupported -> "unsupported"
  | Exec_failed -> "exec-failed"
  | Overloaded -> "overloaded"
  | Internal -> "internal"
  | Fenced -> "fenced"
  | Auth_failed -> "auth-failed"
  | Unknown_tenant -> "unknown-tenant"

(* ------------------------------------------------------------------ *)
(* Primitive encoders (big-endian, same conventions as Storage). *)

let put_int64 buf v =
  for byte = 0 to 7 do
    let shift = 8 * (7 - byte) in
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v shift) 0xFFL)))
  done

let put_int buf v = put_int64 buf (Int64.of_int v)

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let put_string_opt buf = function
  | None -> Buffer.add_char buf '\x00'
  | Some s ->
    Buffer.add_char buf '\x01';
    put_string buf s

let put_float_opt buf = function
  | None -> Buffer.add_char buf '\x00'
  | Some f ->
    Buffer.add_char buf '\x01';
    put_int64 buf (Int64.bits_of_float f)

let put_value buf = function
  | Value.Null -> Buffer.add_char buf '\x00'
  | Value.Bool b ->
    Buffer.add_char buf '\x01';
    Buffer.add_char buf (if b then '\x01' else '\x00')
  | Value.Int i ->
    Buffer.add_char buf '\x02';
    put_int buf i
  | Value.Float f ->
    Buffer.add_char buf '\x03';
    put_int64 buf (Int64.bits_of_float f)
  | Value.Str s ->
    Buffer.add_char buf '\x04';
    put_string buf s
  | Value.Date d ->
    Buffer.add_char buf '\x05';
    put_int buf d

(* ------------------------------------------------------------------ *)
(* Primitive decoders over a cursor. *)

type cursor = { data : string; mutable pos : int }

(* Overflow-safe: [cur.pos + n] could wrap for a hostile 62-bit length. *)
let need cur n =
  if n < 0 || n > String.length cur.data - cur.pos then fail "truncated payload"

let get_byte cur =
  need cur 1;
  let b = Char.code cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  b

let get_int64 cur =
  need cur 8;
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_byte cur))
  done;
  !v

let get_int cur =
  let v = get_int64 cur in
  let i = Int64.to_int v in
  if Int64.of_int i <> v then fail "integer out of range";
  i

let get_nat cur =
  let v = get_int cur in
  if v < 0 then fail "negative size";
  v

let get_string cur =
  let len = get_nat cur in
  need cur len;
  let s = String.sub cur.data cur.pos len in
  cur.pos <- cur.pos + len;
  s

let get_string_opt cur =
  match get_byte cur with
  | 0 -> None
  | 1 -> Some (get_string cur)
  | n -> fail "bad option tag %d" n

let get_float_opt cur =
  match get_byte cur with
  | 0 -> None
  | 1 -> Some (Int64.float_of_bits (get_int64 cur))
  | n -> fail "bad option tag %d" n

let get_value cur =
  match get_byte cur with
  | 0 -> Value.Null
  | 1 -> Value.Bool (get_byte cur = 1)
  | 2 -> Value.Int (get_int cur)
  | 3 -> Value.Float (Int64.float_of_bits (get_int64 cur))
  | 4 -> Value.Str (get_string cur)
  | 5 -> Value.Date (get_int cur)
  | n -> fail "unknown value tag %d" n

(* ------------------------------------------------------------------ *)
(* Message tags. Requests live below 0x80, responses at or above it. 0x03
   and 0x83 (the retired Get_counters/Counters pair) stay unassigned so a
   stale peer's frame decodes as an unknown tag, never as another op. *)

let tag_ping = 0x01
let tag_query = 0x02
let tag_get_stats = 0x04
let tag_fetch = 0x05
let tag_apply = 0x06
let tag_wal_since = 0x07
let tag_fence = 0x08
let tag_open_session = 0x09
let tag_authenticate = 0x0A
let tag_rotate = 0x0B
let tag_pong = 0x81
let tag_rows = 0x82
let tag_stats = 0x84
let tag_applied = 0x85
let tag_wal_chunk = 0x86
let tag_epoch_state = 0x87
let tag_session_challenge = 0x88
let tag_session_ok = 0x89
let tag_rotation = 0x8A
let tag_unsupported_version = 0xBE
let tag_error = 0xBF

let error_code_tag = function
  | Bad_frame -> 1
  | Unsupported -> 2
  | Exec_failed -> 3
  | Overloaded -> 4
  | Internal -> 5
  | Fenced -> 6
  | Auth_failed -> 7
  | Unknown_tenant -> 8

let error_code_of_tag = function
  | 1 -> Bad_frame
  | 2 -> Unsupported
  | 3 -> Exec_failed
  | 4 -> Overloaded
  | 5 -> Internal
  | 6 -> Fenced
  | 7 -> Auth_failed
  | 8 -> Unknown_tenant
  | n -> fail "unknown error code %d" n

let payload tag body =
  let buf = Buffer.create 256 in
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (Char.chr tag);
  body buf;
  Buffer.contents buf

(* [tag_unsupported_version] is the one version-independent message: it is
   exactly what a peer speaking the wrong version needs to be able to read,
   so its decode is admitted under any version byte and its body layout
   (a single integer) is frozen forever. Every other tag is gated on an
   exact version match; the mismatch raises [Version_mismatch] — not
   [Protocol_error] — so a server can answer with the structured response
   instead of a generic [Bad_frame]. *)
let open_payload data =
  let cur = { data; pos = 0 } in
  let v = get_byte cur in
  let tag = get_byte cur in
  if v <> version && tag <> tag_unsupported_version then
    raise (Version_mismatch { peer_version = v });
  (tag, cur)

let close_payload cur =
  if cur.pos <> String.length cur.data then fail "trailing bytes after message"

(* ------------------------------------------------------------------ *)
(* Requests. The request header rides between the tag and the body: the
   v3 trace id (possibly empty), then the v7 session token (empty until
   the client has completed the [Open_session]/[Authenticate] handshake),
   then the v8 request id, so every request kind can be correlated with
   the server-side span tree it produces, attributed to the tenant it
   runs as, and — when pipelined — matched with its response. A request
   id of 0 means "unassigned" (a lockstep client awaiting one response
   at a time); pipelining clients assign ids starting from 1. Since v8
   every response except the frozen [Unsupported_version] echoes the
   request id between its tag and body. *)

let check_trace_id tid =
  if String.length tid > max_trace_id then
    fail "trace id of %d bytes exceeds %d" (String.length tid) max_trace_id

let check_request_id rid =
  if String.length rid > max_request_id then
    fail "request id of %d bytes exceeds %d" (String.length rid) max_request_id

let check_session tok =
  if String.length tok > max_session then
    fail "session token of %d bytes exceeds %d" (String.length tok) max_session

let check_tenant tid =
  if String.length tid > max_tenant_id then
    fail "tenant id of %d bytes exceeds %d" (String.length tid) max_tenant_id

let check_mac label s =
  if String.length s > max_mac then
    fail "%s of %d bytes exceeds %d" label (String.length s) max_mac

(* Fencing epochs are small positive integers; 0 means "unfenced". A
   negative epoch can only be malice or corruption. *)
let check_epoch epoch = if epoch < 0 then fail "negative epoch %d" epoch

(* Request ids are client-minted correlation numbers; 0 = unassigned. *)
let check_req_id id = if id < 0 then fail "negative request id %d" id

let payload_req header tag body =
  check_trace_id header.trace_id;
  check_session header.session;
  check_req_id header.req_id;
  payload tag (fun buf ->
      put_string buf header.trace_id;
      put_string buf header.session;
      put_int buf header.req_id;
      body buf)

let encode_request ?(trace_id = "") ?(session = "") ?(req_id = 0) req =
  let header = { trace_id; session; req_id } in
  match req with
  | Ping -> payload_req header tag_ping (fun _ -> ())
  | Query { sql; date_column; date_lo; date_hi } ->
    payload_req header tag_query (fun buf ->
        put_string buf sql;
        put_string buf date_column;
        put_int buf date_lo;
        put_int buf date_hi)
  | Get_stats -> payload_req header tag_get_stats (fun _ -> ())
  | Fetch { sql; epoch } ->
    check_epoch epoch;
    payload_req header tag_fetch (fun buf ->
        put_string buf sql;
        put_int buf epoch)
  | Apply { sql; epoch; request_id } ->
    check_epoch epoch;
    check_request_id request_id;
    payload_req header tag_apply (fun buf ->
        put_string buf sql;
        put_int buf epoch;
        put_string buf request_id)
  | Wal_since { from_pos; max_bytes } ->
    payload_req header tag_wal_since (fun buf ->
        put_int buf from_pos;
        put_int buf max_bytes)
  | Fence { epoch } ->
    check_epoch epoch;
    payload_req header tag_fence (fun buf -> put_int buf epoch)
  | Open_session { tenant } ->
    check_tenant tenant;
    payload_req header tag_open_session (fun buf -> put_string buf tenant)
  | Authenticate { tenant; nonce; mac } ->
    check_tenant tenant;
    check_mac "nonce" nonce;
    check_mac "mac" mac;
    payload_req header tag_authenticate (fun buf ->
        put_string buf tenant;
        put_string buf nonce;
        put_string buf mac)
  | Rotate { tenant; status_only } ->
    check_tenant tenant;
    payload_req header tag_rotate (fun buf ->
        put_string buf tenant;
        Buffer.add_char buf (if status_only then '\x01' else '\x00'))

let decode_request data =
  let tag, cur = open_payload data in
  let trace_id = get_string cur in
  check_trace_id trace_id;
  let session = get_string cur in
  check_session session;
  let req_id = get_nat cur in
  let req =
    if tag = tag_ping then Ping
    else if tag = tag_query then begin
      let sql = get_string cur in
      let date_column = get_string cur in
      let date_lo = get_int cur in
      let date_hi = get_int cur in
      Query { sql; date_column; date_lo; date_hi }
    end
    else if tag = tag_get_stats then Get_stats
    else if tag = tag_fetch then begin
      let sql = get_string cur in
      let epoch = get_nat cur in
      Fetch { sql; epoch }
    end
    else if tag = tag_apply then begin
      let sql = get_string cur in
      let epoch = get_nat cur in
      let request_id = get_string cur in
      check_request_id request_id;
      Apply { sql; epoch; request_id }
    end
    else if tag = tag_wal_since then begin
      let from_pos = get_nat cur in
      let max_bytes = get_nat cur in
      Wal_since { from_pos; max_bytes }
    end
    else if tag = tag_fence then Fence { epoch = get_nat cur }
    else if tag = tag_open_session then begin
      let tenant = get_string cur in
      check_tenant tenant;
      Open_session { tenant }
    end
    else if tag = tag_authenticate then begin
      let tenant = get_string cur in
      check_tenant tenant;
      let nonce = get_string cur in
      check_mac "nonce" nonce;
      let mac = get_string cur in
      check_mac "mac" mac;
      Authenticate { tenant; nonce; mac }
    end
    else if tag = tag_rotate then begin
      let tenant = get_string cur in
      check_tenant tenant;
      let status_only =
        match get_byte cur with
        | 0 -> false
        | 1 -> true
        | n -> fail "bad status_only flag %d" n
      in
      Rotate { tenant; status_only }
    end
    else fail "unknown request tag 0x%02x" tag
  in
  close_payload cur;
  ({ trace_id; session; req_id }, req)

(* ------------------------------------------------------------------ *)
(* Responses. Since v8 every response carries a one-field header — the
   echoed request id — between its tag and body, so a pipelining client
   can match out-of-order completions to the requests it has in flight.
   [Unsupported_version] is the lone exception: its body layout is frozen
   at the v7 shape (a bare integer) so peers of any version can read it,
   and it answers a request whose header the server could not necessarily
   decode anyway. *)

let payload_resp req_id tag body =
  check_req_id req_id;
  payload tag (fun buf ->
      put_int buf req_id;
      body buf)

let encode_response ?(req_id = 0) resp =
  match resp with
  | Pong -> payload_resp req_id tag_pong (fun _ -> ())
  | Rows result ->
    payload_resp req_id tag_rows (fun buf ->
        put_int buf (List.length result.Exec.columns);
        List.iter (put_string buf) result.Exec.columns;
        put_int buf (List.length result.Exec.rows);
        List.iter
          (fun row ->
            put_int buf (Array.length row);
            Array.iter (put_value buf) row)
          result.Exec.rows)
  | Stats s ->
    payload_resp req_id tag_stats (fun buf ->
        put_string buf s.metrics_text;
        put_string buf s.metrics_json;
        put_int buf (List.length s.traces);
        List.iter
          (fun (d : Mope_obs.Trace.dump) ->
            put_string buf d.Mope_obs.Trace.id;
            put_int buf (List.length d.Mope_obs.Trace.spans);
            List.iter
              (fun (sp : Mope_obs.Trace.span) ->
                put_string buf sp.Mope_obs.Trace.name;
                put_int buf sp.Mope_obs.Trace.depth;
                put_int64 buf (Int64.bits_of_float sp.Mope_obs.Trace.start_us);
                put_int64 buf (Int64.bits_of_float sp.Mope_obs.Trace.dur_us);
                put_int buf (List.length sp.Mope_obs.Trace.items);
                List.iter
                  (fun (k, n) ->
                    put_string buf k;
                    put_int buf n)
                  sp.Mope_obs.Trace.items)
              d.Mope_obs.Trace.spans)
          s.traces)
  | Applied { wal_pos } ->
    payload_resp req_id tag_applied (fun buf -> put_int buf wal_pos)
  | Epoch_state { epoch } ->
    payload_resp req_id tag_epoch_state (fun buf -> put_int buf epoch)
  | Session_challenge { nonce } ->
    payload_resp req_id tag_session_challenge (fun buf -> put_string buf nonce)
  | Session_ok { token } ->
    payload_resp req_id tag_session_ok (fun buf -> put_string buf token)
  | Rotation { state; generation; rows_moved; rows_total } ->
    payload_resp req_id tag_rotation (fun buf ->
        put_string buf state;
        put_int buf generation;
        put_int buf rows_moved;
        put_int buf rows_total)
  | Unsupported_version { server_version } ->
    (* Frozen v7 shape: no response header, readable under any version. *)
    payload tag_unsupported_version (fun buf -> put_int buf server_version)
  | Wal_chunk { resync; records; next_pos; end_pos } ->
    payload_resp req_id tag_wal_chunk (fun buf ->
        Buffer.add_char buf (if resync then '\x01' else '\x00');
        put_int buf (List.length records);
        List.iter (put_string buf) records;
        put_int buf next_pos;
        put_int buf end_pos)
  | Error { code; message; query; retry_after } ->
    payload_resp req_id tag_error (fun buf ->
        Buffer.add_char buf (Char.chr (error_code_tag code));
        put_string buf message;
        put_string_opt buf query;
        put_float_opt buf retry_after)

let decode_response data =
  let tag, cur = open_payload data in
  (* The echoed request id (v8). [Unsupported_version] predates it and
     stays header-less so any-version peers can read it; report it as
     id 0, the "unassigned" id. *)
  let req_id = if tag = tag_unsupported_version then 0 else get_nat cur in
  let resp =
    (* A count must be plausible for the bytes that remain — each column
       name and each row costs at least an 8-byte length prefix, each value
       at least its tag byte — or a corrupt count would reach [Array.make]/
       [List.init] and allocate unboundedly before the payload runs dry. *)
    let plausible what n per =
      if n > (String.length cur.data - cur.pos) / per then
        fail "implausible %s count %d" what n
    in
    if tag = tag_pong then Pong
    else if tag = tag_rows then begin
      let n_cols = get_nat cur in
      plausible "column" n_cols 8;
      let columns = List.init n_cols (fun _ -> get_string cur) in
      let n_rows = get_nat cur in
      plausible "row" n_rows 8;
      let rows =
        List.init n_rows (fun _ ->
            let arity = get_nat cur in
            plausible "value" arity 1;
            (* Explicit loop: Array.init's evaluation order is unspecified. *)
            let row = Array.make arity Value.Null in
            for i = 0 to arity - 1 do
              row.(i) <- get_value cur
            done;
            row)
      in
      Rows { Exec.columns; rows }
    end
    else if tag = tag_stats then begin
      let metrics_text = get_string cur in
      let metrics_json = get_string cur in
      let n_traces = get_nat cur in
      plausible "trace" n_traces 16;
      let traces =
        List.init n_traces (fun _ ->
            let id = get_string cur in
            let n_spans = get_nat cur in
            plausible "span" n_spans 32;
            let spans =
              List.init n_spans (fun _ ->
                  let name = get_string cur in
                  let depth = get_int cur in
                  let start_us = Int64.float_of_bits (get_int64 cur) in
                  let dur_us = Int64.float_of_bits (get_int64 cur) in
                  let n_items = get_nat cur in
                  plausible "item" n_items 16;
                  let items =
                    List.init n_items (fun _ ->
                        let k = get_string cur in
                        let n = get_int cur in
                        (k, n))
                  in
                  { Mope_obs.Trace.name; depth; start_us; dur_us; items })
            in
            { Mope_obs.Trace.id; spans })
      in
      Stats { metrics_text; metrics_json; traces }
    end
    else if tag = tag_applied then Applied { wal_pos = get_nat cur }
    else if tag = tag_epoch_state then Epoch_state { epoch = get_nat cur }
    else if tag = tag_session_challenge then begin
      let nonce = get_string cur in
      check_mac "nonce" nonce;
      Session_challenge { nonce }
    end
    else if tag = tag_session_ok then begin
      let token = get_string cur in
      check_session token;
      Session_ok { token }
    end
    else if tag = tag_rotation then begin
      let state = get_string cur in
      let generation = get_nat cur in
      let rows_moved = get_nat cur in
      let rows_total = get_nat cur in
      Rotation { state; generation; rows_moved; rows_total }
    end
    else if tag = tag_unsupported_version then
      Unsupported_version { server_version = get_nat cur }
    else if tag = tag_wal_chunk then begin
      let resync =
        match get_byte cur with
        | 0 -> false
        | 1 -> true
        | n -> fail "bad resync flag %d" n
      in
      let n_records = get_nat cur in
      plausible "record" n_records 8;
      let records = List.init n_records (fun _ -> get_string cur) in
      let next_pos = get_nat cur in
      let end_pos = get_nat cur in
      Wal_chunk { resync; records; next_pos; end_pos }
    end
    else if tag = tag_error then begin
      let code = error_code_of_tag (get_byte cur) in
      let message = get_string cur in
      let query = get_string_opt cur in
      let retry_after = get_float_opt cur in
      Error { code; message; query; retry_after }
    end
    else fail "unknown response tag 0x%02x" tag
  in
  close_payload cur;
  (req_id, resp)

(* ------------------------------------------------------------------ *)
(* Framed I/O over a Transport (short reads/writes handled here). *)

let rec write_all (io : Transport.t) bytes pos len =
  if len > 0 then
    match io.Transport.write bytes pos len with
    | n -> write_all io bytes (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all io bytes pos len

let put_u32_bytes frame at v =
  Bytes.set frame at (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set frame (at + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set frame (at + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set frame (at + 3) (Char.chr (v land 0xFF))

let write_frame_t io data =
  let len = String.length data in
  if len > max_frame then
    invalid_arg (Printf.sprintf "Wire.write_frame: payload of %d bytes exceeds max_frame" len);
  let frame = Bytes.create (8 + len) in
  put_u32_bytes frame 0 len;
  (* Payload checksum: a TCP stream is reliable but the chaos model (and
     real proxies behind middleboxes) is not — a flipped bit inside a
     string value would otherwise decode cleanly into wrong data. *)
  put_u32_bytes frame 4 (Int32.to_int (Crc32.digest data) land 0xFFFFFFFF);
  Bytes.blit_string data 0 frame 8 len;
  write_all io frame 0 (8 + len)

(* Read exactly [len] bytes; [eof_ok] only applies before the first byte. *)
let read_exact (io : Transport.t) len ~eof_ok =
  let bytes = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    match io.Transport.read bytes !pos (len - !pos) with
    | 0 -> if !pos = 0 && eof_ok then raise End_of_file else fail "connection closed mid-frame"
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Bytes.unsafe_to_string bytes

let read_frame_t io =
  let header = read_exact io 8 ~eof_ok:true in
  let byte i = Char.code header.[i] in
  let u32 at = (byte at lsl 24) lor (byte (at + 1) lsl 16)
               lor (byte (at + 2) lsl 8) lor byte (at + 3) in
  let len = u32 0 in
  let crc = Int32.of_int (u32 4) in
  if len < 2 then fail "frame too short (%d bytes)" len;
  if len > max_frame then fail "frame of %d bytes exceeds max_frame" len;
  let data = read_exact io len ~eof_ok:false in
  if Crc32.digest data <> crc then fail "frame checksum mismatch";
  data

let write_frame fd data = write_frame_t (Transport.of_fd fd) data

let read_frame fd = read_frame_t (Transport.of_fd fd)
