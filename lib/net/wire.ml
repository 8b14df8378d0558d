open Mope_db

exception Protocol_error of string

exception Version_mismatch of { peer_version : int }

let protocol_error msg = Protocol_error msg

let fail fmt = Printf.ksprintf (fun msg -> raise (protocol_error msg)) fmt

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
(* Optional fields, on top of the shared {!Codec} primitives. *)

let put_string_opt buf = function
  | None -> Buffer.add_char buf '\x00'
  | Some s ->
    Buffer.add_char buf '\x01';
    Codec.put_string buf s

let put_float_opt buf = function
  | None -> Buffer.add_char buf '\x00'
  | Some f ->
    Buffer.add_char buf '\x01';
    Codec.put_int64 buf (Int64.bits_of_float f)

let get_string_opt cur =
  match Codec.get_byte cur with
  | 0 -> None
  | 1 -> Some (Codec.get_string cur)
  | n -> fail "bad option tag %d" n

let get_float_opt cur =
  match Codec.get_byte cur with
  | 0 -> None
  | 1 -> Some (Int64.float_of_bits (Codec.get_int64 cur))
  | n -> fail "bad option tag %d" n

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
  let cur = Codec.cursor protocol_error data in
  let v = Codec.get_byte cur in
  let tag = Codec.get_byte cur in
  if v <> version && tag <> tag_unsupported_version then
    raise (Version_mismatch { peer_version = v });
  (tag, cur)

let close_payload cur =
  if Codec.remaining cur <> 0 then fail "trailing bytes after message"

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
      Codec.put_string buf header.trace_id;
      Codec.put_string buf header.session;
      Codec.put_int buf header.req_id;
      body buf)

let encode_request ?(trace_id = "") ?(session = "") ?(req_id = 0) req =
  let header = { trace_id; session; req_id } in
  match req with
  | Ping -> payload_req header tag_ping (fun _ -> ())
  | Query { sql; date_column; date_lo; date_hi } ->
    payload_req header tag_query (fun buf ->
        Codec.put_string buf sql;
        Codec.put_string buf date_column;
        Codec.put_int buf date_lo;
        Codec.put_int buf date_hi)
  | Get_stats -> payload_req header tag_get_stats (fun _ -> ())
  | Fetch { sql; epoch } ->
    check_epoch epoch;
    payload_req header tag_fetch (fun buf ->
        Codec.put_string buf sql;
        Codec.put_int buf epoch)
  | Apply { sql; epoch; request_id } ->
    check_epoch epoch;
    check_request_id request_id;
    payload_req header tag_apply (fun buf ->
        Codec.put_string buf sql;
        Codec.put_int buf epoch;
        Codec.put_string buf request_id)
  | Wal_since { from_pos; max_bytes } ->
    payload_req header tag_wal_since (fun buf ->
        Codec.put_int buf from_pos;
        Codec.put_int buf max_bytes)
  | Fence { epoch } ->
    check_epoch epoch;
    payload_req header tag_fence (fun buf -> Codec.put_int buf epoch)
  | Open_session { tenant } ->
    check_tenant tenant;
    payload_req header tag_open_session (fun buf -> Codec.put_string buf tenant)
  | Authenticate { tenant; nonce; mac } ->
    check_tenant tenant;
    check_mac "nonce" nonce;
    check_mac "mac" mac;
    payload_req header tag_authenticate (fun buf ->
        Codec.put_string buf tenant;
        Codec.put_string buf nonce;
        Codec.put_string buf mac)
  | Rotate { tenant; status_only } ->
    check_tenant tenant;
    payload_req header tag_rotate (fun buf ->
        Codec.put_string buf tenant;
        Buffer.add_char buf (if status_only then '\x01' else '\x00'))

let decode_request data =
  let tag, cur = open_payload data in
  let trace_id = Codec.get_string cur in
  check_trace_id trace_id;
  let session = Codec.get_string cur in
  check_session session;
  let req_id = Codec.get_nat cur in
  let req =
    if tag = tag_ping then Ping
    else if tag = tag_query then begin
      let sql = Codec.get_string cur in
      let date_column = Codec.get_string cur in
      let date_lo = Codec.get_int cur in
      let date_hi = Codec.get_int cur in
      Query { sql; date_column; date_lo; date_hi }
    end
    else if tag = tag_get_stats then Get_stats
    else if tag = tag_fetch then begin
      let sql = Codec.get_string cur in
      let epoch = Codec.get_nat cur in
      Fetch { sql; epoch }
    end
    else if tag = tag_apply then begin
      let sql = Codec.get_string cur in
      let epoch = Codec.get_nat cur in
      let request_id = Codec.get_string cur in
      check_request_id request_id;
      Apply { sql; epoch; request_id }
    end
    else if tag = tag_wal_since then begin
      let from_pos = Codec.get_nat cur in
      let max_bytes = Codec.get_nat cur in
      Wal_since { from_pos; max_bytes }
    end
    else if tag = tag_fence then Fence { epoch = Codec.get_nat cur }
    else if tag = tag_open_session then begin
      let tenant = Codec.get_string cur in
      check_tenant tenant;
      Open_session { tenant }
    end
    else if tag = tag_authenticate then begin
      let tenant = Codec.get_string cur in
      check_tenant tenant;
      let nonce = Codec.get_string cur in
      check_mac "nonce" nonce;
      let mac = Codec.get_string cur in
      check_mac "mac" mac;
      Authenticate { tenant; nonce; mac }
    end
    else if tag = tag_rotate then begin
      let tenant = Codec.get_string cur in
      check_tenant tenant;
      let status_only =
        match Codec.get_byte cur with
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
      Codec.put_int buf req_id;
      body buf)

let encode_response ?(req_id = 0) resp =
  match resp with
  | Pong -> payload_resp req_id tag_pong (fun _ -> ())
  | Rows result ->
    payload_resp req_id tag_rows (fun buf ->
        Codec.put_int buf (List.length result.Exec.columns);
        List.iter (Codec.put_string buf) result.Exec.columns;
        Codec.put_int buf (List.length result.Exec.rows);
        List.iter
          (fun row ->
            Codec.put_int buf (Array.length row);
            Array.iter (Codec.put_value buf) row)
          result.Exec.rows)
  | Stats s ->
    payload_resp req_id tag_stats (fun buf ->
        Codec.put_string buf s.metrics_text;
        Codec.put_string buf s.metrics_json;
        Codec.put_int buf (List.length s.traces);
        List.iter
          (fun (d : Mope_obs.Trace.dump) ->
            Codec.put_string buf d.Mope_obs.Trace.id;
            Codec.put_int buf (List.length d.Mope_obs.Trace.spans);
            List.iter
              (fun (sp : Mope_obs.Trace.span) ->
                Codec.put_string buf sp.Mope_obs.Trace.name;
                Codec.put_int buf sp.Mope_obs.Trace.depth;
                Codec.put_int64 buf
                  (Int64.bits_of_float sp.Mope_obs.Trace.start_us);
                Codec.put_int64 buf
                  (Int64.bits_of_float sp.Mope_obs.Trace.dur_us);
                Codec.put_int buf (List.length sp.Mope_obs.Trace.items);
                List.iter
                  (fun (k, n) ->
                    Codec.put_string buf k;
                    Codec.put_int buf n)
                  sp.Mope_obs.Trace.items)
              d.Mope_obs.Trace.spans)
          s.traces)
  | Applied { wal_pos } ->
    payload_resp req_id tag_applied (fun buf -> Codec.put_int buf wal_pos)
  | Epoch_state { epoch } ->
    payload_resp req_id tag_epoch_state (fun buf -> Codec.put_int buf epoch)
  | Session_challenge { nonce } ->
    payload_resp req_id tag_session_challenge (fun buf ->
        Codec.put_string buf nonce)
  | Session_ok { token } ->
    payload_resp req_id tag_session_ok (fun buf -> Codec.put_string buf token)
  | Rotation { state; generation; rows_moved; rows_total } ->
    payload_resp req_id tag_rotation (fun buf ->
        Codec.put_string buf state;
        Codec.put_int buf generation;
        Codec.put_int buf rows_moved;
        Codec.put_int buf rows_total)
  | Unsupported_version { server_version } ->
    (* Frozen v7 shape: no response header, readable under any version. *)
    payload tag_unsupported_version (fun buf ->
        Codec.put_int buf server_version)
  | Wal_chunk { resync; records; next_pos; end_pos } ->
    payload_resp req_id tag_wal_chunk (fun buf ->
        Buffer.add_char buf (if resync then '\x01' else '\x00');
        Codec.put_int buf (List.length records);
        List.iter (Codec.put_string buf) records;
        Codec.put_int buf next_pos;
        Codec.put_int buf end_pos)
  | Error { code; message; query; retry_after } ->
    payload_resp req_id tag_error (fun buf ->
        Buffer.add_char buf (Char.chr (error_code_tag code));
        Codec.put_string buf message;
        put_string_opt buf query;
        put_float_opt buf retry_after)

let decode_response data =
  let tag, cur = open_payload data in
  (* The echoed request id (v8). [Unsupported_version] predates it and
     stays header-less so any-version peers can read it; report it as
     id 0, the "unassigned" id. *)
  let req_id = if tag = tag_unsupported_version then 0 else Codec.get_nat cur in
  let resp =
    (* A count must be plausible for the bytes that remain — each column
       name and each row costs at least an 8-byte length prefix, each value
       at least its tag byte — or a corrupt count would reach [Array.make]/
       [List.init] and allocate unboundedly before the payload runs dry. *)
    let plausible what n per =
      if n > Codec.remaining cur / per then
        fail "implausible %s count %d" what n
    in
    if tag = tag_pong then Pong
    else if tag = tag_rows then begin
      let n_cols = Codec.get_nat cur in
      plausible "column" n_cols 8;
      let columns = List.init n_cols (fun _ -> Codec.get_string cur) in
      let n_rows = Codec.get_nat cur in
      plausible "row" n_rows 8;
      let rows =
        List.init n_rows (fun _ ->
            let arity = Codec.get_nat cur in
            plausible "value" arity 1;
            (* Explicit loop: Array.init's evaluation order is unspecified. *)
            let row = Array.make arity Value.Null in
            for i = 0 to arity - 1 do
              row.(i) <- Codec.get_value cur
            done;
            row)
      in
      Rows { Exec.columns; rows }
    end
    else if tag = tag_stats then begin
      let metrics_text = Codec.get_string cur in
      let metrics_json = Codec.get_string cur in
      let n_traces = Codec.get_nat cur in
      plausible "trace" n_traces 16;
      let traces =
        List.init n_traces (fun _ ->
            let id = Codec.get_string cur in
            let n_spans = Codec.get_nat cur in
            plausible "span" n_spans 32;
            let spans =
              List.init n_spans (fun _ ->
                  let name = Codec.get_string cur in
                  let depth = Codec.get_int cur in
                  let start_us = Int64.float_of_bits (Codec.get_int64 cur) in
                  let dur_us = Int64.float_of_bits (Codec.get_int64 cur) in
                  let n_items = Codec.get_nat cur in
                  plausible "item" n_items 16;
                  let items =
                    List.init n_items (fun _ ->
                        let k = Codec.get_string cur in
                        let n = Codec.get_int cur in
                        (k, n))
                  in
                  { Mope_obs.Trace.name; depth; start_us; dur_us; items })
            in
            { Mope_obs.Trace.id; spans })
      in
      Stats { metrics_text; metrics_json; traces }
    end
    else if tag = tag_applied then Applied { wal_pos = Codec.get_nat cur }
    else if tag = tag_epoch_state then Epoch_state { epoch = Codec.get_nat cur }
    else if tag = tag_session_challenge then begin
      let nonce = Codec.get_string cur in
      check_mac "nonce" nonce;
      Session_challenge { nonce }
    end
    else if tag = tag_session_ok then begin
      let token = Codec.get_string cur in
      check_session token;
      Session_ok { token }
    end
    else if tag = tag_rotation then begin
      let state = Codec.get_string cur in
      let generation = Codec.get_nat cur in
      let rows_moved = Codec.get_nat cur in
      let rows_total = Codec.get_nat cur in
      Rotation { state; generation; rows_moved; rows_total }
    end
    else if tag = tag_unsupported_version then
      Unsupported_version { server_version = Codec.get_nat cur }
    else if tag = tag_wal_chunk then begin
      let resync =
        match Codec.get_byte cur with
        | 0 -> false
        | 1 -> true
        | n -> fail "bad resync flag %d" n
      in
      let n_records = Codec.get_nat cur in
      plausible "record" n_records 8;
      let records = List.init n_records (fun _ -> Codec.get_string cur) in
      let next_pos = Codec.get_nat cur in
      let end_pos = Codec.get_nat cur in
      Wal_chunk { resync; records; next_pos; end_pos }
    end
    else if tag = tag_error then begin
      let code = error_code_of_tag (Codec.get_byte cur) in
      let message = Codec.get_string cur in
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

let write_frame_t (io : Transport.t) data =
  let len = String.length data in
  if len > max_frame then
    invalid_arg (Printf.sprintf "Wire.write_frame: payload of %d bytes exceeds max_frame" len);
  (* Payload checksum: a TCP stream is reliable but the chaos model (and
     real proxies behind middleboxes) is not — a flipped bit inside a
     string value would otherwise decode cleanly into wrong data. *)
  Codec.write_all io.Transport.write (Codec.record data)

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
  let header = Codec.cursor protocol_error (read_exact io 8 ~eof_ok:true) in
  let len = Codec.get_u32 header in
  let crc = Int32.of_int (Codec.get_u32 header) in
  if len < 2 then fail "frame too short (%d bytes)" len;
  if len > max_frame then fail "frame of %d bytes exceeds max_frame" len;
  let data = read_exact io len ~eof_ok:false in
  if not (Int32.equal (Crc32.digest data) crc) then
    fail "frame checksum mismatch";
  data

let write_frame fd data = write_frame_t (Transport.of_fd fd) data

let read_frame fd = read_frame_t (Transport.of_fd fd)
