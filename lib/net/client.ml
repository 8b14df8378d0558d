open Mope_stats
module Metrics = Mope_obs.Metrics
module Trace = Mope_obs.Trace

(* Registered at module init; all no-ops until Metrics.set_enabled true. *)
let m_retries =
  Metrics.counter ~help:"Request retries (transport failures and overload)"
    "mope_client_retries_total" ()

let m_breaker_opens =
  Metrics.counter ~help:"Circuit-breaker transitions into open"
    "mope_client_breaker_open_total" ()

let m_breaker_state =
  Metrics.gauge ~help:"Circuit breaker: 0 closed, 1 open, 2 half-open"
    "mope_client_breaker_state" ()

type t = {
  host : string;
  port : int;
  addr : Unix.inet_addr;
  timeout : float;
  connect_retries : int;
  backoff : float;
  request_retries : int;
  breaker_threshold : int;
  breaker_cooldown : float;
  wrap : Transport.t -> Transport.t;
  rng : Rng.t;
  mutable conn : Transport.t option;
  mutable fd : Unix.file_descr option;  (* raw socket under [conn]'s wraps *)
  mutable closed : bool;
  mutable failures : int;     (* consecutive transport failures *)
  mutable open_until : float; (* 0 = breaker closed; else open/half-open *)
  mutable session : string;   (* token from Session_ok; "" = no session *)
  mutable next_id : int;      (* last v8 request id minted; ids start at 1 *)
}

type rotation_status = {
  state : string;
  generation : int;
  rows_moved : int;
  rows_total : int;
}

let transient = function
  | Unix.Unix_error
      ( ( ECONNREFUSED | ECONNRESET | ECONNABORTED | ETIMEDOUT | EAGAIN
        | EWOULDBLOCK | EHOSTUNREACH | ENETUNREACH | EINTR | EPIPE ),
        _, _ ) ->
    true
  | _ -> false

(* Uniform in [0.5·d, 1.5·d): staggers the retries of many clients that
   all lost the same proxy at the same moment. *)
let jittered t d = d *. (0.5 +. Rng.float t.rng)

(* ------------------------------------------------------------------ *)
(* Circuit breaker: closed -> open (after [breaker_threshold] consecutive
   transport failures) -> half-open (cooldown elapsed; one probe) ->
   closed on success / open again on failure. *)

let breaker_state t =
  if t.open_until = 0.0 then `Closed
  else if Unix.gettimeofday () < t.open_until then `Open
  else `Half_open

let record_success t =
  t.failures <- 0;
  t.open_until <- 0.0;
  Metrics.gauge_set m_breaker_state 0

let record_failure t =
  t.failures <- t.failures + 1;
  if t.failures >= t.breaker_threshold || t.open_until > 0.0 then begin
    (* Tripped, or a half-open probe failed: (re)open for a full cooldown. *)
    if t.open_until = 0.0 then Metrics.inc m_breaker_opens;
    t.open_until <- Unix.gettimeofday () +. t.breaker_cooldown;
    Metrics.gauge_set m_breaker_state 1
  end

(* ------------------------------------------------------------------ *)
(* Connecting *)

let dial ?timeout t =
  let timeout = match timeout with Some d -> d | None -> t.timeout in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    if timeout > 0.0 then begin
      (* SO_SNDTIMEO also bounds connect(2) on Linux. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
    end;
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.connect fd (Unix.ADDR_INET (t.addr, t.port));
    t.fd <- Some fd;
    t.wrap (Transport.of_fd fd)
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

(* Dial with jittered exponential backoff over transient failures. The
   breaker must see dial exhaustion: a dead server that refuses every
   connect is exactly the condition it exists for, and before v8 this
   raised without recording the failure — so a caller reconnecting
   through [rpc] burned the full dial-retry schedule on every request and
   the breaker never opened. *)
let establish t =
  let rec attempt n delay =
    match dial t with
    | io ->
      t.conn <- Some io;
      io
    | exception e when transient e && n < t.connect_retries ->
      Thread.delay (jittered t delay);
      attempt (n + 1) (delay *. 2.0)
    | exception e ->
      record_failure t;
      Mope_error.failwithf ~cause:e
        "Client.connect: %s:%d unreachable after %d attempt%s" t.host t.port
        (n + 1)
        (if n = 0 then "" else "s")
  in
  attempt 0 t.backoff

let drop_conn t =
  match t.conn with
  | None -> ()
  | Some io ->
    t.conn <- None;
    t.fd <- None;
    io.Transport.close ()

let connect ?(host = "127.0.0.1") ~port ?(timeout = 10.0) ?(retries = 3)
    ?(backoff = 0.05) ?(request_retries = 2) ?(breaker_threshold = 5)
    ?(breaker_cooldown = 5.0) ?seed ?(wrap = Fun.id) () =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> Mope_error.failwithf "Client.connect: invalid address %s" host
  in
  let seed =
    match seed with
    | Some s -> s
    | None ->
      (* Distinct per client so a reconnect stampede spreads out. *)
      Int64.logxor
        (Int64.of_float (Unix.gettimeofday () *. 1e6))
        (Int64.of_int (Unix.getpid ()))
  in
  let t =
    { host; port; addr; timeout;
      connect_retries = Int.max 0 retries;
      backoff;
      request_retries = Int.max 0 request_retries;
      breaker_threshold = Int.max 1 breaker_threshold;
      breaker_cooldown;
      wrap;
      rng = Rng.create seed;
      conn = None;
      fd = None;
      closed = false;
      failures = 0;
      open_until = 0.0;
      session = "";
      next_id = 0 }
  in
  ignore (establish t);
  t

let is_closed t = t.closed

let is_connected t = t.conn <> None && not t.closed

let close t =
  if not t.closed then begin
    t.closed <- true;
    drop_conn t
  end

let with_client ?host ~port ?timeout ?retries ?backoff ?request_retries
    ?breaker_threshold ?breaker_cooldown ?seed ?wrap f =
  let t =
    connect ?host ~port ?timeout ?retries ?backoff ?request_retries
      ?breaker_threshold ?breaker_cooldown ?seed ?wrap ()
  in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* Reads are safe to retry. [Apply] mutates the remote store, so a retry
   after an ambiguous failure (request sent, response lost) could apply
   the statement twice — unless it carries a request id, which the store
   dedups, making the retry exact-once. [Fence] only moves the epoch
   forward to the given value, so replaying it is a no-op. [Open_session]
   only mints a fresh challenge; [Authenticate] consumes its nonce on
   success, so a retry whose first answer was lost would fail auth —
   one shot, the caller redoes the whole handshake. [Rotate] starts a new
   rotation unless it is a pure status poll. *)
let idempotent = function
  | Wire.Ping | Wire.Query _ | Wire.Get_stats
  | Wire.Fetch _ | Wire.Wal_since _ | Wire.Fence _ | Wire.Open_session _ ->
    true
  | Wire.Apply { request_id; _ } -> request_id <> ""
  | Wire.Authenticate _ -> false
  | Wire.Rotate { status_only; _ } -> status_only

(* ------------------------------------------------------------------ *)
(* The pipelined request engine. One call tracks a batch of requests on
   this client's single connection, keeping up to [depth] of them in
   flight at once; responses are matched to requests by the echoed v8
   request id, so a slow request does not head-of-line block the others
   and completions may arrive in any order. Retry, breaker and
   idempotency bookkeeping is per request — a mid-pipeline disconnect
   re-queues the idempotent in-flight requests (their attempt budget
   permitting) and fails only the ones that cannot be safely resent.
   [rpc] is the depth-1 special case. *)

type slot = {
  s_request : Wire.request;
  s_tid : string;  (* one trace id for all attempts of this request *)
  s_max_attempts : int;
  mutable s_attempts : int;  (* send attempts used *)
  mutable s_req_id : int;  (* id of the in-flight send; 0 = not in flight *)
  mutable s_not_before : float;  (* earliest resend (backoff / shed hint) *)
  mutable s_delay : float;  (* next backoff delay *)
  mutable s_outcome : (Wire.response, Mope_error.t) result option;
}

let next_req_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let run_pipeline t ?query ?trace_id ~depth requests =
  if t.closed then
    Mope_error.failwithf ?query "Client: connection to %s:%d is closed" t.host
      t.port;
  let depth = Int.max 1 depth in
  (* Trace ids are stable across the attempts of one request, so
     server-side traces correlate its retries. Minting is gated on tracing
     being enabled in this process to keep the common path
     allocation-free. *)
  let mint () =
    match trace_id with
    | Some s -> s
    | None -> if Trace.enabled () then Trace.mint_id t.rng else ""
  in
  let probing =
    match breaker_state t with
    | `Open ->
      Metrics.gauge_set m_breaker_state 1;
      Mope_error.failwithf ?query
        "Client: circuit breaker open for %s:%d (retry in %.3gs)" t.host t.port
        (t.open_until -. Unix.gettimeofday ())
    | `Half_open ->
      Metrics.gauge_set m_breaker_state 2;
      true
    | `Closed -> false
  in
  let slots =
    Array.of_list
      (List.map
         (fun r ->
           { s_request = r;
             s_tid = mint ();
             (* A half-open probe gets exactly one shot; so does anything
                that is not idempotent. *)
             s_max_attempts =
               (if probing || not (idempotent r) then 1
                else 1 + t.request_retries);
             s_attempts = 0;
             s_req_id = 0;
             s_not_before = 0.0;
             s_delay = t.backoff;
             s_outcome = None })
         requests)
  in
  let inflight : (int, slot) Hashtbl.t = Hashtbl.create 16 in
  let unfinished () = Array.exists (fun s -> s.s_outcome = None) slots in
  let transport_error slot e =
    let fail ?cause msg =
      Mope_error.create ?query ?cause
        (Printf.sprintf "Client: %s (%s:%d, attempt %d)" msg t.host t.port
           slot.s_attempts)
    in
    match e with
    | Wire.Protocol_error msg -> fail ("malformed frame: " ^ msg)
    | End_of_file -> fail "server closed the connection"
    | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _) ->
      fail ~cause:e
        (Printf.sprintf "request timed out after %.3gs" t.timeout)
    | Unix.Unix_error _ -> fail ~cause:e "I/O error"
    | Mope_error.Error err -> err
    | e -> fail ~cause:e "unexpected failure"
  in
  (* Put a slot back in the pending pool behind a jittered delay — or, out
     of attempts (or with the breaker now open), settle its outcome. *)
  let retry_or_fail slot ~blown ~delay err =
    if slot.s_attempts < slot.s_max_attempts && not blown then begin
      Metrics.inc m_retries;
      slot.s_not_before <- Unix.gettimeofday () +. jittered t delay;
      slot.s_delay <- slot.s_delay *. 2.0
    end
    else slot.s_outcome <- Some (Error err)
  in
  (* A transport failure poisons the connection and every request on it:
     the response stream is gone, so nothing in flight can complete. *)
  let on_transport_failure e =
    drop_conn t;
    (match e with
    | Mope_error.Error _ -> () (* [establish] already recorded the failure *)
    | _ -> record_failure t);
    let blown = breaker_state t = `Open in
    Hashtbl.iter
      (fun _ slot ->
        slot.s_req_id <- 0;
        retry_or_fail slot ~blown ~delay:slot.s_delay (transport_error slot e))
      inflight;
    Hashtbl.reset inflight
  in
  (* [establish] can only fail with nothing in flight (a live connection
     implies an established one): charge a connect attempt to every
     pending request — each would have been sent on that connection. *)
  let on_establish_failure err =
    let blown = breaker_state t = `Open in
    Array.iter
      (fun slot ->
        if slot.s_outcome = None && slot.s_req_id = 0 then begin
          slot.s_attempts <- slot.s_attempts + 1;
          retry_or_fail slot ~blown ~delay:slot.s_delay err
        end)
      slots
  in
  let fail_pending_fast msg =
    Array.iter
      (fun slot ->
        if slot.s_outcome = None && slot.s_req_id = 0 then
          slot.s_outcome <- Some (Error (Mope_error.create ?query msg)))
      slots
  in
  let rec step () =
    if unfinished () then begin
      (match breaker_state t with
      | `Open ->
        (* The breaker opened mid-batch (in-flight requests were already
           settled by the failure that opened it): fail the rest fast. *)
        fail_pending_fast
          (Printf.sprintf "Client: circuit breaker open for %s:%d (retry in %.3gs)"
             t.host t.port
             (t.open_until -. Unix.gettimeofday ()))
      | _ -> ());
      (* While half-open, the window narrows to the single probe. *)
      let window = if t.open_until > 0.0 then 1 else depth in
      let now = Unix.gettimeofday () in
      (try
         Array.iter
           (fun slot ->
             if
               slot.s_outcome = None && slot.s_req_id = 0
               && slot.s_not_before <= now
               && Hashtbl.length inflight < window
             then begin
               let io = match t.conn with Some io -> io | None -> establish t in
               let id = next_req_id t in
               slot.s_req_id <- id;
               slot.s_attempts <- slot.s_attempts + 1;
               Hashtbl.replace inflight id slot;
               Wire.write_frame_t io
                 (Wire.encode_request ~trace_id:slot.s_tid ~session:t.session
                    ~req_id:id slot.s_request)
             end)
           slots
       with
      | Mope_error.Error err when Hashtbl.length inflight = 0 ->
        on_establish_failure err
      | e -> on_transport_failure e);
      if Hashtbl.length inflight = 0 then begin
        (* Nothing in flight: everything still unfinished is backing off.
           Sleep until the earliest slot becomes sendable. *)
        let next =
          Array.fold_left
            (fun acc s ->
              if s.s_outcome = None then Float.min acc s.s_not_before else acc)
            infinity slots
        in
        if next > now && next < infinity then Thread.delay (next -. now)
      end
      else begin
        (match t.conn with
        | None ->
          (* Unreachable: in-flight requests hold a live connection. *)
          on_transport_failure End_of_file
        | Some io -> (
          match Wire.decode_response (Wire.read_frame_t io) with
          | exception e -> on_transport_failure e
          | rid, resp -> (
            match Hashtbl.find_opt inflight rid with
            | Some slot -> begin
              Hashtbl.remove inflight rid;
              slot.s_req_id <- 0;
              record_success t;
              (* An [Overloaded] answer is the server shedding load, not a
                 broken transport: honour its retry-after hint, don't
                 count it against the breaker. *)
              match resp with
              | Wire.Error { code = Wire.Overloaded; retry_after; _ }
                when slot.s_attempts < slot.s_max_attempts ->
                Metrics.inc m_retries;
                let d =
                  match retry_after with Some d -> d | None -> slot.s_delay
                in
                slot.s_not_before <- Unix.gettimeofday () +. jittered t d;
                slot.s_delay <- slot.s_delay *. 2.0
              | resp -> slot.s_outcome <- Some (Ok resp)
            end
            | None -> (
              match resp with
              | Wire.Unsupported_version _ when rid = 0 ->
                (* Version mismatch is deterministic: the server answers
                   every request the same way and then drops the link, so
                   settle the whole batch with the structured answer and
                   drop our side too (in-flight responses will never
                   arrive). *)
                record_success t;
                drop_conn t;
                Hashtbl.reset inflight;
                Array.iter
                  (fun slot ->
                    if slot.s_outcome = None then begin
                      slot.s_req_id <- 0;
                      slot.s_outcome <- Some (Ok resp)
                    end)
                  slots
              | _ ->
                (* An answer for a request id we are not awaiting — id 0
                   means the server could not decode one of our frames
                   (it cannot say which): the stream is ambiguous either
                   way, so treat it as a transport failure. *)
                on_transport_failure
                  (Wire.Protocol_error
                     (Printf.sprintf "response for unexpected request id %d"
                        rid))))))
      end;
      step ()
    end
  in
  step ();
  List.map
    (fun slot ->
      match slot.s_outcome with
      | Some outcome -> outcome
      | None ->
        Error (Mope_error.create ?query "Client: request left unresolved"))
    (Array.to_list slots)

(* ------------------------------------------------------------------ *)
(* One request/response exchange — the depth-1 pipeline. [query] is the
   SQL context attached to any error raised. *)

let rpc t ?query ?trace_id request =
  match run_pipeline t ?query ?trace_id ~depth:1 [ request ] with
  | [ Ok resp ] -> resp
  | [ Error err ] -> raise (Mope_error.Error err)
  | _ -> Mope_error.failwithf ?query "Client: pipeline arity mismatch"

let pipeline t ?trace_id ?(depth = 8) requests =
  match requests with
  | [] -> []
  | requests -> run_pipeline t ?trace_id ~depth requests

let check_error ?query = function
  | Wire.Error { code; message; query = server_query; retry_after = _ } ->
    let query = match server_query with Some _ -> server_query | None -> query in
    Mope_error.raise_error ?query
      (Printf.sprintf "server error (%s): %s" (Wire.error_code_to_string code)
         message)
  | Wire.Unsupported_version { server_version } ->
    Mope_error.raise_error ?query
      (Printf.sprintf
         "server speaks protocol version %d, this client speaks %d; upgrade \
          the older side"
         server_version Wire.version)
  | resp -> resp

(* A [Fenced] refusal surfaces through [check_error] with a stable prefix;
   failover logic (the cluster coordinator) needs to tell it apart from
   transport failures without a second error channel. *)
let fenced_prefix = "server error (fenced)"

let is_fenced (e : Mope_error.t) =
  String.starts_with ~prefix:fenced_prefix e.Mope_error.msg

(* ------------------------------------------------------------------ *)
(* Health probing. A failure detector cannot afford the general request
   timeout (seconds): one slow probe would stall the whole probe round.
   [ping ~timeout] bounds a single attempt two ways: the raw socket's
   SO_RCVTIMEO/SO_SNDTIMEO cut short a silent peer parked in read(2), and
   a deadline check between transport operations cuts short a peer that
   trickles bytes (or a chaos transport injecting delays) — each chunk
   lands, but the probe still misses its budget. *)

let with_deadline ~deadline (io : Transport.t) =
  let check op =
    if Unix.gettimeofday () > deadline then
      raise (Unix.Unix_error (Unix.ETIMEDOUT, op, "probe deadline exceeded"))
  in
  { Transport.read =
      (fun buf pos len ->
        check "read";
        let n = io.Transport.read buf pos len in
        check "read";
        n);
    write =
      (fun buf pos len ->
        check "write";
        let n = io.Transport.write buf pos len in
        check "write";
        n);
    shutdown = io.Transport.shutdown;
    close = io.Transport.close }

let set_socket_timeouts t d =
  match t.fd with
  | None -> ()
  | Some fd -> (
    try
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO d;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO d
    with Unix.Unix_error _ -> ())

let probe_ping t budget =
  if t.closed then
    Mope_error.failwithf "Client: connection to %s:%d is closed" t.host t.port;
  (* One dial attempt, bounded by the probe budget — never the general
     connect-retry/backoff schedule. *)
  let io =
    match t.conn with
    | Some io -> io
    | None -> (
      match dial ~timeout:budget t with
      | io ->
        t.conn <- Some io;
        io
      | exception e ->
        record_failure t;
        Mope_error.failwithf ~cause:e "Client.ping: %s:%d unreachable" t.host
          t.port)
  in
  let deadline = Unix.gettimeofday () +. budget in
  set_socket_timeouts t budget;
  let outcome =
    match
      let io = with_deadline ~deadline io in
      Wire.write_frame_t io (Wire.encode_request Wire.Ping);
      Wire.decode_response (Wire.read_frame_t io)
    with
    | _id, resp -> Ok resp
    | exception e -> Error e
  in
  match outcome with
  | Ok resp -> (
    set_socket_timeouts t t.timeout;
    record_success t;
    match check_error resp with
    | Wire.Pong -> ()
    | _ -> Mope_error.raise_error "Client.ping: unexpected response")
  | Error e ->
    (* The probe's socket may hold a late Pong that would desynchronize the
       next request's framing: drop the connection rather than restore it. *)
    drop_conn t;
    record_failure t;
    let detail =
      match e with
      | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _) ->
        Printf.sprintf "probe timed out after %.3gs" budget
      | _ -> "probe failed"
    in
    Mope_error.failwithf ~cause:e "Client.ping: %s (%s:%d)" detail t.host
      t.port

let ping ?timeout t =
  match timeout with
  | Some budget when budget > 0.0 -> probe_ping t budget
  | _ -> (
    match check_error (rpc t Wire.Ping) with
    | Wire.Pong -> ()
    | _ -> Mope_error.raise_error "Client.ping: unexpected response")

let query t ?trace_id ~sql ~date_column ~date_lo ~date_hi () =
  let request = Wire.Query { sql; date_column; date_lo; date_hi } in
  match check_error ~query:sql (rpc t ~query:sql ?trace_id request) with
  | Wire.Rows result -> result
  | _ -> Mope_error.raise_error ~query:sql "Client.query: unexpected response"

(* [pipeline] over (sql, request) pairs, one outcome per pair: a server
   error or a response other than [Rows] is that pair's [Error], with its
   SQL attached as the query context. [caller] names the public entry
   point in the "unexpected response" message. *)
let rows_batch t ?trace_id ?depth caller items =
  List.map2
    (fun (sql, _) outcome ->
      match outcome with
      | Error err ->
        Error
          (match err.Mope_error.query with
          | Some _ -> err
          | None -> { err with Mope_error.query = Some sql })
      | Ok resp -> (
        match check_error ~query:sql resp with
        | Wire.Rows result -> Ok result
        | _ ->
          Error (Mope_error.create ~query:sql (caller ^ ": unexpected response"))
        | exception Mope_error.Error err -> Error err))
    items
    (pipeline t ?trace_id ?depth (List.map snd items))

let query_batch t ?trace_id ?depth ~date_column ~queries () =
  rows_batch t ?trace_id ?depth "Client.query_batch"
    (List.map
       (fun (sql, date_lo, date_hi) ->
         (sql, Wire.Query { sql; date_column; date_lo; date_hi }))
       queries)

let fetch t ?trace_id ?(epoch = 0) ~sql () =
  match
    check_error ~query:sql (rpc t ~query:sql ?trace_id (Wire.Fetch { sql; epoch }))
  with
  | Wire.Rows result -> result
  | _ -> Mope_error.raise_error ~query:sql "Client.fetch: unexpected response"

let fetch_batch t ?trace_id ?depth ?(epoch = 0) ~sqls () =
  rows_batch t ?trace_id ?depth "Client.fetch_batch"
    (List.map (fun sql -> (sql, Wire.Fetch { sql; epoch })) sqls)

let apply t ?trace_id ?(epoch = 0) ?(request_id = "") ~sql () =
  match
    check_error ~query:sql
      (rpc t ~query:sql ?trace_id (Wire.Apply { sql; epoch; request_id }))
  with
  | Wire.Applied { wal_pos } -> wal_pos
  | _ -> Mope_error.raise_error ~query:sql "Client.apply: unexpected response"

let fence t ?trace_id ~epoch () =
  match check_error (rpc t ?trace_id (Wire.Fence { epoch })) with
  | Wire.Epoch_state { epoch } -> epoch
  | _ -> Mope_error.raise_error "Client.fence: unexpected response"

let wal_since t ?trace_id ~from_pos ~max_bytes () =
  let request = Wire.Wal_since { from_pos; max_bytes } in
  match check_error (rpc t ?trace_id request) with
  | Wire.Wal_chunk { resync; records; next_pos; end_pos } ->
    { Mope_db.Wal.records; next_pos; end_pos; resync }
  | _ -> Mope_error.raise_error "Client.wal_since: unexpected response"

let stats t =
  match check_error (rpc t Wire.Get_stats) with
  | Wire.Stats s -> s
  | _ -> Mope_error.raise_error "Client.stats: unexpected response"

(* ------------------------------------------------------------------ *)
(* Tenant sessions (wire v7). The shared secret never leaves this
   function: only its HMAC over the server-minted nonce goes on the
   wire. *)

let session t = if t.session = "" then None else Some t.session

let clear_session t = t.session <- ""

let open_session t ?trace_id ~tenant ~secret () =
  let nonce =
    match check_error (rpc t ?trace_id (Wire.Open_session { tenant })) with
    | Wire.Session_challenge { nonce } -> nonce
    | _ ->
      Mope_error.raise_error "Client.open_session: unexpected response"
  in
  let mac = Mope_crypto.Hmac.mac_hex ~key:secret nonce in
  match check_error (rpc t ?trace_id (Wire.Authenticate { tenant; nonce; mac })) with
  | Wire.Session_ok { token } ->
    t.session <- token;
    token
  | _ -> Mope_error.raise_error "Client.open_session: unexpected response"

let rotate t ?trace_id ?(status_only = false) ~tenant () =
  match check_error (rpc t ?trace_id (Wire.Rotate { tenant; status_only })) with
  | Wire.Rotation { state; generation; rows_moved; rows_total } ->
    { state; generation; rows_moved; rows_total }
  | _ -> Mope_error.raise_error "Client.rotate: unexpected response"
