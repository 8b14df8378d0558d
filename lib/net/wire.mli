(** The proxy's wire protocol: versioned, length-prefixed binary frames.

    Every message travels as one frame, a {!Mope_db.Codec.record}: a 4-byte
    big-endian payload length, a 4-byte CRC-32 of the payload (so in-flight
    corruption is detected at the framing layer instead of being decoded
    into wrong data), then the payload. The payload starts with a 1-byte
    protocol version and a 1-byte message tag; the body is written with
    the same {!Mope_db.Codec} as snapshots and WAL records (big-endian
    fixed-width integers, length-prefixed strings, tagged values — no
    [Marshal], so frames are stable across compiler versions and
    languages). See DESIGN.md for the exact layout.

    Decoders never trust the peer: bad versions, unknown tags, truncated
    bodies, trailing bytes and oversized length prefixes all raise
    {!Protocol_error} with a reason. *)

open Mope_db

exception Protocol_error of string

exception Version_mismatch of { peer_version : int }
(** The payload's version byte differs from {!version} (and the message is
    not the version-independent [Unsupported_version] escape hatch).
    Distinct from {!Protocol_error} so a server can answer the structured
    {!Unsupported_version} response instead of a generic [Bad_frame]. *)

val version : int
(** Current protocol version (8 — v8 added request pipelining: a
    client-minted numeric request id in the request header, echoed
    between the tag and body of every response except the frozen
    [Unsupported_version], so responses on one connection may complete
    out of order and the client can match them; v7 added multi-tenancy: a session-token
    field in the request header, the [Open_session]/[Authenticate]/
    [Rotate] requests with their [Session_challenge]/[Session_ok]/
    [Rotation] responses, the [Auth_failed]/[Unknown_tenant] error codes,
    and the version-independent [Unsupported_version] response; v6 added
    cluster fault tolerance: a fencing [epoch] field on [Fetch]/[Apply], a
    client-minted [request_id] on [Apply] for exactly-once retries, the
    [Fence] request with its [Epoch_state] response, and the [Fenced]
    error code; v5 added the cluster store/replication ops
    [Fetch]/[Apply]/[Wal_since] and their responses; v4 added cache
    fields to the since-retired [Get_counters]/[Counters] pair; v3 added a
    trace-id field to the request header; v2 added the [retry_after] field
    to error responses). A decoder rejects frames whose version byte
    differs — version bumps are breaking by design; adding or retiring a
    tag does not bump it (a retired tag decodes as unknown, a structured
    [Bad_frame]). The one exception is [Unsupported_version] (tag 0xBE), whose
    frozen single-integer body decodes under any version byte: it exists
    precisely to tell a mismatched peer which version the server speaks. *)

val max_trace_id : int
(** Upper bound on the length of a request's trace id (64 bytes). *)

val max_session : int
(** Upper bound on the length of a header session token (64 bytes). *)

val max_tenant_id : int
(** Upper bound on the length of a tenant id (64 bytes) — also bounds the
    tenant metric-label values derived from it. *)

val max_mac : int
(** Upper bound on the length of a handshake nonce or MAC (128 bytes, hex
    renderings of at most 32 raw bytes). *)

val max_request_id : int
(** Upper bound on the length of an [Apply] request id (64 bytes) — the
    key of the store-side dedup table, so bounding it bounds that table's
    memory alongside its entry cap. *)

val max_frame : int
(** Upper bound on a payload length (16 MiB). A length prefix above this is
    rejected before any allocation, so a malicious or corrupt header cannot
    make either side allocate unbounded memory. *)

(** Observability snapshot served by {!Get_stats}: both metric renderings
    plus the server's recent trace ring (see {!Mope_obs}). This is the one
    stats channel: the proxy's obfuscation and cache counters travel as the
    [mope_proxy_*], [mope_segment_cache_*] and [mope_plan_cache_*] metric
    families (read one back with {!Mope_obs.Metrics.json_counter}). *)
type stats = {
  metrics_text : string;  (** Prometheus text exposition *)
  metrics_json : string;
  traces : Mope_obs.Trace.dump list;  (** newest first *)
}

type header = { trace_id : string; session : string; req_id : int }
(** The v8 request header, carried between the tag byte and the body of
    every request: the client-minted trace id (v3, [""] = untraced), the
    session token minted by a successful [Authenticate] (v7, [""] =
    unauthenticated — sufficient for [Ping]/[Open_session]/[Authenticate]
    and for single-tenant services that predate sessions), and the
    request id (v8, [0] = unassigned). A pipelining client assigns each
    in-flight request a distinct positive id and matches responses by the
    echoed id; a lockstep client sends 0 and gets 0 back. *)

val no_header : header
(** [{ trace_id = ""; session = ""; req_id = 0 }]. *)

type request =
  | Ping
  | Query of {
      sql : string;             (** full plaintext SQL *)
      date_column : string;     (** the MOPE-encrypted attribute ranged over *)
      date_lo : Date.t;         (** inclusive range start *)
      date_hi : Date.t;         (** inclusive range end *)
    }
  | Get_stats
  | Fetch of { sql : string; epoch : int }
      (** cluster-store read: run one SELECT against the shard's database
          and return the raw (still-encrypted) rows. [epoch] is the
          caller's fencing epoch for the shard (0 = unfenced: skip the
          check); a store whose epoch differs answers {!Fenced} so a
          deposed primary can never serve stale reads *)
  | Apply of { sql : string; epoch : int; request_id : string }
      (** cluster-store write: execute one mutating statement and append it
          to the shard's WAL; answered with {!Applied}. [epoch] fences as
          for [Fetch]. [request_id] (at most {!max_request_id} bytes; [""]
          = none) keys the store's bounded dedup table: retrying the same
          id is answered from the table instead of double-applying, which
          is what makes [Apply] safely retryable across a failover *)
  | Wal_since of { from_pos : int; max_bytes : int }
      (** replication pull: ship WAL records from [from_pos] on, at most
          [max_bytes] of payload per chunk; answered with {!Wal_chunk} *)
  | Fence of { epoch : int }
      (** control-plane: seal the store at [epoch] — it adopts the epoch
          and refuses every subsequent [Fetch]/[Apply] with {!Fenced} until
          it is re-pointed or rebuilt. [epoch = 0] only queries. Answered
          with {!Epoch_state}. Sent by the supervisor to a deposed primary
          that comes back from a partition *)
  | Open_session of { tenant : string }
      (** first half of the session handshake: ask the server for a fresh
          challenge nonce for [tenant]; answered with {!Session_challenge}
          (or {!Unknown_tenant}) *)
  | Authenticate of { tenant : string; nonce : string; mac : string }
      (** second half: [mac] is the hex HMAC of the challenge [nonce]
          under the tenant's shared auth secret. A correct MAC is answered
          with {!Session_ok} carrying the token to put in every subsequent
          request header; anything else gets {!Auth_failed} *)
  | Rotate of { tenant : string; status_only : bool }
      (** start an online key rotation for the session's own tenant
          ([status_only = false]; idempotent while one is running), or
          poll the current rotation state ([status_only = true]). Requires
          an authenticated session for [tenant] — rotating someone else's
          keys is {!Auth_failed}. Answered with {!Rotation} *)

type error_code =
  | Bad_frame    (** the peer sent something the codec rejected *)
  | Unsupported  (** well-formed request the server cannot serve *)
  | Exec_failed  (** the proxy pipeline raised while executing the query *)
  | Overloaded   (** the server is shedding load *)
  | Internal     (** anything else; the message carries the details *)
  | Fenced
      (** the request's fencing epoch does not match the store's — either
          the requester is behind a promotion, or the store is a sealed or
          stale ex-primary; the message names both epochs *)
  | Auth_failed
      (** bad MAC, unknown/expired session token, or a session used for a
          tenant it was not opened for; the message never says which *)
  | Unknown_tenant
      (** [Open_session] named a tenant the registry does not know *)

type response =
  | Pong
  | Rows of Exec.result
  | Stats of stats
  | Applied of { wal_pos : int }
      (** the statement is applied and logged; [wal_pos] is the shard WAL's
          end offset afterwards (0 when the store runs without a WAL) *)
  | Wal_chunk of {
      resync : bool;
          (** the follower's cursor no longer names a record boundary; it
              must rebuild from a fresh snapshot (see {!Mope_db.Wal.since}) *)
      records : string list;  (** statements, oldest first *)
      next_pos : int;  (** cursor for the next [Wal_since] *)
      end_pos : int;  (** primary WAL end; lag = [end_pos - next_pos] *)
    }
  | Epoch_state of { epoch : int }
      (** the store's fencing epoch after a {!Fence} request *)
  | Session_challenge of { nonce : string }
      (** the server-minted challenge to MAC in {!request.Authenticate} *)
  | Session_ok of { token : string }
      (** the session is open; put [token] in every subsequent request
          header ({!header.session}) *)
  | Rotation of {
      state : string;  (** ["serving"] or ["rotating"] *)
      generation : int;  (** key generation currently serving reads *)
      rows_moved : int;  (** rows re-encrypted so far in this rotation *)
      rows_total : int;  (** rows to move (0 when idle) *)
    }  (** rotation progress after a {!request.Rotate} *)
  | Unsupported_version of { server_version : int }
      (** the request's version byte differs from the server's. The one
          message decodable under any version byte (frozen body layout),
          so a pre-v7 client fails with a structured error instead of a
          codec crash *)
  | Error of {
      code : error_code;
      message : string;
      query : string option;
      retry_after : float option;
          (** hint: seconds to wait before retrying; set by the server's
              load shedder on [Overloaded] *)
    }

val error_code_to_string : error_code -> string

(* Codecs: [encode_*] produce a payload (no length prefix); [decode_*]
   consume one and raise [Protocol_error] on any malformation. *)

val encode_request :
  ?trace_id:string -> ?session:string -> ?req_id:int -> request -> string
(** [trace_id] (default [""] = untraced), [session] (default [""] =
    unauthenticated) and [req_id] (default [0] = unassigned) ride in the
    request header; the strings must be at most {!max_trace_id} and
    {!max_session} bytes respectively and [req_id] must be non-negative. *)

val decode_request : string -> header * request
(** Returns the request with its header; header fields are [""] when the
    client sent none. Raises {!Version_mismatch} (never [Protocol_error])
    when the version byte differs from {!version}. *)

val encode_response : ?req_id:int -> response -> string
(** [req_id] (default [0]) is the id echoed from the request being
    answered; it rides between the response tag and body. Ignored for
    [Unsupported_version], whose body layout is frozen at the header-less
    v7 shape so any-version peers can read it. *)

val decode_response : string -> int * response
(** Returns the echoed request id with the response ([0] for
    [Unsupported_version] and for servers answering unassigned-id
    requests). *)

(* Framed I/O over a {!Transport.t} — the seam where {!Chaos} interposes. *)

val write_frame_t : Transport.t -> string -> unit
(** Prefix the payload with its length and CRC-32 and write it fully
    (handles short writes). Raises [Invalid_argument] if the payload
    exceeds {!max_frame}. *)

val read_frame_t : Transport.t -> string
(** Read one frame and return its payload. Raises [End_of_file] on a clean
    close before any header byte, {!Protocol_error} on a mid-frame close,
    an out-of-bounds length prefix or a checksum mismatch, and lets
    [Unix.Unix_error] (e.g. a [SO_RCVTIMEO] timeout surfacing as [EAGAIN])
    propagate. *)

(* The same over a connected socket directly. *)

val write_frame : Unix.file_descr -> string -> unit
val read_frame : Unix.file_descr -> string
