(** Client driver for the networked proxy.

    A blocking, single-connection client (the driver-library shape of
    [ocaml-mssql] / [bs-mysql-driver]): connect once, issue queries, close.
    All failures — transport, timeout, protocol violations, and server-side
    [Wire.Error] responses — surface as {!Mope_error.Error} carrying the
    SQL being served and the underlying exception, never as bare [Failure]
    or raw [Unix.Unix_error].

    The driver is built to ride out a flaky or restarting proxy:

    - a broken connection is dropped and transparently re-established on
      the next request (dialing retries transient failures with
      {e jittered} exponential backoff, so a fleet of clients that lost
      the same proxy does not reconnect in lockstep);
    - idempotent requests (every read: [Ping], [Query], [Get_stats],
      [Fetch], [Wal_since], plus the [Fence] control op) are
      retried up to [request_retries] times with the same jittered
      backoff; [Apply] mutates the remote store and is retried only when
      it carries a [request_id] — the store's dedup table then makes the
      retry exactly-once; without one an ambiguous failure surfaces as an
      error instead of a possible double-apply; an [Overloaded] answer
      waits the server's retry-after hint instead;
    - a circuit breaker counts consecutive transport failures: at
      [breaker_threshold] it {e opens} and every request fails fast
      (no dialing, no timeout burn) until [breaker_cooldown] has passed;
      the next request then {e half-opens} the breaker as a single probe —
      success closes it, failure re-opens it for another cooldown.

    The driver can also {e pipeline}: {!pipeline} and {!query_batch} keep
    up to [depth] requests in flight on the one connection, matching
    responses to requests by the v8 request id echoed in every response
    header — so a slow request does not head-of-line block the rest, and
    the server may complete them out of order. Retry, breaker and
    idempotency accounting stays per request: a mid-pipeline disconnect
    re-queues the idempotent in-flight requests (attempt budget
    permitting) and fails only those that cannot be safely resent.

    A [t] is not thread-safe: requests interleave frames on one socket, so
    share a client across threads only behind a lock (or open one per
    thread — the server is happy to oblige). *)

open Mope_db

type t

val connect :
  ?host:string ->
  port:int ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?request_retries:int ->
  ?breaker_threshold:int ->
  ?breaker_cooldown:float ->
  ?seed:int64 ->
  ?wrap:(Transport.t -> Transport.t) ->
  unit ->
  t
(** Connect, retrying transient failures (connection refused/reset, network
    or host unreachable, timeout) up to [retries] extra times with jittered
    exponential backoff. [host] defaults to ["127.0.0.1"]; [timeout]
    (default 10 s, 0 = none) bounds every socket operation including the
    connect itself; [backoff] (default 0.05 s) is the first retry delay and
    doubles per attempt, each delay jittered to 0.5–1.5× its nominal value.
    [request_retries] (default 2) bounds per-request retries of idempotent
    requests; [breaker_threshold] (default 5) consecutive transport
    failures open the circuit breaker for [breaker_cooldown] (default 5 s).
    [seed] fixes the jitter schedule (tests); by default it is derived from
    the clock and pid so concurrent clients de-synchronize. [wrap]
    interposes on the byte stream of every connection this client dials
    (e.g. {!Chaos.wrap}). Raises {!Mope_error.Error} once attempts are
    exhausted or on a non-transient failure. *)

val close : t -> unit
(** Idempotent. Subsequent calls on the client raise {!Mope_error.Error}. *)

val is_closed : t -> bool
(** [true] after {!close} — a closed client never reconnects. *)

val is_connected : t -> bool
(** [true] while a live connection is held. [false] does not mean dead:
    the next request redials unless the client is closed. *)

val breaker_state : t -> [ `Closed | `Open | `Half_open ]
(** Current circuit-breaker state; [`Half_open] means the cooldown has
    elapsed and the next request will probe the server. *)

val with_client :
  ?host:string -> port:int -> ?timeout:float -> ?retries:int ->
  ?backoff:float -> ?request_retries:int -> ?breaker_threshold:int ->
  ?breaker_cooldown:float -> ?seed:int64 ->
  ?wrap:(Transport.t -> Transport.t) -> (t -> 'a) -> 'a
(** Connect, run, close (also on exception). *)

val ping : ?timeout:float -> t -> unit
(** Round-trip a [Ping] frame — the wire protocol's health check.

    Without [timeout], the ping behaves like any other request (general
    socket timeout, retries, breaker). With [timeout] it becomes a
    {e failure-detector probe}: exactly one attempt (one dial if needed,
    no retry/backoff schedule), bounded by [timeout] both at the socket
    level and by a deadline checked between transport operations — so a
    peer that trickles bytes (or a chaos transport injecting delays)
    still cannot stretch the probe past its budget. A failed or late
    probe drops the connection (a late [Pong] left in the socket would
    desynchronize framing) and raises {!Mope_error.Error}. *)

val query :
  t ->
  ?trace_id:string ->
  sql:string ->
  date_column:string ->
  date_lo:Date.t ->
  date_hi:Date.t ->
  unit ->
  Exec.result
(** Execute one client statement through the remote proxy — the wire twin
    of {!Mope_system.Proxy.execute}. A server-side [Wire.Error] response is
    raised as {!Mope_error.Error} with the server's message, error code and
    query context.

    [trace_id] overrides the id sent in the v3 request header; by default
    one is minted from the client's RNG whenever tracing
    ({!Mope_obs.Trace}) is enabled in this process, and the empty id
    (= untraced) is sent otherwise. *)

val pipeline :
  t ->
  ?trace_id:string ->
  ?depth:int ->
  Wire.request list ->
  (Wire.response, Mope_error.t) result list
(** Issue a batch of requests on the one connection, keeping up to
    [depth] (default 8, min 1) in flight at once; returns one outcome per
    request, in request order, after the whole batch settles. Responses
    are matched by the v8 request id, so the server may complete them out
    of order without head-of-line blocking.

    Each request carries its own retry budget ([request_retries] if
    idempotent, none otherwise) and its own trace id ([trace_id], when
    given, overrides all of them). A transport failure mid-batch drops
    the connection, counts once against the breaker, re-queues in-flight
    idempotent requests with jittered backoff and fails the rest; an
    [Overloaded] answer re-queues just that request after the server's
    retry-after hint. Server [Wire.Error] responses are returned as
    [Ok (Error _)] payloads — mapping them to {!Mope_error.t} is the
    caller's (or {!query_batch}'s) job. Raises {!Mope_error.Error} only
    if the client is closed or the breaker is already open on entry. *)

val query_batch :
  t ->
  ?trace_id:string ->
  ?depth:int ->
  date_column:string ->
  queries:(string * Date.t * Date.t) list ->
  unit ->
  (Exec.result, Mope_error.t) result list
(** {!query} over {!pipeline}: execute a batch of client statements —
    [(sql, date_lo, date_hi)] triples ranging over [date_column] —
    keeping up to [depth] in flight, and return per-statement outcomes in
    order, server errors included as [Error] results rather than raised
    (one bad statement must not discard its siblings' rows). This is how
    the proxy ships a MakeQueries fake+real batch in one round trip. *)

val fetch : t -> ?trace_id:string -> ?epoch:int -> sql:string -> unit -> Exec.result
(** Run one SELECT directly against a cluster shard store
    ({!Mope_cluster.Store}) and return the raw — still encrypted — rows.
    The [Fetch] wire op; idempotent, so it retries like {!query}.
    [epoch] (default 0 = unfenced) is the caller's fencing epoch for the
    shard; a store whose epoch differs refuses with [Fenced]
    (see {!is_fenced}). *)

val fetch_batch :
  t ->
  ?trace_id:string ->
  ?depth:int ->
  ?epoch:int ->
  sqls:string list ->
  unit ->
  (Exec.result, Mope_error.t) result list
(** {!fetch} over {!pipeline}: run several shard SELECTs down the one
    connection with up to [depth] in flight, under one fencing [epoch],
    returning per-statement outcomes in order. The cluster coordinator
    uses this to ship a client query's whole fake+real batch plan to a
    shard in one round trip. *)

val apply :
  t -> ?trace_id:string -> ?epoch:int -> ?request_id:string -> sql:string ->
  unit -> int
(** Execute one mutating statement on a shard store and append it to the
    shard's WAL; returns the WAL end offset afterwards (0 if the store has
    no WAL). [epoch] fences as for {!fetch}. Without a [request_id] the
    request is not idempotent — never retried, so an ambiguous transport
    failure surfaces as an error instead of a possible double-apply. With
    a [request_id] (at most {!Wire.max_request_id} bytes) the store dedups
    repeats, so the request retries like a read and a cross-failover retry
    applies exactly once. *)

val fence : t -> ?trace_id:string -> epoch:int -> unit -> int
(** Seal a shard store at [epoch] (the [Fence] wire op): the store adopts
    the epoch and refuses all subsequent [Fetch]/[Apply] with [Fenced]
    until rebuilt — how the supervisor neutralizes a deposed primary that
    returns from a partition. [epoch = 0] only queries. Returns the
    store's resulting epoch. *)

val is_fenced : Mope_error.t -> bool
(** [true] when the error wraps a server [Fenced] refusal — the caller's
    (or the store's) fencing epoch is stale. Failover logic uses this to
    separate "refresh the epoch and re-route" from transport failure. *)

val wal_since :
  t -> ?trace_id:string -> from_pos:int -> max_bytes:int -> unit -> Wal.chunk
(** Pull one replication chunk from a shard primary (the [Wal_since] wire
    op): the WAL records from [from_pos] on, capped at [max_bytes] of
    payload. See {!Mope_db.Wal.since} for cursor semantics, including the
    [resync] signal after a checkpoint truncation. *)

val stats : t -> Wire.stats
(** The server's observability snapshot: both metric renderings plus its
    recent traces (the [Get_stats] wire op). *)

(** Progress of a tenant's online key rotation (see {!rotate}). *)
type rotation_status = {
  state : string;  (** ["serving"] or ["rotating"] *)
  generation : int;  (** key generation currently serving reads *)
  rows_moved : int;
  rows_total : int;
}

val open_session :
  t -> ?trace_id:string -> tenant:string -> secret:string -> unit -> string
(** Run the v7 session handshake against a multi-tenant service: request a
    challenge nonce for [tenant] ([Open_session]), answer it with the hex
    HMAC of the nonce under [secret] ([Authenticate]), and store the
    returned token — every subsequent request on this client carries it in
    the header. Returns the token. The secret itself never goes on the
    wire. Raises {!Mope_error.Error} on [Unknown_tenant] or [Auth_failed];
    the handshake is not retried as a whole (a half-done handshake's nonce
    is consumed), so redo {!open_session} after a failure. *)

val session : t -> string option
(** The session token sent with every request, if a handshake succeeded. *)

val clear_session : t -> unit
(** Forget the session token (subsequent requests go unauthenticated). *)

val rotate :
  t -> ?trace_id:string -> ?status_only:bool -> tenant:string -> unit ->
  rotation_status
(** Start an online key rotation for [tenant] (or, with
    [status_only = true], poll the one in progress — only the poll is
    retried on transport failure). Requires an authenticated session for
    that same tenant ({!open_session}); rotating anyone else's keys is
    refused with [Auth_failed]. *)
