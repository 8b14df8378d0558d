(** Scatter-gather query coordinator over a sharded encrypted store.

    Implements the proxy's {!Mope_system.Proxy.fetch_many} seam against a fleet
    of shard stores: route the query's coalesced ciphertext segments over
    the {!Shard_map}, specialize the date-less fetch template per shard,
    fan the sub-fetches out concurrently over the wire, and merge the
    (still encrypted) rows back in shard order — ascending ciphertext, the
    same order a single node's index scan yields.

    [IN (SELECT …)] conjuncts cannot be evaluated on one shard of a
    partitioned table, so the coordinator {e pre-resolves} them: the inner
    select is broadcast to every shard, the per-shard value sets are
    unioned (each partitioned row lives on exactly one shard), and the
    conjunct is rewritten to a literal [IN]-list ([FALSE] for an empty
    set) before fan-out. Resolutions are memoized by inner select until
    the next {!apply}.

    Failover: each shard lists its primary first, then its replicas. A
    leg whose request fails (dead primary, tripped breaker, fencing
    refusal, chaos) is skipped and the next leg serves the read; the
    per-shard [mope_cluster_failover_total] counter records it. Fetches
    are idempotent reads, so retrying a different leg is always safe.

    The coordinator also carries the {e routing state} the failover
    supervisor maintains: per shard, the current primary leg, the fencing
    epoch stamped on every [Fetch]/[Apply] (initialized from the
    {!Shard_map}'s persisted epochs), per-leg read eligibility (a replica
    beyond the staleness bound is skipped), and a read-only bit for the
    degraded no-replica-in-bound state, in which writes are shed with a
    retry-after hint. *)

type endpoint = { host : string; port : int }

type shard_conf = {
  primary : endpoint;
  replicas : endpoint list;  (** failover order after the primary *)
}

type t

val create :
  map:Shard_map.t ->
  shards:shard_conf list ->
  ?timeout:float ->
  ?request_retries:int ->
  ?breaker_threshold:int ->
  ?breaker_cooldown:float ->
  ?seed:int64 ->
  ?wrap:(Mope_net.Transport.t -> Mope_net.Transport.t) ->
  unit ->
  t
(** [shards] must have exactly [Shard_map.shards map] entries. Connections
    are dialed lazily, per leg, and redialed transparently. [wrap]
    interposes on every dialed connection (e.g. {!Mope_net.Chaos.wrap});
    [seed] makes the per-leg client jitter deterministic. The
    client-tuning parameters are forwarded to {!Mope_net.Client.connect}
    (with failover-friendly defaults: 1 request retry, breaker threshold
    3). *)

val fetch_many : t -> Mope_system.Proxy.fetch_many
(** The scatter-gather fetch seam — pass as [?fetch_many] to
    {!Mope_system.Proxy.create}. One worker per touched shard; all the
    batches routed to a shard travel down its connection as a single
    pipelined flight ({!Mope_net.Client.fetch_batch}), and each batch's
    rows are merged in shard order. A shard's flight fails over as a unit
    — any failed item replays the whole list on the next leg (reads are
    idempotent). Raises {!Mope_error.Error} when a touched shard has no
    live leg. *)

val apply :
  ?request_id:string ->
  ?retries:int ->
  ?retry_backoff:float ->
  t ->
  shard:int ->
  sql:string ->
  int
(** Execute one mutating statement on the shard's {e current} primary
    (replica legs never serve writes). Returns the primary's WAL end
    offset.

    Without [request_id] (default): one attempt, and an ambiguous failure
    surfaces as {!Mope_error.Error} — retrying could double-apply. With a
    [request_id] the store dedups repeats, so up to [retries] (default 2)
    extra attempts are made, [retry_backoff] (default 50 ms) apart, each
    re-reading the current primary and epoch — which is what carries a
    write across a mid-flight promotion: the retry lands on the promoted
    replica, exactly once. While the shard is read-only, raises
    immediately with a "retry after" hint in the message. Every call,
    including one that raises, drops the memoized [IN (SELECT …)]
    resolutions. *)

(** {1 Supervisor control surface}

    Routing-state accessors for the failover supervisor
    ({!Supervisor}); all thread-safe. Leg indices follow [shards] order:
    leg 0 is the configured primary, leg [i >= 1] is [replicas.(i-1)]. *)

val epoch : t -> shard:int -> int
(** The fencing epoch currently stamped on the shard's requests. *)

val set_epoch : t -> shard:int -> int -> unit

val primary_leg : t -> shard:int -> int
(** The leg currently serving the shard's writes. *)

val leg_count : t -> shard:int -> int

val is_read_only : t -> shard:int -> bool

val set_read_only : t -> shard:int -> ?retry_after:float -> bool -> unit
(** Enter/leave degraded read-only mode; [retry_after] (kept from the
    last entry, initially 0.5 s) is the hint quoted to shed writes. *)

val set_leg_eligible : t -> shard:int -> leg:int -> bool -> unit
(** Mark a replica leg in/out of the failover-read rotation — out when
    its staleness exceeds the supervisor's bound. The primary leg is
    always tried regardless. *)

val promote : t -> shard:int -> leg:int -> epoch:int -> unit
(** Atomically switch the shard's writes (and first-choice reads) to
    [leg] under the new fencing [epoch], restore the leg's eligibility,
    and clear read-only mode. *)

val wal_pos : t -> shard:int -> int
(** The shard primary's current WAL end offset (an [Apply] of a no-op is
    not needed: asks via [Wal_since] with an empty pull). *)

val close : t -> unit
(** Close every dialed connection. *)
