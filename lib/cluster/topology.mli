(** Loopback cluster bootstrap: launch K shard primaries (each a
    {!Store.t} behind a {!Mope_net.Server}), load each with its slice of
    an encrypted database, spawn R WAL-shipping replicas per shard and
    sync them, and wire a {!Coordinator} over the fleet.

    Everything binds to 127.0.0.1 on ephemeral ports, and every byte still
    crosses the full wire protocol — optionally through a [wrap] transport
    (e.g. {!Mope_net.Chaos.wrap}), so chaos tests exercise the cluster
    exactly like a remote deployment, deterministically and seeded. *)

type t

val launch :
  enc:Mope_system.Encrypted_db.t ->
  shards:int ->
  replicas:int ->
  wal_dir:string ->
  ?wal_sync:bool ->
  ?wrap:(Mope_net.Transport.t -> Mope_net.Transport.t) ->
  ?seed:int64 ->
  unit ->
  t
(** Partition [enc]'s ciphertext space over [shards] equal slices, load
    each primary with its slice via {!Mope_system.Encrypted_db.shard_statements}
    (WAL-logged, so replicas can catch up from the log alone), then bring
    up [replicas] read replicas per shard and {!sync_replicas} them.
    Every primary is stamped with its shard's fencing epoch from the map
    {e before} loading (the epoch mark leads the log, so replicas adopt it
    from replay). Primaries write WALs under [wal_dir] (shard [i] logs to
    [shard-<i>.wal]); replicas keep byte-identical mirrors in
    [shard-<i>-replica-<r>.wal], which is what lets the supervisor drain
    a dead primary's log into a promotion candidate. [wal_sync] (default
    [false] — a loopback harness prioritizes load speed) controls
    per-append fsync. [wrap] interposes on every connection — server side
    and client side both. *)

val coordinator : t -> Coordinator.t

val fetch_many : t -> Mope_system.Proxy.fetch_many
(** Shorthand for [Coordinator.fetch_many (coordinator t)]: the proxy's
    fetch seam over this fleet. *)

val map : t -> Shard_map.t

val shards : t -> int

val primary_port : t -> shard:int -> int

val primary_wal_path : t -> shard:int -> string
(** The shard primary's WAL file — what the supervisor drains after
    killing it. *)

val replicas_of : t -> shard:int -> Replica.t list
(** The shard's replication handles, in leg order. *)

val replica_port : t -> shard:int -> index:int -> int
(** The serving port of the shard's [index]-th replica. *)

val supervisor :
  t ->
  ?config:Supervisor.config ->
  ?seed:int64 ->
  ?wrap:(Mope_net.Transport.t -> Mope_net.Transport.t) ->
  ?map_path:string ->
  unit ->
  Supervisor.t
(** A {!Supervisor} over this topology's legs: per shard, the primary
    (with its WAL path, for drains) followed by every replica. The caller
    drives it with {!Supervisor.tick} or {!Supervisor.start}. *)

val sync_replicas : t -> int
(** Pull every replica to its primary's WAL end; returns records applied
    across all replicas. *)

val replica_lag : t -> shard:int -> int list
(** Byte lag of each of the shard's replicas, as of their last sync. *)

val kill_primary : t -> shard:int -> unit
(** Shut the shard's primary server down (connections die, the port goes
    dark) — reads must fail over to its replicas. Idempotent. *)

val revive_primary : t -> shard:int -> int
(** Bring the killed primary back as a {e zombie}: recover its store from
    its own WAL (stale fencing epoch and all) and rebind its old port —
    the deposed-ex-primary scenario the fencing epochs exist for. Returns
    the port. Raises [Invalid_argument] if the primary is still up. *)

val zombie_port : t -> shard:int -> int option
(** The revived zombie's port, if {!revive_primary} ran. *)

val shutdown : t -> unit
(** Stop every server and close every store and client. Idempotent. *)
