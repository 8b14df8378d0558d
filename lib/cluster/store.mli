(** One shard server instance: a database slice plus an optional WAL.

    A store is deliberately dumb — it executes the SQL it is handed and
    never sees a key, a plaintext date, or a shard map. Everything it holds
    is ciphertext: it plays the untrusted server of the paper's model, one
    ciphertext slice at a time. {!handler} adapts it to {!Mope_net.Server},
    answering the v6 store ops ([Fetch]/[Apply]/[Wal_since]/[Fence]); proxy
    query ops are refused — a store is not a query frontend.

    Fault-tolerance state (all rebuilt from the WAL on {!recover}):

    - a {e fencing epoch}: requests carry the epoch their sender believes
      the shard is at; when both sides are nonzero and they differ the
      store refuses with {!Fenced}, so neither a deposed primary nor a
      behind-the-promotion client can mutate or read stale state. Epoch 0
      means "unfenced" on either side and skips the check.
    - a {e seal}: {!fence} marks a deposed primary so it refuses {e every}
      subsequent [Fetch]/[Apply] — the supervisor's last word to a zombie.
    - a bounded {e dedup table} of client request ids, making [Apply]
      exactly-once under retries — including a retry that lands on the
      promoted replica after a failover, because ids ride inside WAL
      records and replicas replay them into their own tables. *)

type t

exception
  Fenced of { request_epoch : int; store_epoch : int; sealed : bool }
(** Raised by {!fetch}/{!apply} when the fencing check refuses the request;
    {!handler} converts it to a [Wire.Fenced] error response. *)

val default_dedup_cap : int
(** Default bound on the request-id dedup table (1024 ids, FIFO
    eviction). *)

val create : ?wal_path:string -> ?wal_sync:bool -> ?dedup_cap:int -> unit -> t
(** An empty store. With [wal_path] every applied statement is logged, so
    the store can feed read replicas ({!wal_since}) and recover its slice
    after a restart ({!recover}). [wal_sync] (default [true]) fsyncs each
    append. [dedup_cap] (default {!default_dedup_cap}) bounds the request-id
    dedup table. *)

val recover : wal_path:string -> ?wal_sync:bool -> ?dedup_cap:int -> unit -> t
(** Rebuild a store by replaying its WAL's longest valid prefix, then open
    the log for appending (truncating any torn tail). Replay also restores
    the fencing epoch (from the log's last epoch mark) and the dedup table
    (from the logged request ids, newest [dedup_cap] retained), so a
    recovered store still refuses stale-epoch writes and still dedups a
    client retry that spans its restart. *)

val database : t -> Mope_db.Database.t
(** The underlying database — direct access for in-process callers; remote
    callers go through {!fetch}/{!apply}. *)

val apply : ?epoch:int -> ?request_id:string -> t -> sql:string -> int
(** Execute one mutating statement and append it to the WAL (in that
    order, under the store lock, so the WAL never logs a statement the
    database rejected). Returns the WAL end offset afterwards (0 without a
    WAL).

    [epoch] (default 0 = unfenced) is checked against the store's epoch —
    mismatch raises {!Fenced} before anything executes. [request_id]
    (default [""] = none; at most [Wire.max_request_id] bytes, no NUL)
    makes the statement idempotent: a repeat of a remembered id executes
    nothing and returns the current WAL end offset. *)

val apply_record : t -> string -> unit
(** Apply one raw WAL record pulled from a primary ({!wal_since}) — the
    replica ingestion path, also used by the supervisor to drain a dead
    primary's log into a promotion candidate. The record is appended to
    this store's own WAL {e verbatim}, so a replica's log stays
    byte-identical to its primary's prefix and WAL offsets remain valid
    cursors across a promotion. Statement records execute (and land in the
    dedup table) unless their request id is already remembered; epoch-mark
    records advance the store's fencing epoch — which is how a replica
    learns the post-promotion epoch without any out-of-band channel. *)

val fetch : ?epoch:int -> t -> sql:string -> Mope_db.Exec.result
(** Execute one SELECT and return the raw (encrypted) rows. [epoch] fences
    as for {!apply}. *)

val epoch : t -> int
(** The store's current fencing epoch (0 = never fenced). *)

val set_epoch : t -> int -> unit
(** Adopt a (higher) fencing epoch and log an epoch mark, so downstream
    replicas adopt it too — the promotion path: the supervisor calls this
    on the replica it elevates to primary. No-op when equal to the current
    epoch; raises {!Mope_error.Error} on an attempt to move backwards. *)

val fence : t -> epoch:int -> int
(** Seal the store at [epoch] (when positive): it adopts
    [max epoch (epoch t)] and refuses every subsequent {!fetch}/{!apply}
    with {!Fenced} — how the supervisor neutralizes a deposed primary that
    returns from a partition. [epoch = 0] only queries. Returns the
    resulting epoch. Sealing is in-memory: a sealed process that restarts
    recovers unsealed and is re-fenced by the supervisor on reappearance. *)

val is_sealed : t -> bool
(** [true] after {!fence} with a positive epoch. *)

val wal_since : t -> from_pos:int -> max_bytes:int -> Mope_db.Wal.chunk
(** One replication chunk (see {!Mope_db.Wal.since}). Raises
    {!Mope_error.Error} when the store has no WAL. *)

val wal_pos : t -> int
(** Current WAL end offset (0 without a WAL). *)

val handler :
  t -> Mope_net.Wire.header -> Mope_net.Wire.request -> Mope_net.Wire.response
(** Request handler for {!Mope_net.Server.start}: [Ping], [Fetch],
    [Apply], [Wal_since], [Fence] and [Get_stats] are served; [Query] and
    the tenant session ops answer [Unsupported]. A fencing refusal becomes a
    structured [Fenced] error naming both epochs; other handler exceptions
    become [Exec_failed]/[Unsupported] errors. Thread-safe. *)

val close : t -> unit
(** Close the WAL (idempotent). The database stays readable. *)
