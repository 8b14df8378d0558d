(** The trusted proxy (paper §5, Fig. 4).

    Sits between clients and the untrusted server. For each client SQL query
    with a range predicate on the MOPE-encrypted date attribute it:

    + transforms the range into fixed-length-k pieces (τ_k),
    + interleaves fake queries per the configured scheduler (QueryU/QueryP),
    + rewrites each executed query's date predicate into ciphertext ranges
      and sends a row-fetch to the server — optionally {e batching} many
      queries into one disjunctive statement (§5.1), which the server's
      planner collapses into one merged multi-range index scan,
    + decrypts the returned rows, drops fake results and τ_k overshoot, and
    + re-evaluates the client's original statement (aggregates, GROUP BY,
      ORDER BY) locally over the surviving plaintext rows.

    Release timing is a deployment concern: a real deployment drains the
    executed-query stream through {!Mope_core.Pacer} so departures happen at
    fixed intervals regardless of client activity (paper §5). *)

open Mope_db

type counters = {
  mutable client_queries : int;
  mutable real_pieces : int;     (** τ_k pieces of real queries executed *)
  mutable fake_queries : int;
  mutable server_requests : int; (** statements actually sent (after batching) *)
  mutable rows_fetched : int;    (** encrypted rows returned by the server *)
  mutable rows_delivered : int;  (** rows surviving the proxy's exact filter *)
  mutable segment_cache_hits : int;
  mutable segment_cache_misses : int;
}

type t

type fetch_many =
  date_column:string ->
  batches:(int * int) list list ->
  template:Sql_ast.select ->
  Exec.result list
(** The proxy's server-fetch seam: one client query's whole execution
    plan — every MakeQueries fake+real batch, each already reduced to its
    coalesced ciphertext segments — in a single call, answered positionally
    (one {!Exec.result} per batch, same order). [template] is the client
    statement stripped to a fetch ([SELECT * …]) with every [date_column]
    predicate removed; batch [i]'s result must be the (still encrypted)
    rows matching [template] with [column BETWEEN a AND b OR …] over
    [batches.(i)] conjoined — what {!Rewrite.add_conjunct} of
    {!Rewrite.cipher_ranges_expr} expresses. The default runs exactly that
    against the local {!Encrypted_db.server}, one statement per batch; a
    cluster coordinator substitutes its scatter-gather, shipping all
    batches down one pipelined connection per shard in a single round
    trip. *)

val create :
  enc:Encrypted_db.t ->
  scheduler:Mope_core.Scheduler.t ->
  ?batch_size:int ->
  ?caching:bool ->
  ?fetch_many:fetch_many ->
  seed:int64 ->
  unit ->
  t
(** A proxy with the client distribution known a priori (QueryU / QueryP).
    [batch_size] (default 1) = number of executed query starts combined into
    one server statement. [caching] (default true) enables the OPE segment
    cache: coverage start → ciphertext segments, at most one entry per start
    in [\[0, m)], never invalidated (the scheme is deterministic for a fixed
    key). The scheduler's domain must equal the encrypted database's date
    domain. *)

val create_adaptive :
  enc:Encrypted_db.t ->
  k:int ->
  ?rho:int ->
  ?batch_size:int ->
  ?caching:bool ->
  ?fetch_many:fetch_many ->
  seed:int64 ->
  unit ->
  t
(** A proxy that learns the client distribution online (AdaptiveQueryU, or
    AdaptiveQueryP when [rho] is given): each client query's τ_k pieces
    enter the buffer, and queries are executed until every piece has been
    served by a buffer hit — exactly §4's loop. Early queries cost many
    fakes; the rate converges as the buffer grows. *)

val adaptive_state : t -> Mope_core.Adaptive.t option
(** The learner (for inspecting α, buffer size, crossover readiness);
    [None] for a static proxy. *)

val counters : t -> counters

val reset_counters : t -> unit

val segment_cache_size : t -> int
(** Live entries in the segment cache; [0] when caching is disabled. *)

val server_database : t -> Database.t
(** The untrusted server database this proxy fetches from (e.g. to read its
    plan-cache statistics); proxies over the same {!Encrypted_db.t} share
    it. *)

val execute :
  t ->
  sql:string ->
  date_column:string ->
  date_lo:Date.t ->
  date_hi:Date.t ->
  Exec.result
(** Run one client statement whose date-range predicate on [date_column]
    spans [\[date_lo, date_hi\]]. The proxy fetches that range clamped to
    the encryption window (nothing at all when the two are disjoint), or
    the whole window when a WHERE conjunct reads [date_column] other than
    as a top-level [=], [<], [<=], [>], [>=] or [BETWEEN] against
    literals. Returns exactly what the plaintext database would return for
    [sql] (up to row order within equal sort keys), except in three
    shapes not handled yet: a request range narrower than the statement's
    own, a WHERE literal compared with a DET-encrypted column, and a
    conjunct that reads [date_column] and contains an [IN (SELECT …)]. *)

val fetch_decrypted :
  t ->
  sql:string ->
  date_column:string ->
  date_lo:Date.t ->
  date_hi:Date.t ->
  Sql_ast.select * Mope_db.Value.t array list
(** The fetch half of {!execute}: transform, schedule fakes, fetch and
    decrypt, returning the parsed statement and the surviving plaintext
    rows {e before} local re-evaluation. {!execute} is
    [fetch_decrypted] composed with {!eval_over}; the split exists for
    callers that hold two proxies over the same plaintext — the dual-key
    read window of an online key rotation — and must evaluate the
    client's statement once over the union of both generations' rows
    (an aggregate evaluated per-generation and then merged would be
    wrong).

    Decryption is projection-aware: encrypted columns the statement's
    local re-evaluation never reads (typically the DET join keys of a
    statement that aggregates other columns) are returned as [Null]
    instead of being decrypted — the dominant per-row cost on the TPC-H
    templates. The rows are an internal hand-off shape for {!eval_over},
    not whole table rows. *)

val eval_over :
  t -> ast:Sql_ast.select -> Mope_db.Value.t array list -> Exec.result
(** Evaluate a client statement (as returned by {!fetch_decrypted}) locally
    over the given plaintext rows — aggregates, GROUP BY, ORDER BY and any
    residual predicates. Row pooling across generations is the caller's
    business; pass rows in a deterministic order. *)
