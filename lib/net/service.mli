(** The query dispatcher: the one place a [Wire.Query] meets a proxy.

    A service owns one {!Mope_system.Proxy.t} per served date column (e.g.
    [l_shipdate] and [o_orderdate] for the TPC-H testbed). A proxy is
    single-threaded (mutable counters, one RNG, one adaptive learner), so a
    server worker checks the column's proxy out, executes with no lock
    held, and checks it back in; workers wanting a busy column park on the
    column's condition variable. Queries on different columns run
    concurrently, queries on the same column serialize, and the handler
    never blocks a worker while {e holding} a lock, which is what the
    pooled {!Server} needs from its handlers.

    [handler] is the single-tenant front door. The multi-tenant one
    ({!Mope_tenant.Tenant_service}) authenticates, picks the tenant's
    service for its current key generation, and ends here too. *)

open Mope_system

type t

val create : proxies:(string * Proxy.t) list -> unit -> t
(** [create ~proxies] with [proxies] mapping a date-column name to the
    proxy serving it. Raises [Invalid_argument] on an empty or duplicated
    mapping. *)

val using : t -> date_column:string -> (Proxy.t -> 'a) -> 'a option
(** [using t ~date_column f] runs [f] on [date_column]'s proxy, checked
    out for the duration and wrapped in an ["exec"] trace span; [None]
    when no proxy serves the column. *)

val answer :
  sql:string ->
  date_column:string ->
  (unit -> Mope_db.Exec.result option) ->
  Wire.response
(** Turn one query's execution into its wire answer: [Rows] on success,
    [Unsupported] for [None] (no proxy serves [date_column]), and
    [Exec_failed] with [sql] attached when the execution raises. *)

val query :
  t ->
  sql:string ->
  date_column:string ->
  date_lo:Mope_db.Date.t ->
  date_hi:Mope_db.Date.t ->
  Wire.response
(** {!Proxy.execute} on the column's proxy, answered as by {!answer}. *)

val handler : t -> Wire.header -> Wire.request -> Wire.response
(** [Ping] → [Pong]; [Get_stats] → the observability snapshot
    ({!stats}); [Query] → {!query}. The header is ignored: this front
    door is single-tenant, so session ops, like store and cluster ops,
    answer [Unsupported]. *)

val stats : unit -> Wire.response
(** The [Stats] response served for [Get_stats]: current
    {!Mope_obs.Metrics} renderings plus {!Mope_obs.Trace.recent}. *)
