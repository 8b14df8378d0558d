(** Multi-tenant front door: wire v7 sessions in front of the
    {!Registry}, ending in each tenant's own {!Mope_net.Service}.

    The single-tenant {!Mope_net.Service} handler trusts every connection;
    this front door authenticates first. [Open_session]/[Authenticate] run
    the {!Session} handshake; every other request (except [Ping]) must
    carry a live session token in its header and is served by the token's
    own tenant's dispatcher — there is no way to name another tenant's
    data, so isolation is by construction, not by filtering.

    Per-tenant isolation on the serving path:
    - every request runs inside a ["tenant:<id>"] trace span and counts
      into [mope_tenant_*{tenant="<id>"}] metrics (the registry's label
      cap bounds the cardinality);
    - each tenant has an in-flight budget; beyond it the request is shed
      with [Overloaded] + [retry_after] {e before} touching the tenant
      lock, so one tenant's storm queues on its own budget instead of
      camping on the mutex every other request of that tenant needs;
    - queries serialize on the tenant's lock, never on another
      tenant's, and then run through the tenant's dispatcher exactly as
      on the single-tenant path.

    During an online rotation a query fetches through {e both}
    generations' proxies and evaluates the client statement once over the
    pooled plaintext rows — the dual-key read window — so results are
    identical to a never-rotated tenant at every point of the move. *)

type t

val create :
  registry:Registry.t ->
  ?max_inflight:int ->
  ?chunk_rows:int ->
  ?session_seed:int64 ->
  unit ->
  t
(** [max_inflight] (default 8) is the per-tenant concurrent-request
    budget; [chunk_rows] (default 64) the rotation worker's chunk size;
    [session_seed] (default [0x7e4a47L]) seeds the session-token
    generator. *)

val sessions : t -> Session.t

val handler : t -> Mope_net.Wire.header -> Mope_net.Wire.request -> Mope_net.Wire.response
(** Dispatch one request. [Rotate{status_only = false}] starts the
    rotation and spawns (at most one) background worker for the tenant;
    [Rotate{status_only = true}] polls. [Get_stats] and the store and
    cluster ops go to the tenant's {!Mope_net.Service.handler} once the
    session checks out (so the latter answer [Unsupported]). *)

val join_workers : t -> unit
(** Wait for every background rotation worker spawned by {!handler} to
    finish (test/shutdown helper). *)
