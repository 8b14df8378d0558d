(** Online key rotation for one tenant (paper §9, made non-blocking).

    The offline {!Mope_system.Key_rotation.rotate} stops the world; here
    the re-encryption streams through {!Mope_system.Key_rotation.move_chunk}
    in bounded chunks while the tenant keeps serving. The state machine per
    tenant:

    - {e serving}: one generation; queries hit it directly.
    - {e rotating}: the incoming generation (fresh key, fresh secret
      offset) fills chunk by chunk; each chunk {e moves} rows, so every
      row lives in exactly one generation and a query that pools both
      generations' fetches sees each row exactly once — the dual-key read
      window ({!Tenant_service} implements that read path).
    - cutover (atomic, under the tenant lock): the incoming generation
      becomes current, the generation counter advances, the old handle is
      dropped.

    A killed worker leaves both generations intact in the registry;
    restarting the worker resumes the same move. No progress is ever lost
    and no row duplicated — old ∪ new is complete at every instant, which
    is the invariant the chaos tests check. *)

type status = {
  state : string;  (** ["serving"] or ["rotating"] *)
  generation : int;
  rows_moved : int;
  rows_total : int;  (** both [0] while serving *)
}

val status : Registry.tenant -> status

val start : Registry.t -> Registry.tenant -> status
(** Begin rotating to generation [g+1] (derives the new key, builds the
    empty incoming generation and its proxies). Idempotent: if a rotation
    is already in flight, returns its status without restarting. *)

val step : Registry.t -> Registry.tenant -> chunk_rows:int -> bool
(** Move one chunk under the tenant lock; on completion performs the
    atomic cutover and returns [true]. [true] also when no rotation is in
    flight. *)

val drive :
  Registry.t ->
  Registry.tenant ->
  chunk_rows:int ->
  should_stop:(unit -> bool) ->
  unit
(** Step until cutover on the calling thread, yielding between chunks so
    queries interleave. [should_stop] (polled between chunks) abandons the
    move mid-way; it stays resumable. *)

val worker :
  Registry.t ->
  Registry.tenant ->
  ?chunk_rows:int ->
  ?should_stop:(unit -> bool) ->
  unit ->
  Thread.t
(** {!drive} on a background thread — [should_stop] is the chaos tests'
    kill switch; a new worker resumes the move. [chunk_rows] defaults to
    64. *)
