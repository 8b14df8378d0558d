open Mope_system
module Wire = Mope_net.Wire
module Metrics = Mope_obs.Metrics
module Trace = Mope_obs.Trace

type t = {
  registry : Registry.t;
  sessions : Session.t;
  max_inflight : int;
  chunk_rows : int;
  workers_lock : Mutex.t;
  workers : (string, Thread.t) Hashtbl.t;  (* tenant id → live rotation worker *)
}

let create ~registry ?(max_inflight = 8) ?(chunk_rows = 64)
    ?(session_seed = 0x7e4a47L) () =
  if max_inflight < 1 then invalid_arg "Tenant_service.create: max_inflight";
  if chunk_rows < 1 then invalid_arg "Tenant_service.create: chunk_rows";
  { registry;
    sessions = Session.create ~seed:session_seed ();
    max_inflight;
    chunk_rows;
    workers_lock = Mutex.create ();
    workers = Hashtbl.create 8 }

let sessions t = t.sessions

(* ---------- per-tenant metrics (idempotent registration) ---------- *)

let m_queries id =
  Metrics.counter "mope_tenant_queries_total" ~help:"Queries served per tenant"
    ~labels:[ ("tenant", id) ] ()

let m_shed id =
  Metrics.counter "mope_tenant_shed_total"
    ~help:"Requests shed by the per-tenant in-flight budget"
    ~labels:[ ("tenant", id) ] ()

let m_latency id =
  Metrics.histogram "mope_tenant_query_seconds"
    ~help:"Per-tenant query latency" ~labels:[ ("tenant", id) ] ()

(* ---------- plumbing ---------- *)

let err ?query ?retry_after code message =
  Wire.Error { code; message; query; retry_after }

(* Deliberately unspecific: an attacker probing sessions learns nothing
   about which check failed (mirrors the Auth_failed doc in wire.mli). *)
let auth_failed () = err Wire.Auth_failed "authentication failed"

(* Resolve the header's session token to its tenant. Every tenant-scoped
   request goes through here: the token names the tenant, so a session can
   never reach another tenant's registry entry. *)
let with_tenant t (header : Wire.header) k =
  match Session.tenant_of t.sessions ~token:header.Wire.session with
  | None -> auth_failed ()
  | Some id ->
    (match Registry.find t.registry id with
    | None -> auth_failed ()
    | Some tenant -> k tenant)

(* In-flight budget, trace span and latency accounting around one
   tenant-scoped request. Shedding happens before the tenant lock is
   touched, so a storm queues on its own budget, not on the mutex. *)
let guarded t (tenant : Registry.tenant) f =
  let inflight = tenant.Registry.inflight in
  let prior = Atomic.fetch_and_add inflight 1 in
  if prior >= t.max_inflight then begin
    ignore (Atomic.fetch_and_add inflight (-1));
    Metrics.inc (m_shed tenant.Registry.id);
    err Wire.Overloaded ~retry_after:0.05 "tenant in-flight budget exhausted"
  end
  else
    Fun.protect
      ~finally:(fun () -> ignore (Atomic.fetch_and_add inflight (-1)))
      (fun () ->
        Trace.with_span ("tenant:" ^ tenant.Registry.id) f)

(* ---------- query path ---------- *)

(* Serving: straight through the current generation's dispatcher.
   Rotating: fetch and decrypt through BOTH generations, then evaluate the
   client statement once over the pooled rows. Each chunk of the move is
   atomic under the same lock, so old ∪ new holds every row exactly once
   and the pooled evaluation is byte-identical to a never-rotated tenant
   (for the order-insensitive statements the proxy contract covers). *)
let run_query (tenant : Registry.tenant) ~sql ~date_column ~date_lo ~date_hi =
  Registry.locked tenant (fun () ->
      match tenant.Registry.move with
      | None ->
        Mope_net.Service.query tenant.Registry.current.Registry.service ~sql
          ~date_column ~date_lo ~date_hi
      | Some (_, incoming) ->
        let fetch (gen : Registry.generation) k =
          Mope_net.Service.using gen.Registry.service ~date_column (fun proxy ->
              k proxy (Proxy.fetch_decrypted proxy ~sql ~date_column ~date_lo ~date_hi))
        in
        Mope_net.Service.answer ~sql ~date_column (fun () ->
            Option.join
              (fetch tenant.Registry.current (fun p_old (ast, rows_old) ->
                   fetch incoming (fun _ (_, rows_new) ->
                       Proxy.eval_over p_old ~ast (rows_old @ rows_new))))))

let query t tenant ~sql ~date_column ~date_lo ~date_hi =
  guarded t tenant (fun () ->
      Metrics.inc (m_queries tenant.Registry.id);
      Metrics.time (m_latency tenant.Registry.id) (fun () ->
          run_query tenant ~sql ~date_column ~date_lo ~date_hi))

(* ---------- rotation ---------- *)

let rotation_response (st : Rotation.status) =
  Wire.Rotation
    { state = st.Rotation.state;
      generation = st.Rotation.generation;
      rows_moved = st.Rotation.rows_moved;
      rows_total = st.Rotation.rows_total }

(* At most one background worker per tenant; a worker unregisters itself
   when its rotation cuts over (or was already over). *)
let spawn_worker t (tenant : Registry.tenant) =
  let id = tenant.Registry.id in
  Mutex.lock t.workers_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.workers_lock)
    (fun () ->
      if not (Hashtbl.mem t.workers id) then begin
        let thread =
          Thread.create
            (fun () ->
              Fun.protect
                ~finally:(fun () ->
                  Mutex.lock t.workers_lock;
                  Fun.protect
                    ~finally:(fun () -> Mutex.unlock t.workers_lock)
                    (fun () -> Hashtbl.remove t.workers id))
                (fun () ->
                  Rotation.drive t.registry tenant ~chunk_rows:t.chunk_rows
                    ~should_stop:(fun () -> false)))
            ()
        in
        Hashtbl.replace t.workers id thread
      end)

let join_workers t =
  let snapshot () =
    Mutex.lock t.workers_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.workers_lock)
      (fun () -> Hashtbl.fold (fun _ th acc -> th :: acc) t.workers [])
  in
  let rec drain () =
    match snapshot () with
    | [] -> ()
    | threads ->
      List.iter Thread.join threads;
      drain ()
  in
  drain ()

let rotate t (tenant : Registry.tenant) ~target ~status_only =
  guarded t tenant (fun () ->
      if tenant.Registry.id <> target then auth_failed ()
      else if status_only then rotation_response (Rotation.status tenant)
      else begin
        let st = Rotation.start t.registry tenant in
        spawn_worker t tenant;
        rotation_response st
      end)

(* ---------- dispatch ---------- *)

let handler t (header : Wire.header) = function
  | Wire.Ping -> Wire.Pong
  | Wire.Open_session { tenant } ->
    (match Registry.find t.registry tenant with
    | None -> err Wire.Unknown_tenant ("unknown tenant " ^ tenant)
    | Some _ ->
      Wire.Session_challenge { nonce = Session.challenge t.sessions ~tenant })
  | Wire.Authenticate { tenant; nonce; mac } ->
    (match Registry.find t.registry tenant with
    | None -> auth_failed ()
    | Some entry ->
      (match
         Session.authenticate t.sessions ~tenant ~nonce ~mac
           ~secret:entry.Registry.auth_secret
       with
      | Some token -> Wire.Session_ok { token }
      | None -> auth_failed ()))
  | Wire.Query { sql; date_column; date_lo; date_hi } ->
    with_tenant t header (fun tenant ->
        query t tenant ~sql ~date_column ~date_lo ~date_hi)
  | Wire.Rotate { tenant = target; status_only } ->
    with_tenant t header (fun tenant ->
        rotate t tenant ~target ~status_only)
  | (Wire.Get_stats | Wire.Fetch _ | Wire.Apply _ | Wire.Wal_since _
    | Wire.Fence _) as request ->
    (* Authenticated, the rest is the tenant's own dispatcher's business:
       Stats, or Unsupported for store and cluster ops. *)
    with_tenant t header (fun tenant ->
        guarded t tenant (fun () ->
            Mope_net.Service.handler tenant.Registry.current.Registry.service
              header request))
