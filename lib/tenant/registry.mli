(** Tenant registry: one encrypted universe per paying customer.

    Multi-tenancy in MOPE is key separation: each tenant's data is
    encrypted under its own master key (and therefore its own secret
    modular offset j — paper §3), derived from the operator's root key and
    the tenant id through HMAC-DRBG, so no tenant's ciphertexts reveal
    anything about another's ordering. A tenant owns a full
    {!Mope_system.Encrypted_db.t}/{!Mope_system.Proxy.t} pipeline plus a
    shared authentication secret (from the tenants file) used by the wire
    session handshake.

    The registry also carries each tenant's rotation state: the {e key
    generation} counter and, while an online rotation is in flight, the
    incoming generation being filled by {!Rotation}. All per-tenant state
    is guarded by the tenant's own lock ({!locked}), so tenants never
    contend with each other. *)

open Mope_system

type config = {
  cfg_id : string;
  cfg_secret : string;  (** shared session-handshake secret, never sent on the wire *)
}

val valid_id : string -> bool
(** Tenant ids are [[a-z0-9_-]+], at most {!Mope_net.Wire.max_tenant_id}
    bytes — safe as a metric label value and a trace span name. *)

val parse_tenants : string -> config list
(** Parse tenants-file content: one [id:secret] per line, [#] comments and
    blank lines ignored. Raises [Invalid_argument] on a malformed line, a
    bad id, an empty secret, or a duplicate id. *)

val load_tenants_file : string -> config list
(** {!parse_tenants} over a file's contents. *)

(** One tenant's serving state for a single key generation. *)
type generation = {
  enc : Encrypted_db.t;
  proxies : (string * Proxy.t) list;  (** date column → proxy over [enc] *)
  service : Mope_net.Service.t;  (** the query dispatcher over [proxies] *)
}

type tenant = {
  id : string;
  auth_secret : string;
  lock : Mutex.t;
      (** guards [generation]/[current]/[move] and serializes every query
          and rotation chunk of this tenant *)
  inflight : int Atomic.t;  (** concurrent requests now inside the handler *)
  mutable generation : int;       (** current key generation, starts at 0 *)
  mutable current : generation;
  mutable move : (Mope_system.Key_rotation.move * generation) option;
      (** [Some (move, incoming)] while an online rotation is filling the
          incoming generation; queries must read both. *)
}

type t

val create :
  master_key:string ->
  make_enc:(key:string -> Encrypted_db.t) ->
  make_proxies:(Encrypted_db.t -> (string * Proxy.t) list) ->
  configs:config list ->
  unit ->
  t
(** Build every tenant's generation-0 pipeline. [make_enc] receives the
    tenant's derived key; [make_proxies] builds the per-date-column proxies
    over any generation's encrypted handle (it is re-invoked by rotation
    for each incoming generation). Raises [Invalid_argument] on an empty
    or duplicate config list or a bad id. *)

val find : t -> string -> tenant option
val ids : t -> string list

val generation_key : t -> id:string -> generation:int -> string
(** The tenant's data key for one generation:
    [Drbg.derive root ["tenant-key"; id; gen]]. Fresh generation → fresh
    MOPE key → fresh secret offset, which is exactly what rotation
    refreshes. *)

val build_generation : t -> Encrypted_db.t -> generation
(** Wrap an encrypted handle (e.g. a rotation's move target) with freshly
    built proxies and their dispatcher. *)

val locked : tenant -> (unit -> 'a) -> 'a
(** Run [f] holding the tenant's lock. *)
