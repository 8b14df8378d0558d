(** End-to-end TPC-H testbed: plaintext database, encrypted twin, proxy.

    Assembles the full Fig.-4 pipeline for the §6.3–6.4 experiments. The
    MOPE date domain is padded to a multiple of ρ when the periodic
    algorithm is used (the extra "phantom days" past 1998-12-31 hold no
    records; fake queries may land there and simply return nothing). *)

open Mope_workload

type t

val load : ?sf:float -> ?seed:int64 -> unit -> t
(** Generate the plaintext TPC-H database (default SF 0.01, seed 7). *)

val of_plain : ?key:string -> Mope_db.Database.t -> t
(** Wrap an existing plaintext TPC-H database (e.g. one reloaded through
    {!Mope_db.Storage}) as a testbed, so a served database can persist
    across restarts. Raises [Invalid_argument] if the [lineitem], [orders]
    or [part] table is missing. [key] is the MOPE/DET master key the
    encrypted twin will be built under. *)

val plain : t -> Mope_db.Database.t

val sizes : t -> Tpch.sizes

val run_plain : t -> Tpch_queries.instance -> Mope_db.Exec.result
(** The unencrypted baseline: execute the instance directly. *)

val fingerprint : Mope_db.Exec.result -> string list list
(** The rows rendered cell by cell: the byte-identity gate compares a
    served answer's fingerprint with {!run_plain}'s. *)

val encrypted_for : ?ope_cache:bool -> t -> rho:int option -> Encrypted_db.t
(** Build (and cache) the encrypted twin whose date domain is padded for
    [rho] ([None] = no padding, QueryU). Encrypts [l_shipdate] and
    [o_orderdate] with MOPE, the order/part keys with DET, and indexes the
    encrypted date and key columns. Twins are cached by
    [(rho, ope_cache)]; [ope_cache] (default true) is forwarded to
    {!Encrypted_db.create} — benchmarks pass [false] to price the fully
    uncached OPE walks. *)

val specs : Encrypted_db.spec list
(** The TPC-H column specs the encrypted twins are built with — exposed so
    multi-tenant frontends can build per-tenant twins of the same shape
    under their own keys. *)

val proxy_over :
  Encrypted_db.t ->
  template:Tpch_queries.template ->
  rho:int option ->
  ?batch_size:int ->
  ?caching:bool ->
  ?fetch_many:Proxy.fetch_many ->
  ?seed:int64 ->
  unit ->
  Proxy.t
(** Like {!proxy}, but over a caller-supplied encrypted handle (e.g. a
    tenant's own generation, or a rotation's incoming one) instead of the
    testbed's cached twin. *)

val proxy :
  t ->
  template:Tpch_queries.template ->
  rho:int option ->
  ?batch_size:int ->
  ?caching:bool ->
  ?ope_cache:bool ->
  ?fetch_many:Proxy.fetch_many ->
  ?seed:int64 ->
  unit ->
  Proxy.t
(** A proxy configured for one query template: k = the template's fixed
    length, Q = the template's (known) start distribution, QueryU when
    [rho = None] and QueryP\[ρ\] otherwise. [caching] and [fetch_many] (e.g.
    a cluster coordinator's scatter-gather) are forwarded to {!Proxy.create},
    [ope_cache] to {!encrypted_for}. *)

val run_encrypted : Proxy.t -> Tpch_queries.instance -> Mope_db.Exec.result
(** Execute one instance through the proxy. *)

val padded_domain : rho:int option -> int
(** The MOPE plaintext-space size used for a given period. *)
