(** Process-wide metrics registry: counters, gauges, and log-bucketed latency
    histograms, exposed as Prometheus text and JSON.

    Instrumentation is meant to stay compiled into hot paths permanently:
    while the registry is disabled (the default) every mutation —
    {!inc}, {!gauge_set}, {!observe}, {!time} — costs a single atomic load
    plus a branch and performs no allocation. When enabled, counters and
    gauges are lock-free atomics and histograms are lock-striped by thread
    id so concurrent observers rarely contend.

    Secret hygiene: label keys are validated at registration against a
    denylist of secret-ish names (key/offset/plaintext/...); the static
    mope-lint secret-flow rule additionally treats this module as a sink, so
    secret-named values cannot reach a metric either statically or at
    runtime.

    Cardinality hygiene: labels whose values come from the outside world
    (tenant ids above all) could mint unbounded metric instances. The
    registry caps the distinct label-value sets per family
    ({!set_max_label_sets}); registering beyond the cap evicts the family's
    oldest labeled instance — its handle keeps working but no longer
    renders — and bumps [mope_metrics_labels_dropped_total]. *)

type counter
type gauge
type histogram

val set_enabled : bool -> unit
(** Turn the registry on or off globally. Off (the default) makes every
    mutation a no-op; reads and rendering still work. *)

val enabled : unit -> bool

val default_buckets : float array
(** Latency bucket upper bounds in seconds: [1e-6 · 2^i] for [i = 0..21]
    (1µs up to ~4.2s). *)

(** {1 Registration}

    Registration is idempotent: the same (name, labels) pair returns the
    existing instance. Names must match [[a-z_][a-z0-9_]*]. Raises
    [Invalid_argument] on a malformed name, a secret-named label key, or a
    kind clash with an already-registered metric. *)

val counter : ?help:string -> string -> ?labels:(string * string) list -> unit -> counter
val gauge : ?help:string -> string -> ?labels:(string * string) list -> unit -> gauge

val histogram :
  ?help:string ->
  ?buckets:float array ->
  string ->
  ?labels:(string * string) list ->
  unit ->
  histogram
(** [buckets] are ascending finite upper bounds (default
    {!default_buckets}); an implicit overflow bucket is appended. *)

(** {1 Label-cardinality guard} *)

val set_max_label_sets : int -> unit
(** Cap (≥ 1) on distinct label-value sets per metric family; default 64.
    Lowering the cap affects future registrations only. *)

val max_label_sets : unit -> int

val labels_dropped : unit -> int
(** Evictions so far, also exported as
    [mope_metrics_labels_dropped_total]. *)

(** {1 Hot-path mutation} *)

val inc : ?by:int -> counter -> unit
val gauge_set : gauge -> int -> unit
val gauge_add : gauge -> int -> unit

val observe : histogram -> float -> unit
(** Record one sample (seconds, for latency histograms). *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and observe its wall-clock duration; when the registry is
    disabled the thunk runs with no clock reads at all. *)

(** {1 Reads} *)

val counter_value : counter -> int
val gauge_value : gauge -> int
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_quantile : histogram -> float -> float
(** Estimated quantile ([q ∈ [0,1]]) via
    [Mope_stats.Summary.quantile_of_buckets]. *)

val reset_all : unit -> unit
(** Zero every registered metric (registrations survive). Test helper. *)

(** {1 Exposition} *)

val render_prometheus : unit -> string
(** Prometheus text exposition format: [# HELP]/[# TYPE] per family,
    [_bucket{le=...}]/[_sum]/[_count] for histograms. *)

val render_json : unit -> string
(** Compact JSON: counters/gauges with values, histograms with count, sum
    and p50/p95/p99 estimates. *)

val json_counter : string -> string -> int option
(** [json_counter doc name] reads the unlabeled counter (or gauge) [name]
    back out of a {!render_json} document — e.g. the [metrics_json] of a
    remote [Stats] scrape. [None] when [doc] has no such metric. *)
