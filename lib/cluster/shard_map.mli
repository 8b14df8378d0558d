(** Range partitioning of the MOPE ciphertext space across shards.

    The proxy computes the exact ciphertext intervals every query touches
    ([plain_segments]); a shard map splits the ciphertext space [\[0,
    range)] into contiguous slices, one per shard, so routing a query is a
    binary search of its coalesced segments over the slice boundaries.
    MOPE ciphertexts are uniformly spread over the space by construction
    (the secret offset is uniform), so equal-width slices balance rows in
    expectation without any data-dependent tuning. *)

type t

val create : shards:int -> range:int -> t
(** Equal-width partition of [\[0, range)] into [shards] slices (the first
    [range mod shards] slices are one wider). Raises [Invalid_argument]
    unless [1 <= shards <= range]. *)

val of_bounds : bounds:int array -> range:int -> t
(** Explicit slice starts: [bounds.(i)] is the first ciphertext owned by
    shard [i]; [bounds.(0)] must be [0] and the array strictly increasing
    below [range]. Every fencing epoch starts at 1. *)

val epoch : t -> int -> int
(** [epoch t i] is shard [i]'s current fencing epoch — 1 at creation,
    bumped by every promotion ({!set_epoch}). *)

val set_epoch : t -> int -> int -> unit
(** [set_epoch t i e] records shard [i]'s fencing epoch. Epochs are
    monotonic: [e] below the current value raises [Invalid_argument]. The
    supervisor persists the map ({!save}) {e before} activating the new
    primary, so an epoch never repeats across a restart — the write-ahead
    rule that keeps fencing sound. *)

val epochs : t -> int array
(** All per-shard fencing epochs, index = shard. A fresh copy. *)

val shards : t -> int

val range : t -> int
(** Size of the ciphertext space this map partitions. *)

val bounds : t -> int array
(** The slice starts, ascending; [bounds t].(0) = 0. A fresh copy. *)

val shard_of : t -> int -> int
(** The shard owning ciphertext [c] — a binary search over the bounds.
    Raises [Invalid_argument] when [c] is outside [\[0, range)]. *)

val slice : t -> int -> int * int
(** [slice t i] is shard [i]'s inclusive ciphertext interval
    [(lo, hi)]. *)

val route : t -> (int * int) list -> (int * int) list array
(** Split normalized ciphertext segments over the shard boundaries: entry
    [i] holds, in order, the sub-segments of the input that shard [i] must
    scan (empty for shards the query does not touch). Segments must lie
    inside [\[0, range)]. *)

(** {1 Persistence}

    The map is part of cluster topology state: it must survive restarts
    byte-exactly, or routing would silently change under the data. It is
    written with {!Mope_db.Codec}, the codec under snapshots, WAL records
    and wire frames: a magic header, then the body of big-endian integers
    as one u32-length + CRC-32 record. Format v2 appends the per-shard
    fencing epochs to the body; v1 files still load with every epoch
    defaulting to 1. *)

exception Corrupt of string

val save : t -> path:string -> unit
(** Atomic write-then-rename, fsynced (file and directory). *)

val load : path:string -> t
(** Raises {!Corrupt} on a damaged or foreign file. *)
