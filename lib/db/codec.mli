(** The one binary codec under every byte this system writes: {!Storage}
    snapshots, {!Wal} records, the wire protocol and the cluster shard map.

    Integers are big-endian; an [int] travels as 8 bytes, a string as an
    [int] length then its bytes, a {!Value.t} as a tag byte then its body.
    Each format keeps its own layout decisions (magics, field order,
    version gates, size caps); this module only owns the conventions they
    share, so a byte means the same thing in every file and frame. *)

(** {1 Encoders} *)

val put_int64 : Buffer.t -> int64 -> unit

val put_int : Buffer.t -> int -> unit
(** 8 bytes, two's complement. *)

val put_string : Buffer.t -> string -> unit
(** [int] length, then the bytes. *)

val put_value : Buffer.t -> Value.t -> unit
(** Tag byte ([Null] 0, [Bool] 1, [Int] 2, [Float] 3, [Str] 4, [Date] 5),
    then the body: one byte, an [int], IEEE-754 bits as [int64], a string,
    or days as an [int]. *)

(** {1 Decoding} *)

type cursor
(** A read position in a string. Every decoder checks bounds before it
    reads (overflow-safe against hostile 62-bit lengths) and signals
    malformed input by raising the exception the cursor was made with. *)

val cursor : (string -> exn) -> ?pos:int -> string -> cursor
(** [cursor fail ~pos data] reads [data] from [pos] (default 0); a
    malformed read raises [fail reason]. *)

val pos : cursor -> int
(** The offset of the next read in the data. *)

val remaining : cursor -> int
(** Bytes left after the position. *)

val get_byte : cursor -> int

val get_int64 : cursor -> int64

val get_int : cursor -> int
(** Fails on an [int64] that does not fit a native [int]. *)

val get_nat : cursor -> int
(** A {!get_int} that fails when negative: sizes, counts, offsets. *)

val get_u32 : cursor -> int

val get_string : cursor -> string

val get_value : cursor -> Value.t

(** {1 Checksummed records} *)

val record : string -> string
(** [u32 length ^ u32 CRC-32(payload) ^ payload]: a WAL record, a wire
    frame, a shard-map body. *)

val read_record : string -> pos:int -> max_len:int -> string option
(** The payload of the record at [pos], or [None] when it is empty, runs
    past the end of the data, is longer than [max_len], or fails its
    checksum. *)

(** {1 Files} *)

val write_all : (bytes -> int -> int -> int) -> string -> unit
(** Push the whole string through a [Unix.write]-shaped function, looping
    over short writes and retrying [EINTR]. *)

val read_file : string -> string
(** The whole file. Raises [Sys_error] when it cannot be opened. *)

val fsync_dir : string -> unit
(** Make the directory entry for a path durable: an atomic rename or a
    file creation is only crash-safe once its parent directory is.
    Best-effort: some filesystems refuse [O_RDONLY] fsync on directories. *)

val replace_file : path:string -> string -> unit
(** Atomically and durably replace [path]: write [path ^ ".tmp"], fsync
    it, rename it over [path], then {!fsync_dir}. A crash at any instant
    leaves the old file or the new one, never a torn one. *)
