(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
    in every {!Codec} record and in {!Storage} snapshots, guarding them
    against torn writes and bit rot. Matches zlib's [crc32], so files can
    be cross-checked with standard tools. *)

val digest : string -> int32
(** CRC of a whole string. *)

val sub : string -> pos:int -> len:int -> int32
(** CRC of [len] bytes starting at [pos]. Raises [Invalid_argument] on an
    out-of-bounds range. *)
