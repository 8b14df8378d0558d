(** Append-only write-ahead log of SQL mutations between {!Storage}
    snapshots.

    The file is a magic header followed by self-delimiting records
    ({!Codec.record}), each a big-endian [u32] payload length, a [u32]
    CRC-32 of the payload, then the payload (the SQL statement text). A crash mid-append leaves a
    {e torn} final record — a partial header, a short payload, or a CRC
    mismatch — which {!replay} detects and discards: recovery applies the
    longest valid prefix and never fails on a torn tail. Only a damaged
    header (wrong magic on a non-empty file) is fatal, because then the
    file is not a WAL at all.

    Durability: records are written with a single [write(2)] per record
    (so they survive a killed process as soon as [append] returns) and
    [fsync]ed by default (so they also survive power loss). *)

exception Corrupt of string
(** Raised when the file exists but its header is not a WAL header; torn
    tails never raise. *)

type t
(** An open log, positioned for appending. *)

val open_log : path:string -> t
(** Open (creating if absent) and make the log appendable: the header is
    written if the file is empty, and a torn tail left by a previous crash
    is truncated away so new records land after the valid prefix. Raises
    {!Corrupt} if the file exists but is not a WAL. *)

val append : ?sync:bool -> t -> string -> unit
(** Append one statement. [sync] (default [true]) fsyncs the fd before
    returning. *)

val close : t -> unit
(** Idempotent. *)

val path : t -> string

(** The result of scanning a log: the longest valid record prefix. *)
type replay = {
  statements : string list;  (** valid records, oldest first *)
  torn : bool;  (** a trailing invalid/partial record was discarded *)
  valid_bytes : int;  (** file offset where the valid prefix ends *)
}

val replay : path:string -> replay
(** Scan the log. A missing file replays as empty (no statements, not
    torn). Raises {!Corrupt} only on a bad header. *)

val reset : path:string -> unit
(** Truncate the log back to just its header (after a checkpoint has made
    the records redundant), fsyncing the result — including the parent
    directory, so the truncation survives power loss. Creates the file if
    missing. *)

val append_pos : t -> int
(** The file offset where the next record will be appended — i.e. the
    current end of the log. Usable as a {!since} cursor. *)

val head_pos : int
(** The offset of the first record boundary (just past the header): the
    initial cursor for a follower that has consumed nothing. *)

(** One batch of records shipped to a replication follower. *)
type chunk = {
  records : string list;  (** statements from the cursor on, oldest first *)
  next_pos : int;  (** cursor for the next {!since} call *)
  end_pos : int;  (** end of the log's valid prefix at scan time; the
                      follower's lag is [end_pos - next_pos] bytes *)
  resync : bool;
      (** the cursor no longer names a record boundary (the log was reset
          by a checkpoint, or a torn tail was truncated under it): the
          follower's history has diverged and it must rebuild from a fresh
          snapshot, then resume from {!head_pos}. When set, [records] is
          empty and [next_pos] is {!head_pos}. *)
}

val since : ?max_bytes:int -> path:string -> from_pos:int -> unit -> chunk
(** Read the records that begin at or after offset [from_pos] (clamped to
    {!head_pos}). The chunk carries at most [max_bytes] (default 1 MiB) of
    payload — always at least one record when any are pending, so progress
    is guaranteed — and [next_pos] resumes exactly where it stopped. The
    caller loops until [next_pos = end_pos]. Stateless: each call rescans
    the file, so it needs no handle and tolerates the log being appended,
    truncated or reset between calls. *)
