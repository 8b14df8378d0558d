(** On-disk persistence for a {!Database.t}.

    A versioned, self-describing binary format (no [Marshal], so files are
    stable across compiler versions): header magic, a body length and a
    CRC-32 of the body (format v2), then each table's name, schema, live
    rows and indexed columns. v1 files (no checksum) are still readable;
    re-saving upgrades them. Indexes are rebuilt on load; tombstoned rows
    are compacted away, so row ids are not stable across a save/load cycle
    (documented — nothing in the engine exposes ids).

    Crash safety: {!save} is atomic (temp file, fsync, rename, directory
    fsync), so a crash at any instant leaves either the old snapshot or
    the new one — never a torn file at the final path. Mutations between
    snapshots go to a {!Wal}; {!recover} folds the longest valid log
    prefix over the snapshot. *)

exception Corrupt of string
(** Raised by {!load} on malformed input — truncation, bit rot (checksum
    mismatch), wrong magic, or an inconsistent body — always with a
    human-readable reason and never a raw [End_of_file] or
    [Invalid_argument]. *)

val save : Database.t -> path:string -> unit
(** Write the whole database atomically and durably: the temp file is
    fsynced before the rename and the directory after it, so a crash
    cannot leave a truncated snapshot at [path]. Raises [Unix.Unix_error]
    or [Sys_error] when the file cannot be written. *)

val load : path:string -> Database.t
(** Read a database written by {!save} (v2, checksummed) or by the v1
    format; rebuilds all indexes. Raises {!Corrupt} on malformed content
    and [Sys_error] when [path] cannot be opened. *)

val save_string : Database.t -> string
(** The serialized bytes (used by {!save} and the tests). *)

val load_string : string -> Database.t

(** What {!recover} rebuilt. *)
type recovery = {
  db : Database.t;
  snapshot_loaded : bool;  (** [false]: no snapshot file, started empty *)
  wal_applied : int;       (** WAL statements replayed over the snapshot *)
  wal_torn : bool;         (** a torn trailing WAL record was discarded *)
}

val recover : ?snapshot:string -> ?wal:string -> unit -> recovery
(** Rebuild the database a crashed process would have had: load the
    [snapshot] if given and present (a crash mid-{!save} leaves the
    previous one, which is the correct base; a missing file starts empty),
    then replay the longest valid prefix of the [wal] — a torn final
    record, the signature of dying mid-append, is discarded, not fatal.
    Raises {!Corrupt} if the snapshot is corrupt, if the WAL header is not
    a WAL, or if a CRC-valid WAL record fails to execute (snapshot/log
    mismatch — recovery must not silently diverge). *)

val checkpoint : Database.t -> path:string -> wal:string -> unit
(** Durably {!save} the snapshot, then {!Wal.reset} the log whose records
    it now subsumes. *)
