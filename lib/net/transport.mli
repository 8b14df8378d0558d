(** Byte-stream abstraction between the framing layer and the socket.

    {!Wire}'s framed I/O reads and writes through this record instead of a
    raw [Unix.file_descr], so a test (or an operator reproducing an
    incident) can interpose {!Chaos} — deterministic partial I/O, latency,
    disconnects and corruption — without touching the server or client.
    The operations follow the [Unix.read]/[Unix.write] contract: they may
    transfer fewer bytes than asked, return [0] on end-of-stream (reads),
    and raise [Unix.Unix_error] on failure. *)

type t = {
  read : bytes -> int -> int -> int;
      (** [read buf pos len] fills at most [len] bytes at [pos]; returns the
          count transferred, [0] at end-of-stream. *)
  write : bytes -> int -> int -> int;
      (** [write buf pos len] sends at most [len] bytes from [pos]; returns
          the count accepted (possibly short). *)
  shutdown : unit -> unit;
      (** Stop both directions without releasing the resource, so a thread
          blocked in [read] wakes up. A no-op once closed. *)
  close : unit -> unit;  (** Release the underlying resource. Idempotent. *)
}

val of_fd : Unix.file_descr -> t
(** The identity transport over a connected socket (or any fd). [close]
    closes the descriptor at most once, and [shutdown] does nothing after
    it: a newer connection may have reused the number. Both swallow
    [Unix.Unix_error]. *)

val of_strings : string list -> t
(** An in-memory read-only transport that replays the given chunks one
    [read] call at a time (then end-of-stream) and discards writes — a
    deterministic stand-in for a peer in codec tests. *)
