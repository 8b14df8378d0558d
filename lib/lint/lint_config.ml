let normalize path =
  let path = String.map (function '\\' -> '/' | c -> c) path in
  let rec strip p =
    if String.length p >= 2 && String.sub p 0 2 = "./" then
      strip (String.sub p 2 (String.length p - 2))
    else p
  in
  strip path

let has_prefix ~prefix path =
  let path = normalize path in
  let lp = String.length prefix in
  String.length path >= lp && String.sub path 0 lp = prefix

let in_lib path = has_prefix ~prefix:"lib/" path

let in_serving path =
  has_prefix ~prefix:"lib/net/" path || has_prefix ~prefix:"lib/db/" path

(* Shard routing and WAL cursors compare ciphertexts and offsets, so
   the poly-compare rule covers the cluster and storage layers too. *)
let in_poly_compare path =
  has_prefix ~prefix:"lib/ope/" path
  || has_prefix ~prefix:"lib/crypto/" path
  || has_prefix ~prefix:"lib/cluster/" path
  || has_prefix ~prefix:"lib/db/" path

(* Lock-discipline rules (lock-unprotected, lock-order, lock-blocking)
   cover every layer that takes mutexes on the serving path. *)
let in_lock_scope path =
  has_prefix ~prefix:"lib/net/" path
  || has_prefix ~prefix:"lib/cluster/" path
  || has_prefix ~prefix:"lib/tenant/" path

(* Files holding a versioned wire codec; every op tag defined there must
   have matching encode and decode arms (wire-symmetry). *)
let wire_files = [ "lib/net/wire.ml" ]

(* Names carrying OPE/MOPE key material or the secret modular offset.
   Deliberately over-approximate: a byte offset named [offset] flowing into a
   log line is worth a look even when it is not the MOPE displacement. *)
let secret_names =
  [ "key"; "keys"; "secret"; "secret_key"; "master_key"; "old_key"; "new_key";
    "mope_key"; "ope_key"; "offset"; "secret_offset"; "old_offset";
    "new_offset"; "plaintext"; "plaintexts";
    (* tenant-layer secrets: the per-tenant session-handshake secret and
       derived generation keys must never reach a log, metric or frame *)
    "auth_secret"; "tenant_secret"; "cfg_secret"; "generation_key" ]

(* Functions whose return value is key material no matter what it is
   named: calling one of these seeds the interprocedural taint walk. *)
let secret_constructors = [ [ "Drbg"; "create" ]; [ "Drbg"; "derive" ] ]

(* Calls that erase taint: structural measurements of a secret are not the
   secret, and neither is an HMAC computed under it (the MAC is exactly
   what the session handshake sends over the wire — one-way by
   construction). Anything else unresolved conservatively keeps the
   taint. *)
let taint_sanitizers =
  [ [ "String"; "length" ]; [ "Bytes"; "length" ]; [ "List"; "length" ];
    [ "Array"; "length" ]; [ "Hashtbl"; "length" ];
    [ "Hmac"; "mac" ]; [ "Hmac"; "mac_hex" ] ]

(* Mope_obs and its aliases are sinks: a metric label, counter name, or
   trace annotation is an exfiltration channel exactly like a log line, so
   no secret-named value may reach Metrics.* / Trace.* either. Plan_cache
   holds statement text destined for the untrusted server, so cache keys
   must never be built from secret-named values. Codec is the byte encoder
   under Wire, Storage, Wal and the shard map: whatever reaches it lands
   in a frame or a file. *)
let sink_modules =
  [ "Printf"; "Format"; "Fmt"; "Logs"; "Wire"; "Storage"; "Wal"; "Codec";
    "Obs"; "Mope_obs"; "Metrics"; "Trace"; "Plan_cache" ]

let sink_values =
  [ "print_string"; "print_endline"; "print_int"; "print_float";
    "print_newline"; "prerr_string"; "prerr_endline"; "prerr_newline";
    "output_string"; "output_bytes" ]

(* Calls that park the calling thread: sleeps, socket dials and framed
   socket I/O, and client RPC entry points (each a network round trip with
   retries and backoff). Matched as path prefixes after stripping library
   wrappers, so [Client.fetch] and [Mope_net.Client.fetch] both hit.
   Cheap [Client] accessors (is_closed, breaker_state, ...) are
   deliberately absent. *)
let blocking_paths =
  [ ([ "Unix"; "sleep" ], "sleep");
    ([ "Unix"; "sleepf" ], "sleep");
    ([ "Thread"; "delay" ], "sleep");
    ([ "Unix"; "connect" ], "socket I/O");
    ([ "Unix"; "accept" ], "socket I/O");
    ([ "Unix"; "select" ], "socket I/O");
    ([ "Wire"; "read_frame" ], "framed socket I/O");
    ([ "Wire"; "read_frame_t" ], "framed socket I/O");
    ([ "Wire"; "write_frame" ], "framed socket I/O");
    ([ "Wire"; "write_frame_t" ], "framed socket I/O");
    ([ "Client"; "connect" ], "client RPC");
    ([ "Client"; "with_client" ], "client RPC");
    ([ "Client"; "close" ], "client RPC");
    ([ "Client"; "ping" ], "client RPC");
    ([ "Client"; "query" ], "client RPC");
    ([ "Client"; "fetch" ], "client RPC");
    ([ "Client"; "apply" ], "client RPC");
    ([ "Client"; "fence" ], "client RPC");
    ([ "Client"; "wal_since" ], "client RPC");
    ([ "Client"; "stats" ], "client RPC");
    ([ "Client"; "open_session" ], "client RPC");
    ([ "Client"; "rotate" ], "client RPC") ]

(* A lambda handed to one of these runs on another thread: lock contexts
   from the spawning side do not apply inside it. *)
let thread_escape_paths = [ [ "Thread"; "create" ]; [ "Domain"; "spawn" ] ]

let generic_exceptions =
  [ "Failure"; "Not_found"; "Exit"; "End_of_file"; "Match_failure";
    "Assert_failure"; "Division_by_zero" ]

(* Bound on every cross-module walk (taint chains, lock acquisition
   closures): deep enough for any real call path in this tree, small
   enough that a pathological cycle terminates instantly. *)
let max_call_depth = 8

let rules =
  [ ("secret-flow",
     "secret-named value (key / offset / plaintext) reaches a print, log, \
      wire-encode, or persistence sink in the same expression");
    ("secret-flow-interproc",
     "secret value reaches a sink through let-bindings, function arguments \
      or returns, across module boundaries; the diagnostic carries the \
      witness call chain");
    ("banned-random",
     "Stdlib.Random in lib/ — use Mope_stats.Rng (Splitmix64) or \
      Mope_crypto.Drbg so every sample is seeded and replayable");
    ("nondet-hash",
     "Hashtbl.hash / seeded_hash in lib/ — not stable across OCaml \
      versions or architectures");
    ("nondet-time",
     "Unix.time in lib/ — wall-clock values must not seed or key anything; \
      use gettimeofday only for latency metrics");
    ("error-failwith",
     "failwith in serving code (lib/net, lib/db) — raise Mope_error instead");
    ("error-exit", "exit in serving code — the server decides process \
                    lifetime, library code must not");
    ("error-assert-false",
     "assert false in serving code — raise Mope_error so the failure \
      carries context and survives -noassert");
    ("error-raise-generic",
     "raising a built-in generic exception (Failure, Not_found, ...) in \
      serving code — use Mope_error or a declared domain exception");
    ("error-printexc",
     "Printexc in serving code — route through Mope_error.describe_exn so \
      rendering stays in one audited place");
    ("poly-compare",
     "polymorphic = / <> / compare in lib/ope, lib/crypto, lib/cluster or \
      lib/db — monomorphic compares only on ciphertext, key and cursor \
      material (includes bare `compare` passed to sort/sort_uniq)");
    ("obj-magic", "Obj.* anywhere — defeats the type system");
    ("lock-unprotected",
     "Mutex.lock in lib/net or lib/cluster not immediately followed by \
      Fun.protect ~finally unlock — an exception would leak the lock");
    ("lock-order",
     "two mutexes are acquired in opposite orders on different call paths \
      (potential deadlock); the diagnostic names the cycle and a witness \
      site per edge");
    ("lock-blocking",
     "a blocking call (sleep, socket I/O, Client.* RPC) is reachable while \
      a mutex is held — every other thread needing that lock stalls behind \
      the network");
    ("wire-symmetry",
     "an op tag in the wire codec lacks a matching encode or decode arm, \
      or the codec's decode path never checks the protocol version");
    ("parse-error", "file does not parse (meta)");
    ("bad-suppression", "malformed suppression entry (meta)");
    ("missing-justification",
     "suppression entry without a written justification (meta)");
    ("unused-suppression",
     "suppression entry that matched no finding — stale, delete it (meta)") ]

let is_rule id = List.mem_assoc id rules
