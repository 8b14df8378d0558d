open Mope_crypto

(* Both tables are bounded FIFO: a hashtable for lookup plus a queue of
   keys in insertion order for eviction. Entries consumed or revoked stay
   in the queue as dead keys, skipped when popped, until the queue holds
   twice its cap; then the dead keys are dropped in one pass. *)
type t = {
  lock : Mutex.t;
  rng : Mope_stats.Rng.t;
  max_pending : int;
  max_sessions : int;
  nonces : (string, string) Hashtbl.t;      (* nonce -> tenant *)
  nonce_order : string Queue.t;
  tokens : (string, string) Hashtbl.t;      (* token -> tenant *)
  token_order : string Queue.t;
}

let create ?(max_pending = 256) ?(max_sessions = 1024) ~seed () =
  if max_pending < 1 then invalid_arg "Session.create: max_pending";
  if max_sessions < 1 then invalid_arg "Session.create: max_sessions";
  { lock = Mutex.create ();
    rng = Mope_stats.Rng.create seed;
    max_pending;
    max_sessions;
    nonces = Hashtbl.create 64;
    nonce_order = Queue.create ();
    tokens = Hashtbl.create 64;
    token_order = Queue.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let hex = "0123456789abcdef"

let mint t n =
  String.init n (fun _ -> hex.[Mope_stats.Rng.int t.rng 16])

(* Evict until the live population is under [cap]; dead queue entries
   (already consumed) just drain. *)
let rec make_room table order cap =
  if Hashtbl.length table >= cap then
    match Queue.take_opt order with
    | None -> ()
    | Some k ->
      Hashtbl.remove table k;
      make_room table order cap

(* Add a key, evicting the oldest live one when the table is full. A
   client that opens, authenticates and revokes in a loop never fills the
   table, so dead keys are also compacted away here; compaction leaves at
   most [cap] keys behind and runs at most once per [cap] additions. *)
let remember table order cap key tenant =
  make_room table order cap;
  Hashtbl.replace table key tenant;
  Queue.push key order;
  if Queue.length order > 2 * cap then begin
    let live = Queue.create () in
    Queue.iter (fun k -> if Hashtbl.mem table k then Queue.push k live) order;
    Queue.clear order;
    Queue.transfer live order
  end

let challenge t ~tenant =
  locked t (fun () ->
      let nonce = mint t 32 in
      remember t.nonces t.nonce_order t.max_pending nonce tenant;
      nonce)

(* Timing-independent equality: always walks both strings fully. *)
let mac_equal a b =
  String.length a = String.length b
  && (let diff = ref 0 in
      String.iteri
        (fun i c -> diff := !diff lor (Char.code c lxor Char.code b.[i]))
        a;
      !diff = 0)

let authenticate t ~tenant ~nonce ~mac ~secret =
  locked t (fun () ->
      match Hashtbl.find_opt t.nonces nonce with
      | None -> None
      | Some owner ->
        (* One attempt per challenge, pass or fail. *)
        Hashtbl.remove t.nonces nonce;
        if owner <> tenant then None
        else if not (mac_equal mac (Hmac.mac_hex ~key:secret nonce)) then None
        else begin
          let token = mint t 32 in
          remember t.tokens t.token_order t.max_sessions token tenant;
          Some token
        end)

let tenant_of t ~token =
  if token = "" then None
  else locked t (fun () -> Hashtbl.find_opt t.tokens token)

let revoke t ~token = locked t (fun () -> Hashtbl.remove t.tokens token)

let pending t = locked t (fun () -> Hashtbl.length t.nonces)

let live t = locked t (fun () -> Hashtbl.length t.tokens)
