(* Tests for lib/tenant: the registry, the session handshake, the
   multi-tenant dispatcher's isolation properties, and online key
   rotation — including the chaos case: a rotation worker killed
   mid-move, resumed, and checked byte for byte against a never-rotated
   baseline. *)

open Mope_crypto
open Mope_db
open Mope_workload
open Mope_system
open Mope_net
open Mope_tenant

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Registry: tenants-file parsing and id hygiene *)

let test_valid_id () =
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " valid") true (Registry.valid_id id))
    [ "acme"; "a"; "tenant-7"; "a_b-c9" ];
  List.iter
    (fun id ->
      Alcotest.(check bool) ("<" ^ id ^ "> invalid") false (Registry.valid_id id))
    [ ""; "Acme"; "a b"; "a:b"; "a\nb"; String.make (Wire.max_tenant_id + 1) 'a' ]

let test_parse_tenants () =
  let cfgs =
    Registry.parse_tenants
      "# comment\n\nacme:secret-a\nglobex:secret-b  \n  # trailing comment\n"
  in
  Alcotest.(check (list string)) "ids parsed" [ "acme"; "globex" ]
    (List.map (fun c -> c.Registry.cfg_id) cfgs);
  Alcotest.(check string) "secret parsed" "secret-a"
    (List.hd cfgs).Registry.cfg_secret;
  let rejects label content =
    match Registry.parse_tenants content with
    | _ -> Alcotest.fail (label ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  rejects "no colon" "acme\n";
  rejects "bad id" "Ac me:secret\n";
  rejects "empty secret" "acme:\n";
  rejects "duplicate id" "acme:one\nacme:two\n"

(* ------------------------------------------------------------------ *)
(* Session: challenge–response, replay, tenant binding, bounds *)

let mac ~secret nonce = Hmac.mac_hex ~key:secret nonce

let test_session_handshake () =
  let s = Session.create ~seed:3L () in
  let nonce = Session.challenge s ~tenant:"acme" in
  Alcotest.(check bool) "nonce nonempty" true (String.length nonce > 0);
  Alcotest.(check int) "one pending" 1 (Session.pending s);
  (match Session.authenticate s ~tenant:"acme" ~nonce ~mac:(mac ~secret:"sec" nonce)
           ~secret:"sec"
   with
  | Some token ->
    Alcotest.(check (option string)) "token maps back" (Some "acme")
      (Session.tenant_of s ~token);
    Alcotest.(check int) "one live session" 1 (Session.live s);
    Session.revoke s ~token;
    Alcotest.(check (option string)) "revoked" None (Session.tenant_of s ~token)
  | None -> Alcotest.fail "correct mac must authenticate");
  Alcotest.(check int) "nonce consumed" 0 (Session.pending s);
  (* A consumed nonce cannot be replayed, even with the right mac. *)
  Alcotest.(check bool) "replay refused" true
    (Session.authenticate s ~tenant:"acme" ~nonce ~mac:(mac ~secret:"sec" nonce)
       ~secret:"sec"
    = None)

let test_session_rejections () =
  let s = Session.create ~seed:4L () in
  (* Wrong mac consumes the nonce and fails. *)
  let nonce = Session.challenge s ~tenant:"acme" in
  Alcotest.(check bool) "wrong mac" true
    (Session.authenticate s ~tenant:"acme" ~nonce ~mac:"deadbeef" ~secret:"sec"
    = None);
  Alcotest.(check bool) "and the nonce is gone" true
    (Session.authenticate s ~tenant:"acme" ~nonce ~mac:(mac ~secret:"sec" nonce)
       ~secret:"sec"
    = None);
  (* A nonce minted for one tenant cannot authenticate another, even with
     a mac that is correct under the other tenant's secret. *)
  let nonce = Session.challenge s ~tenant:"acme" in
  Alcotest.(check bool) "foreign nonce" true
    (Session.authenticate s ~tenant:"globex" ~nonce
       ~mac:(mac ~secret:"sec-g" nonce) ~secret:"sec-g"
    = None);
  (* Unknown nonce / unknown token. *)
  Alcotest.(check bool) "unknown nonce" true
    (Session.authenticate s ~tenant:"acme" ~nonce:"no-such"
       ~mac:(mac ~secret:"sec" "no-such") ~secret:"sec"
    = None);
  Alcotest.(check (option string)) "unknown token" None
    (Session.tenant_of s ~token:"bogus");
  Alcotest.(check (option string)) "empty token" None
    (Session.tenant_of s ~token:"")

let test_session_bounds () =
  (* Pending challenges are a bounded FIFO: hammering Open_session evicts
     the oldest nonce instead of growing memory. *)
  let s = Session.create ~max_pending:2 ~max_sessions:2 ~seed:5L () in
  let n1 = Session.challenge s ~tenant:"acme" in
  let n2 = Session.challenge s ~tenant:"acme" in
  let n3 = Session.challenge s ~tenant:"acme" in
  Alcotest.(check int) "pending capped" 2 (Session.pending s);
  Alcotest.(check bool) "oldest nonce evicted" true
    (Session.authenticate s ~tenant:"acme" ~nonce:n1 ~mac:(mac ~secret:"x" n1)
       ~secret:"x"
    = None);
  let auth n =
    match
      Session.authenticate s ~tenant:"acme" ~nonce:n ~mac:(mac ~secret:"x" n)
        ~secret:"x"
    with
    | Some t -> t
    | None -> Alcotest.fail "expected a token"
  in
  let t2 = auth n2 and t3 = auth n3 in
  (* Live sessions are bounded the same way. *)
  let n4 = Session.challenge s ~tenant:"acme" in
  let t4 = auth n4 in
  Alcotest.(check int) "sessions capped" 2 (Session.live s);
  Alcotest.(check (option string)) "oldest session evicted" None
    (Session.tenant_of s ~token:t2);
  Alcotest.(check (option string)) "newer session lives" (Some "acme")
    (Session.tenant_of s ~token:t3);
  Alcotest.(check (option string)) "newest session lives" (Some "acme")
    (Session.tenant_of s ~token:t4)

(* A consumed nonce or a revoked token leaves its table at once; the
   eviction queue behind the table must not keep it either, or a client
   that opens, authenticates and revokes in a loop grows server memory
   while [pending] and [live] both read 0. *)
let test_session_queues_bounded () =
  let max_pending = 8 and max_sessions = 8 in
  let s = Session.create ~max_pending ~max_sessions ~seed:6L () in
  let base = Obj.reachable_words (Obj.repr s) in
  for _ = 1 to 20_000 do
    let nonce = Session.challenge s ~tenant:"acme" in
    match
      Session.authenticate s ~tenant:"acme" ~nonce ~mac:(mac ~secret:"x" nonce)
        ~secret:"x"
    with
    | Some token -> Session.revoke s ~token
    | None -> Alcotest.fail "expected a token"
  done;
  Alcotest.(check int) "no pending challenge" 0 (Session.pending s);
  Alcotest.(check int) "no live session" 0 (Session.live s);
  (* A queued key costs a queue cell and a 32-byte string, under 16 words;
     each queue may hold up to twice its table's cap. *)
  let bound = base + (16 * 2 * (max_pending + max_sessions)) in
  let words = Obj.reachable_words (Obj.repr s) in
  if words > bound then
    Alcotest.failf "session state holds %d words after 20000 handshakes, \
                    bound %d" words bound

(* ------------------------------------------------------------------ *)
(* The multi-tenant service over a real TPC-H testbed *)

let testbed = lazy (Testbed.load ~sf:0.001 ~seed:33L ())

let configs =
  [ { Registry.cfg_id = "acme"; cfg_secret = "secret-acme" };
    { Registry.cfg_id = "globex"; cfg_secret = "secret-globex" } ]

let make_registry () =
  let tb = Lazy.force testbed in
  let make_enc ~key =
    Encrypted_db.create ~key ~window_lo:Tpch.window_lo
      ~date_domain:(Testbed.padded_domain ~rho:None) ~plain:(Testbed.plain tb)
      ~specs:Testbed.specs ()
  in
  let make_proxies enc =
    [ ( Tpch_queries.date_column Tpch_queries.Q6,
        Testbed.proxy_over enc ~template:Tpch_queries.Q6 ~rho:None ~seed:11L () ) ]
  in
  Registry.create ~master_key:"test-root-key" ~make_enc ~make_proxies ~configs ()

let make_service ?max_inflight ?chunk_rows () =
  let registry = make_registry () in
  (registry, Tenant_service.create ~registry ?max_inflight ?chunk_rows ())

(* Drive the full handshake through the handler, as a client would. *)
let open_session h ~tenant ~secret =
  match h Wire.no_header (Wire.Open_session { tenant }) with
  | Wire.Session_challenge { nonce } -> (
    match
      h Wire.no_header
        (Wire.Authenticate { tenant; nonce; mac = mac ~secret nonce })
    with
    | Wire.Session_ok { token } -> token
    | _ -> Alcotest.fail "expected Session_ok")
  | _ -> Alcotest.fail "expected Session_challenge"

let with_session token = { Wire.trace_id = ""; session = token; req_id = 0 }

let query_via h header inst =
  match
    h header
      (Wire.Query
         { sql = inst.Tpch_queries.sql;
           date_column = Tpch_queries.date_column inst.Tpch_queries.template;
           date_lo = inst.Tpch_queries.date_lo;
           date_hi = inst.Tpch_queries.date_hi })
  with
  | Wire.Rows r -> r
  | Wire.Error { message; _ } -> Alcotest.fail ("query failed: " ^ message)
  | _ -> Alcotest.fail "expected Rows"

(* Returns (message, retry_after) of the expected structured error. *)
let expect_error code name = function
  | Wire.Error { code = c; message; retry_after; query = _ } when c = code ->
    (message, retry_after)
  | Wire.Error { code = c; _ } ->
    Alcotest.fail
      (Printf.sprintf "%s: wrong error code %s" name
         (Wire.error_code_to_string c))
  | _ -> Alcotest.fail (name ^ ": expected an error")

let q6_instance seed =
  let rng = Mope_stats.Rng.create seed in
  Tpch_queries.random_instance rng Tpch_queries.Q6

let test_handshake_and_query () =
  let tb = Lazy.force testbed in
  let _registry, svc = make_service () in
  let h = Tenant_service.handler svc in
  (* Ping needs no session. *)
  Alcotest.(check bool) "ping unauthenticated" true
    (h Wire.no_header Wire.Ping = Wire.Pong);
  let token = open_session h ~tenant:"acme" ~secret:"secret-acme" in
  let inst = q6_instance 51L in
  let plain = Testbed.run_plain tb inst in
  let got = query_via h (with_session token) inst in
  Alcotest.(check (list string)) "columns" plain.Exec.columns got.Exec.columns;
  Alcotest.(check (list (list string))) "byte-identical through the tenant path"
    (Testbed.fingerprint plain) (Testbed.fingerprint got);
  (* Stats answer under the session too. *)
  match h (with_session token) Wire.Get_stats with
  | Wire.Stats _ -> ()
  | _ -> Alcotest.fail "expected Stats"

let test_auth_failures () =
  let _registry, svc = make_service () in
  let h = Tenant_service.handler svc in
  (* Unknown tenant is the one distinguishable pre-auth failure. *)
  let msg, _ =
    expect_error Wire.Unknown_tenant "unknown tenant"
      (h Wire.no_header (Wire.Open_session { tenant = "initech" }))
  in
  Alcotest.(check bool) "names the code only" true (String.length msg > 0);
  (* A wrong mac is Auth_failed — and deliberately unspecific. *)
  (match h Wire.no_header (Wire.Open_session { tenant = "acme" }) with
  | Wire.Session_challenge { nonce } ->
    let msg, _ =
      expect_error Wire.Auth_failed "wrong mac"
        (h Wire.no_header
           (Wire.Authenticate { tenant = "acme"; nonce; mac = "00" }))
    in
    Alcotest.(check bool) "does not say why" false (contains ~needle:"mac" msg);
    (* The nonce was consumed by the failed attempt: the correct mac can
       no longer ride it. *)
    ignore
      (expect_error Wire.Auth_failed "replay after failure"
         (h Wire.no_header
            (Wire.Authenticate
               { tenant = "acme"; nonce; mac = mac ~secret:"secret-acme" nonce })))
  | _ -> Alcotest.fail "expected Session_challenge");
  (* Serving requests without (or with a bogus) session are Auth_failed. *)
  let inst = q6_instance 52L in
  let q =
    Wire.Query
      { sql = inst.Tpch_queries.sql;
        date_column = Tpch_queries.date_column inst.Tpch_queries.template;
        date_lo = inst.Tpch_queries.date_lo;
        date_hi = inst.Tpch_queries.date_hi }
  in
  ignore (expect_error Wire.Auth_failed "no session" (h Wire.no_header q));
  ignore
    (expect_error Wire.Auth_failed "bogus session" (h (with_session "nope") q));
  (* Store/cluster ops are not served by the tenant frontend. *)
  let token = open_session h ~tenant:"acme" ~secret:"secret-acme" in
  ignore
    (expect_error Wire.Unsupported "store op"
       (h (with_session token) (Wire.Fetch { sql = "SELECT 1"; epoch = 0 })))

let test_cross_tenant_isolation () =
  let registry, svc = make_service () in
  let h = Tenant_service.handler svc in
  (* Different tenants, different derived keys, different ciphertexts for
     the same plaintext day (overwhelmingly). *)
  let enc_of id =
    match Registry.find registry id with
    | Some t -> t.Registry.current.Registry.enc
    | None -> Alcotest.fail "tenant missing"
  in
  let day = Tpch.window_lo + 400 in
  Alcotest.(check bool) "per-tenant ciphertexts differ" true
    (Encrypted_db.encrypt_date (enc_of "acme") day
    <> Encrypted_db.encrypt_date (enc_of "globex") day);
  Alcotest.(check bool) "per-tenant offsets differ" true
    (Key_rotation.offsets_differ (enc_of "acme") (enc_of "globex"));
  (* A session can only act as its own tenant: rotating someone else's
     keys is Auth_failed, indistinguishable from a bad token. *)
  let token = open_session h ~tenant:"acme" ~secret:"secret-acme" in
  ignore
    (expect_error Wire.Auth_failed "foreign rotate"
       (h (with_session token)
          (Wire.Rotate { tenant = "globex"; status_only = true })));
  (* One tenant's secret cannot open the other's session. *)
  (match h Wire.no_header (Wire.Open_session { tenant = "globex" }) with
  | Wire.Session_challenge { nonce } ->
    ignore
      (expect_error Wire.Auth_failed "wrong tenant's secret"
         (h Wire.no_header
            (Wire.Authenticate
               { tenant = "globex"; nonce; mac = mac ~secret:"secret-acme" nonce })))
  | _ -> Alcotest.fail "expected Session_challenge")

let test_tenant_metrics_labels () =
  let open Mope_obs in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled false)
    (fun () ->
      let _registry, svc = make_service () in
      let h = Tenant_service.handler svc in
      let token = open_session h ~tenant:"acme" ~secret:"secret-acme" in
      ignore (query_via h (with_session token) (q6_instance 53L));
      let text = Metrics.render_prometheus () in
      Alcotest.(check bool) "tenant-labeled query counter" true
        (contains ~needle:"mope_tenant_queries_total{tenant=\"acme\"}" text);
      Alcotest.(check bool) "tenant-labeled latency histogram" true
        (contains ~needle:"mope_tenant_query_seconds" text))

(* ------------------------------------------------------------------ *)
(* Online rotation: byte-identity through the dual-key read window *)

(* Returns (state, generation, rows_moved, rows_total). *)
let rotation_status h token tenant =
  match h (with_session token) (Wire.Rotate { tenant; status_only = true }) with
  | Wire.Rotation { state; generation; rows_moved; rows_total } ->
    (state, generation, rows_moved, rows_total)
  | _ -> Alcotest.fail "expected Rotation"

let test_rotation_stepwise_byte_identity () =
  (* Drive the rotation chunk by chunk by hand, interleaving queries after
     every chunk: each one must be byte-identical to the plaintext
     baseline — the dual-key read window at every stage of the move. *)
  let tb = Lazy.force testbed in
  let registry, svc = make_service () in
  let h = Tenant_service.handler svc in
  let token = open_session h ~tenant:"acme" ~secret:"secret-acme" in
  let tenant =
    match Registry.find registry "acme" with
    | Some t -> t
    | None -> Alcotest.fail "tenant missing"
  in
  let inst = q6_instance 54L in
  let plain = Testbed.run_plain tb inst in
  let check_query label =
    Alcotest.(check (list (list string))) label (Testbed.fingerprint plain)
      (Testbed.fingerprint (query_via h (with_session token) inst))
  in
  check_query "before rotation";
  let st = Rotation.start registry tenant in
  Alcotest.(check string) "rotating" "rotating" st.Rotation.state;
  Alcotest.(check int) "still generation 0" 0 st.Rotation.generation;
  Alcotest.(check bool) "rows to move" true (st.Rotation.rows_total > 0);
  (* Idempotent while in flight. *)
  let st2 = Rotation.start registry tenant in
  Alcotest.(check int) "start is idempotent" st.Rotation.rows_total
    st2.Rotation.rows_total;
  let steps = ref 0 in
  let rec drive () =
    if not (Rotation.step registry tenant ~chunk_rows:120) then begin
      incr steps;
      check_query (Printf.sprintf "mid-rotation after chunk %d" !steps);
      let state, _, rows_moved, rows_total = rotation_status h token "acme" in
      Alcotest.(check string) "wire sees rotating" "rotating" state;
      Alcotest.(check bool) "wire sees progress" true
        (rows_moved > 0 || rows_total > 0);
      drive ()
    end
  in
  drive ();
  Alcotest.(check bool) "rotation took multiple chunks" true (!steps > 1);
  check_query "after cutover";
  let state, generation, _, _ = rotation_status h token "acme" in
  Alcotest.(check string) "serving again" "serving" state;
  Alcotest.(check int) "generation advanced" 1 generation;
  (* The other tenant never noticed. *)
  let g =
    match Registry.find registry "globex" with
    | Some t -> t
    | None -> Alcotest.fail "tenant missing"
  in
  Alcotest.(check int) "globex untouched" 0 g.Registry.generation

let test_rotation_via_wire_worker () =
  (* The wire path: Rotate{status_only=false} starts the background
     worker; queries keep answering (byte-identically) while it runs, and
     polling the status eventually reports the cutover. *)
  let tb = Lazy.force testbed in
  let _registry, svc = make_service ~chunk_rows:64 () in
  let h = Tenant_service.handler svc in
  let token = open_session h ~tenant:"globex" ~secret:"secret-globex" in
  let inst = q6_instance 55L in
  let plain = Testbed.run_plain tb inst in
  (match h (with_session token) (Wire.Rotate { tenant = "globex"; status_only = false }) with
  | Wire.Rotation { state; _ } ->
    Alcotest.(check string) "started" "rotating" state
  | _ -> Alcotest.fail "expected Rotation");
  (* Query under the rotation until it completes. *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait polls =
    let got = query_via h (with_session token) inst in
    Alcotest.(check (list (list string))) "byte-identical while rotating"
      (Testbed.fingerprint plain) (Testbed.fingerprint got);
    let (state, _, _, _) as st = rotation_status h token "globex" in
    if state = "rotating" then
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "rotation did not finish"
      else begin
        Thread.delay 0.01;
        wait (polls + 1)
      end
    else st
  in
  let _, final_generation, _, _ = wait 0 in
  Tenant_service.join_workers svc;
  Alcotest.(check int) "generation advanced" 1 final_generation;
  let got = query_via h (with_session token) inst in
  Alcotest.(check (list (list string))) "byte-identical after rotation"
    (Testbed.fingerprint plain) (Testbed.fingerprint got)

let test_rotation_kill_and_resume () =
  (* Chaos: kill the rotation worker mid-move (at a point chosen by
     CHAOS_SEED), check the tenant still answers byte-identically from
     the half-moved state, then resume with a fresh worker and verify the
     final state against the never-rotated baseline. *)
  let seed =
    match Sys.getenv_opt "CHAOS_SEED" with
    | Some s -> (try Int64.of_string s with _ -> 0xC4A05L)
    | None -> 0xC4A05L
  in
  let tb = Lazy.force testbed in
  let registry, svc = make_service () in
  let h = Tenant_service.handler svc in
  let token = open_session h ~tenant:"acme" ~secret:"secret-acme" in
  let tenant =
    match Registry.find registry "acme" with
    | Some t -> t
    | None -> Alcotest.fail "tenant missing"
  in
  let inst = q6_instance 56L in
  let plain = Testbed.run_plain tb inst in
  let check_query label =
    Alcotest.(check (list (list string))) label (Testbed.fingerprint plain)
      (Testbed.fingerprint (query_via h (with_session token) inst))
  in
  ignore (Rotation.start registry tenant);
  let total =
    match tenant.Registry.move with
    | Some (m, _) -> snd (Key_rotation.move_progress m)
    | None -> Alcotest.fail "no move in flight"
  in
  (* Kill after a seeded number of chunks — somewhere strictly inside the
     move, so the half-moved state is what the queries read. *)
  let rng = Mope_stats.Rng.create seed in
  let kill_after = 1 + Mope_stats.Rng.int rng 3 in
  let polls = Atomic.make 0 in
  let should_stop () = Atomic.fetch_and_add polls 1 >= kill_after in
  let w =
    Rotation.worker registry tenant ~chunk_rows:50 ~should_stop ()
  in
  Thread.join w;
  (* The worker is dead mid-move: rotation still in flight, progress
     strictly between 0 and total. *)
  let st = Rotation.status tenant in
  Alcotest.(check string) "still rotating after the kill" "rotating"
    st.Rotation.state;
  Alcotest.(check bool) "made progress" true (st.Rotation.rows_moved > 0);
  Alcotest.(check bool) "was killed mid-move" true
    (st.Rotation.rows_moved < total);
  check_query "byte-identical from the half-moved state";
  (* Recovery: a fresh worker resumes the same move to completion. *)
  let w2 = Rotation.worker registry tenant ~chunk_rows:50 () in
  Thread.join w2;
  let final = Rotation.status tenant in
  Alcotest.(check string) "served after recovery" "serving"
    final.Rotation.state;
  Alcotest.(check int) "generation advanced exactly once" 1
    final.Rotation.generation;
  check_query "byte-identical to the never-rotated baseline";
  (* And the new generation's ciphertexts actually moved. *)
  let fresh_offset =
    Key_rotation.offsets_differ
      (Registry.find registry "globex" |> Option.get).Registry.current
        .Registry.enc
      tenant.Registry.current.Registry.enc
  in
  Alcotest.(check bool) "rotated generation has its own offset" true
    fresh_offset

(* ------------------------------------------------------------------ *)
(* Per-tenant in-flight budget: one tenant's storm never sheds another *)

let test_inflight_budget_isolates_tenants () =
  let registry, svc = make_service ~max_inflight:2 () in
  let h = Tenant_service.handler svc in
  let token_a = open_session h ~tenant:"acme" ~secret:"secret-acme" in
  let token_g = open_session h ~tenant:"globex" ~secret:"secret-globex" in
  let tenant =
    match Registry.find registry "acme" with
    | Some t -> t
    | None -> Alcotest.fail "tenant missing"
  in
  let inst = q6_instance 57L in
  let q =
    Wire.Query
      { sql = inst.Tpch_queries.sql;
        date_column = Tpch_queries.date_column inst.Tpch_queries.template;
        date_lo = inst.Tpch_queries.date_lo;
        date_hi = inst.Tpch_queries.date_hi }
  in
  (* Jam acme deterministically: hold its tenant lock, park exactly
     [max_inflight] requests inside the handler (they pass the shed check,
     then block on the lock), and only then probe. *)
  Mutex.lock tenant.Registry.lock;
  let results = Array.make 2 None in
  let threads =
    List.init 2 (fun i ->
        Thread.create
          (fun () -> results.(i) <- Some (h (with_session token_a) q))
          ())
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    Atomic.get tenant.Registry.inflight < 2 && Unix.gettimeofday () < deadline
  do
    Thread.yield ()
  done;
  Alcotest.(check int) "budget fully occupied" 2
    (Atomic.get tenant.Registry.inflight);
  (* The next acme request is shed before touching the lock — with a
     retry hint. *)
  (match expect_error Wire.Overloaded "storm overflow" (h (with_session token_a) q) with
  | _, Some ra -> Alcotest.(check bool) "retry hint positive" true (ra > 0.0)
  | _, None -> Alcotest.fail "expected a retry_after hint");
  (* The quiet tenant is entirely unaffected while acme is jammed. *)
  let tb = Lazy.force testbed in
  let plain = Testbed.run_plain tb inst in
  let got = query_via h (with_session token_g) inst in
  Alcotest.(check (list (list string))) "quiet tenant serves during the storm"
    (Testbed.fingerprint plain) (Testbed.fingerprint got);
  (* Release the jam: the parked requests complete correctly. *)
  Mutex.unlock tenant.Registry.lock;
  List.iter Thread.join threads;
  Array.iter
    (function
      | Some (Wire.Rows r) ->
        Alcotest.(check (list (list string))) "parked request correct"
          (Testbed.fingerprint plain) (Testbed.fingerprint r)
      | Some _ -> Alcotest.fail "parked request failed"
      | None -> Alcotest.fail "parked request lost")
    results;
  Alcotest.(check int) "budget drained" 0 (Atomic.get tenant.Registry.inflight)

(* ------------------------------------------------------------------ *)
(* Full wire loopback: two tenants, one server *)

let test_loopback_two_tenants () =
  let tb = Lazy.force testbed in
  let _registry, svc = make_service () in
  let server = Server.start ~handler:(Tenant_service.handler svc) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      let port = Server.port server in
      let inst = q6_instance 58L in
      let plain = Testbed.run_plain tb inst in
      let run_as tenant secret =
        Client.with_client ~port (fun c ->
            let _token = Client.open_session c ~tenant ~secret () in
            Client.query c ~sql:inst.Tpch_queries.sql
              ~date_column:(Tpch_queries.date_column inst.Tpch_queries.template)
              ~date_lo:inst.Tpch_queries.date_lo
              ~date_hi:inst.Tpch_queries.date_hi ())
      in
      let ra = run_as "acme" "secret-acme" in
      let rg = run_as "globex" "secret-globex" in
      Alcotest.(check (list (list string))) "acme over the wire"
        (Testbed.fingerprint plain) (Testbed.fingerprint ra);
      Alcotest.(check (list (list string))) "globex over the wire"
        (Testbed.fingerprint plain) (Testbed.fingerprint rg);
      (* Wrong secret fails the handshake with a structured error. *)
      (match
         Client.with_client ~port (fun c ->
             Client.open_session c ~tenant:"acme" ~secret:"wrong" ())
       with
      | _ -> Alcotest.fail "expected the handshake to fail"
      | exception Mope_error.Error e ->
        Alcotest.(check bool) "names auth-failed" true
          (contains ~needle:"auth-failed" e.Mope_error.msg)))

let () =
  Alcotest.run "tenant"
    [ ( "registry",
        [ Alcotest.test_case "valid ids" `Quick test_valid_id;
          Alcotest.test_case "tenants file parsing" `Quick test_parse_tenants ] );
      ( "session",
        [ Alcotest.test_case "handshake" `Quick test_session_handshake;
          Alcotest.test_case "rejections" `Quick test_session_rejections;
          Alcotest.test_case "bounded tables" `Quick test_session_bounds;
          Alcotest.test_case "bounded eviction queues" `Quick
            test_session_queues_bounded ] );
      ( "service",
        [ Alcotest.test_case "handshake and query" `Slow
            test_handshake_and_query;
          Alcotest.test_case "auth failures" `Slow test_auth_failures;
          Alcotest.test_case "cross-tenant isolation" `Slow
            test_cross_tenant_isolation;
          Alcotest.test_case "tenant-labeled metrics" `Slow
            test_tenant_metrics_labels;
          Alcotest.test_case "in-flight budget isolates tenants" `Slow
            test_inflight_budget_isolates_tenants ] );
      ( "rotation",
        [ Alcotest.test_case "stepwise byte identity" `Slow
            test_rotation_stepwise_byte_identity;
          Alcotest.test_case "wire worker rotation" `Slow
            test_rotation_via_wire_worker;
          Alcotest.test_case "kill mid-rotation and resume" `Slow
            test_rotation_kill_and_resume ] );
      ( "loopback",
        [ Alcotest.test_case "two tenants over TCP" `Slow
            test_loopback_two_tenants ] ) ]
