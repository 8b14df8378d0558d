(* Fixture tests for mope-lint: for every rule, one source that must trip it
   and one that must stay clean (including scope checks — the same code that
   is a finding in lib/ is legal in bench/). Deleting any single rule's
   implementation makes at least one of these fail. Also covers the
   suppression file: matching, mandatory justifications, malformed lines,
   and stale-entry reporting, plus a filesystem round-trip of the driver. *)

open Mope_lint

let rules_of ~file src =
  List.map (fun d -> d.Lint_diagnostic.rule) (Lint_rules.check_source ~file src)

let check_flags ~file src expected msg =
  Alcotest.(check (list string)) msg expected (rules_of ~file src)

let check_trips ~file src rule msg =
  Alcotest.(check bool) msg true (List.mem rule (rules_of ~file src))

let check_clean ~file src msg =
  check_flags ~file src [] msg

(* ---------- secret-hygiene ---------- *)

let test_secret_flow_violation () =
  check_flags ~file:"lib/system/leak.ml"
    "let leak m = Printf.printf \"offset=%d\\n\" (Mope.offset m)"
    [ "secret-flow" ] "secret accessor into printf";
  check_trips ~file:"lib/net/leak.ml"
    "let leak t = Logs.info (fun m -> m \"key %s\" t.master_key)"
    "secret-flow" "record field into log";
  check_trips ~file:"lib/net/leak.ml"
    "let frame k = Wire.encode_request buf k.secret_key" "secret-flow"
    "secret into wire encoder";
  check_trips ~file:"lib/db/leak.ml"
    "let persist key = { Wire.payload = key }" "secret-flow"
    "secret into sink record field";
  (* Codec is the byte encoder under Wire, Storage and Wal, so it is a
     sink of its own: a secret reaching it lands in a frame or a file. *)
  check_flags ~file:"lib/db/leak.ml"
    "let persist buf key = Codec.put_string buf key" [ "secret-flow" ]
    "secret into the binary codec";
  (* The observability layer is a sink: a secret leaking into a metric or a
     trace item would be exfiltrated by every Stats scrape. *)
  check_trips ~file:"lib/ope/leak.ml"
    "let leak c offset = Metrics.observe c (float_of_int offset)" "secret-flow"
    "secret into a metric observation";
  check_trips ~file:"lib/system/leak.ml"
    "let leak plaintext = Trace.add_item \"value\" plaintext" "secret-flow"
    "secret into a trace item";
  check_trips ~file:"lib/ope/leak.ml"
    "let label t = Mope_obs.Metrics.counter \"walks\" ~labels:[ (\"k\", \
     t.secret_key) ] ()"
    "secret-flow" "secret into a metric label value";
  (* The plan cache holds statement text bound for the untrusted server, so
     it is a sink too: a cache key derived from a secret-named value leaks. *)
  check_trips ~file:"lib/db/leak.ml"
    "let lookup cache key = Plan_cache.find cache ~key ~epoch:0" "secret-flow"
    "secret-named plan-cache key"

let test_secret_flow_clean () =
  check_clean ~file:"lib/system/fine.ml"
    "let report n rows = Printf.printf \"served %d queries, %d rows\\n\" n rows"
    "non-secret printf is clean";
  check_clean ~file:"lib/system/fine.ml"
    "let derive t tbl = Hmac.mac ~key:t.master_key tbl"
    "secret into non-sink call is clean";
  check_clean ~file:"lib/ope/fine.ml"
    "let count c draws = Metrics.observe c (float_of_int draws)"
    "non-secret metric observation is clean";
  check_clean ~file:"lib/db/fine.ml"
    "let persist buf name = Codec.put_string buf name"
    "non-secret string into the binary codec is clean";
  check_clean ~file:"lib/system/fine.ml"
    "let count rows = Trace.add_item \"rows_kept\" rows"
    "non-secret trace item is clean";
  check_clean ~file:"lib/db/fine.ml"
    "let lookup cache cache_key = Plan_cache.find cache ~key:cache_key ~epoch:0"
    "neutral-named plan-cache key is clean"

(* ---------- determinism ---------- *)

let test_random_violation () =
  check_flags ~file:"lib/core/sample.ml" "let draw () = Random.int 10"
    [ "banned-random" ] "Stdlib.Random in lib/";
  check_trips ~file:"lib/core/sample.ml"
    "let draw st = Stdlib.Random.State.int st 10" "banned-random"
    "qualified Stdlib.Random in lib/"

let test_random_clean () =
  check_clean ~file:"lib/core/sample.ml"
    "let draw rng = Rng.int rng 10" "seeded Rng in lib/ is clean";
  check_clean ~file:"bench/sample.ml" "let draw () = Random.int 10"
    "Random outside lib/ is out of scope"

let test_hash_violation () =
  check_flags ~file:"lib/db/index.ml" "let h x = Hashtbl.hash x"
    [ "nondet-hash" ] "Hashtbl.hash in lib/"

let test_hash_clean () =
  check_clean ~file:"lib/db/index.ml"
    "let put tbl k v = Hashtbl.replace tbl k v"
    "ordinary Hashtbl use is clean"

let test_time_violation () =
  check_flags ~file:"lib/core/seed.ml" "let now () = Unix.time ()"
    [ "nondet-time" ] "Unix.time in lib/"

let test_time_clean () =
  check_clean ~file:"lib/net/latency.ml"
    "let started () = Unix.gettimeofday ()"
    "gettimeofday latency metrics are clean"

(* ---------- error-discipline ---------- *)

let test_failwith_violation () =
  check_flags ~file:"lib/db/broken.ml" "let f () = failwith \"boom\""
    [ "error-failwith" ] "failwith in serving code"

let test_failwith_clean () =
  check_clean ~file:"lib/db/fine.ml"
    "let f () = Mope_error.failwithf \"bad page %d\" 7"
    "Mope_error.failwithf is the sanctioned spelling";
  check_clean ~file:"lib/core/fine.ml" "let f () = failwith \"boom\""
    "failwith outside serving scope is out of scope"

let test_exit_violation () =
  check_flags ~file:"lib/net/broken.ml" "let die () = exit 1"
    [ "error-exit" ] "exit in serving code"

let test_exit_clean () =
  check_clean ~file:"bin/cli.ml" "let die () = exit 1"
    "exit in bin/ is the CLI's business"

let test_assert_false_violation () =
  check_flags ~file:"lib/db/broken.ml"
    "let f = function Some x -> x | None -> assert false"
    [ "error-assert-false" ] "assert false in serving code"

let test_assert_false_clean () =
  check_clean ~file:"lib/db/fine.ml"
    "let f n = assert (n >= 0); n + 1"
    "a real assertion with a condition is clean"

let test_raise_generic_violation () =
  check_flags ~file:"lib/db/broken.ml" "let f () = raise Not_found"
    [ "error-raise-generic" ] "raise Not_found in serving code";
  check_trips ~file:"lib/net/broken.ml"
    "let f () = raise (Failure \"late\")" "error-raise-generic"
    "raise (Failure _) in serving code"

let test_raise_generic_clean () =
  check_clean ~file:"lib/db/fine.ml"
    "let f () = raise (Corrupt \"bad magic\")"
    "declared domain exceptions are clean";
  check_clean ~file:"lib/db/fine.ml"
    "let f g = try g () with e -> log e; raise e"
    "re-raising a caught exception is clean"

let test_printexc_violation () =
  check_flags ~file:"lib/net/broken.ml"
    "let render e = Printexc.to_string e" [ "error-printexc" ]
    "Printexc in serving code"

let test_printexc_clean () =
  check_clean ~file:"lib/net/fine.ml"
    "let render e = Mope_error.describe_exn e"
    "describe_exn is the sanctioned formatter"

(* ---------- crypto-correctness ---------- *)

let test_poly_compare_violation () =
  check_flags ~file:"lib/ope/cmp.ml" "let eq a b = a = b"
    [ "poly-compare" ] "polymorphic = in lib/ope";
  check_trips ~file:"lib/crypto/cmp.ml" "let c a b = compare a b"
    "poly-compare" "polymorphic compare in lib/crypto";
  check_trips ~file:"lib/crypto/cmp.ml"
    "let verify tag expected = tag = expected" "poly-compare"
    "string-shaped digest compare is flagged";
  (* Scope now includes the cluster and storage layers: shard bounds and
     WAL cursors are ciphertext-adjacent. *)
  check_trips ~file:"lib/cluster/cmp.ml" "let eq a b = a = b" "poly-compare"
    "polymorphic = in lib/cluster";
  check_trips ~file:"lib/db/cmp.ml" "let eq a b = a = b" "poly-compare"
    "polymorphic = in lib/db";
  (* A bare [compare] handed to sort is the same bug spelled differently. *)
  check_trips ~file:"lib/db/ord.ml" "let f xs = List.sort_uniq compare xs"
    "poly-compare" "bare compare passed as an ordering"

let test_poly_compare_clean () =
  check_clean ~file:"lib/ope/cmp.ml" "let eq a b = Int.equal a b"
    "monomorphic equal is clean";
  check_clean ~file:"lib/ope/cmp.ml" "let zero x = x = 0"
    "compare against an int literal is clean";
  check_clean ~file:"lib/system/cmp.ml" "let eq a b = a = b"
    "poly compare outside the covered layers is out of scope";
  check_clean ~file:"lib/db/ord.ml" "let f xs = List.sort_uniq Value.compare xs"
    "a named monomorphic ordering is clean";
  check_clean ~file:"lib/db/cmp.ml" "let full l = List.length l = 8"
    "scalar-returning application against a literal is clean"

let test_obj_magic_violation () =
  check_flags ~file:"bench/cast.ml" "let f x = Obj.magic x"
    [ "obj-magic" ] "Obj.magic flagged everywhere, bench included"

let test_obj_magic_clean () =
  check_clean ~file:"bench/cast.ml" "let f x = ignore x"
    "no Obj, no finding"

(* ---------- lock-discipline ---------- *)

let test_lock_violation () =
  check_flags ~file:"lib/net/locks.ml"
    "let f l work = Mutex.lock l; let r = work () in Mutex.unlock l; r"
    [ "lock-unprotected" ] "manual unlock leaks on exception";
  check_flags ~file:"lib/cluster/locks.ml"
    "let f l work = Mutex.lock l; let r = work () in Mutex.unlock l; r"
    [ "lock-unprotected" ] "lock discipline covers lib/cluster too"

let test_lock_clean () =
  check_clean ~file:"lib/net/locks.ml"
    "let f l work = Mutex.lock l; Fun.protect ~finally:(fun () -> \
     Mutex.unlock l) work"
    "lock + Fun.protect ~finally is the sanctioned idiom";
  check_clean ~file:"lib/db/locks.ml"
    "let f l work = Mutex.lock l; let r = work () in Mutex.unlock l; r"
    "lock discipline is scoped to lib/net and lib/cluster"

(* ---------- whole-program: interprocedural taint ---------- *)

(* Multi-file fixtures run through the same two-phase driver as the real
   tree: phase 1 summarizes every file, phase 2 resolves calls across the
   fixture "modules" (module name = capitalized basename). *)

let global_diags sources = Lint_driver.check_sources sources

let global_rules sources =
  List.map (fun d -> d.Lint_diagnostic.rule) (global_diags sources)

let check_global_trips sources rule msg =
  Alcotest.(check bool) msg true (List.mem rule (global_rules sources))

let check_global_no sources rule msg =
  Alcotest.(check bool) msg false (List.mem rule (global_rules sources))

(* A sink two call hops away from the secret, across three modules. *)
let taint_sink_mod = ("lib/ope/sink_mod.ml", "let log_it v = print_endline v\n")
let taint_mid = ("lib/ope/mid.ml", "let emit v = Sink_mod.log_it v\n")

let test_interproc_taint_violation () =
  let sources =
    [ taint_sink_mod; taint_mid;
      ("lib/ope/top.ml", "let go key = Mid.emit key\n") ]
  in
  check_global_trips sources "secret-flow-interproc"
    "secret reaches a sink through two call hops";
  let witness =
    match
      List.find_opt
        (fun d -> d.Lint_diagnostic.rule = "secret-flow-interproc")
        (global_diags sources)
    with
    | Some d -> d.Lint_diagnostic.witness
    | None -> []
  in
  Alcotest.(check bool) "diagnostic carries a multi-hop witness chain" true
    (List.length witness >= 3)

let test_interproc_taint_constructor_seed () =
  check_global_trips
    [ taint_sink_mod; taint_mid;
      ("lib/ope/top.ml", "let go () = let k = Drbg.create 42 in Mid.emit k\n") ]
    "secret-flow-interproc"
    "Drbg.create return value is secret regardless of its name"

let test_interproc_taint_clean () =
  check_global_no
    [ taint_sink_mod; taint_mid;
      ("lib/ope/top.ml", "let go key = Mid.emit (String.length key)\n") ]
    "secret-flow-interproc" "a length measurement sanitizes the taint";
  check_global_no
    [ taint_sink_mod; taint_mid;
      ("lib/ope/top.ml", "let go rows = Mid.emit rows\n") ]
    "secret-flow-interproc" "neutral-named values flow freely"

let test_interproc_taint_tenant_names () =
  check_global_trips
    [ taint_sink_mod; taint_mid;
      ("lib/tenant/top.ml", "let go auth_secret = Mid.emit auth_secret\n") ]
    "secret-flow-interproc"
    "the tenant session secret is secret-named like any key"

let test_interproc_taint_hmac_sanitizer () =
  check_global_no
    [ taint_sink_mod; taint_mid;
      ("lib/tenant/top.ml",
       "let go auth_secret nonce = Mid.emit (Hmac.mac_hex auth_secret nonce)\n")
    ]
    "secret-flow-interproc"
    "the MAC computed under a secret is what the handshake sends; one-way, \
     so it sanitizes"

(* ---------- whole-program: lock order ---------- *)

let test_lock_order_violation () =
  check_global_trips
    [ ( "lib/cluster/lo.ml",
        "let ab t =\n\
        \  Mutex.lock t.a;\n\
        \  Fun.protect ~finally:(fun () -> Mutex.unlock t.a) (fun () ->\n\
        \      Mutex.lock t.b;\n\
        \      Fun.protect ~finally:(fun () -> Mutex.unlock t.b) (fun () -> \
         ()))\n\n\
         let ba t =\n\
        \  Mutex.lock t.b;\n\
        \  Fun.protect ~finally:(fun () -> Mutex.unlock t.b) (fun () ->\n\
        \      Mutex.lock t.a;\n\
        \      Fun.protect ~finally:(fun () -> Mutex.unlock t.a) (fun () -> \
         ()))\n" ) ]
    "lock-order" "a-then-b on one path, b-then-a on another is a cycle"

let test_lock_order_clean () =
  check_global_no
    [ ( "lib/cluster/lo.ml",
        "let ab t =\n\
        \  Mutex.lock t.a;\n\
        \  Fun.protect ~finally:(fun () -> Mutex.unlock t.a) (fun () ->\n\
        \      Mutex.lock t.b;\n\
        \      Fun.protect ~finally:(fun () -> Mutex.unlock t.b) (fun () -> \
         ()))\n\n\
         let ab2 t =\n\
        \  Mutex.lock t.a;\n\
        \  Fun.protect ~finally:(fun () -> Mutex.unlock t.a) (fun () ->\n\
        \      Mutex.lock t.b;\n\
        \      Fun.protect ~finally:(fun () -> Mutex.unlock t.b) (fun () -> \
         ()))\n" ) ]
    "lock-order" "the same order on every path is fine"

(* ---------- whole-program: blocking under a lock ---------- *)

let test_lock_blocking_direct () =
  check_global_trips
    [ ( "lib/net/lb.ml",
        "let f t =\n\
        \  Mutex.lock t.m;\n\
        \  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) (fun () -> \
         Unix.sleepf 0.1)\n" ) ]
    "lock-blocking" "a sleep while holding a mutex stalls every waiter"

let test_lock_blocking_through_wrapper () =
  check_global_trips
    [ ( "lib/net/lb.ml",
        "let with_lock t f =\n\
        \  Mutex.lock t.lock;\n\
        \  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f\n\n\
         let tick t = with_lock t (fun () -> Unix.sleepf 0.1)\n" ) ]
    "lock-blocking"
    "the lock is taken by a wrapper; the blocking call sits in its lambda"

let test_lock_blocking_clean () =
  check_global_no
    [ ( "lib/net/lb.ml",
        "let f t =\n\
        \  Mutex.lock t.m;\n\
        \  Fun.protect ~finally:(fun () -> Mutex.unlock t.m)\n\
        \    (fun () -> ignore (Thread.create (fun () -> Unix.sleepf 0.1) \
         ()))\n" ) ]
    "lock-blocking" "a lambda handed to Thread.create runs without the lock";
  check_global_no
    [ ( "lib/db/lb.ml",
        "let f t =\n\
        \  Mutex.lock t.m;\n\
        \  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) (fun () -> \
         Unix.sleepf 0.1)\n" ) ]
    "lock-blocking" "lock rules are scoped to lib/net and lib/cluster"

let test_lock_blocking_tenant_scope () =
  check_global_trips
    [ ( "lib/tenant/lb.ml",
        "let f t =\n\
        \  Mutex.lock t.m;\n\
        \  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) (fun () -> \
         Unix.sleepf 0.1)\n" ) ]
    "lock-blocking" "the tenant layer takes serving-path locks too";
  check_global_trips
    [ ( "lib/tenant/lb.ml",
        "let f t =\n\
        \  Mutex.lock t.m;\n\
        \  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) (fun () -> \
         Client.open_session t.c)\n" ) ]
    "lock-blocking"
    "the session-handshake RPC is two round trips; never under a lock"

(* ---------- whole-program: wire codec symmetry ---------- *)

let wire_symmetric =
  "let version = 1\n\
   let tag_ping = 0x01\n\
   let encode_request b = ignore b; ignore tag_ping\n\
   let decode_request s = ignore s; ignore version; ignore tag_ping\n"

let test_wire_symmetry_violation () =
  (* tag_data has an encode arm and no decode arm: a frame the peer can
     produce but nobody can read. This is the injected-encoder-only-tag
     check from the issue. *)
  let sources =
    [ ( "lib/net/wire.ml",
        "let version = 1\n\
         let tag_ping = 0x01\n\
         let tag_data = 0x02\n\
         let encode_request b = ignore b; ignore tag_ping; ignore tag_data\n\
         let decode_request s = ignore s; ignore version; ignore tag_ping\n" )
    ]
  in
  check_global_trips sources "wire-symmetry" "encoder-only tag is caught";
  let mentions_tag =
    List.exists
      (fun d ->
        d.Lint_diagnostic.rule = "wire-symmetry"
        && String.length d.Lint_diagnostic.message >= 8
        &&
        let msg = d.Lint_diagnostic.message in
        let rec find i =
          i + 8 <= String.length msg
          && (String.equal (String.sub msg i 8) "tag_data" || find (i + 1))
        in
        find 0)
      (global_diags sources)
  in
  Alcotest.(check bool) "diagnostic names the asymmetric tag" true mentions_tag

let test_wire_version_gate () =
  check_global_trips
    [ ( "lib/net/wire.ml",
        "let tag_ping = 0x01\n\
         let encode_request b = ignore b; ignore tag_ping\n\
         let decode_request s = ignore s; ignore tag_ping\n" ) ]
    "wire-symmetry" "a decode path that never checks the version is flagged"

let test_wire_response_header_symmetric () =
  (* The v8 response layout: every arm routes through helpers that write
     (and read back) the echoed request id between tag and body. The
     reachability walk must still see the tag from both codec sides
     through those helper hops, and the version gate anywhere on the
     decode side. *)
  check_global_no
    [ ( "lib/net/wire.ml",
        "let version = 8\n\
         let tag_pong = 0x81\n\
         let put_req_id b id = ignore b; ignore id\n\
         let encode_pong b req_id = put_req_id b req_id; ignore tag_pong\n\
         let encode_response b req_id = encode_pong b req_id\n\
         let get_req_id s = ignore s\n\
         let decode_pong s = get_req_id s; ignore tag_pong\n\
         let decode_response s = ignore version; decode_pong s\n" ) ]
    "wire-symmetry"
    "v8 response tags behind the request-id header helpers are symmetric"

let test_wire_symmetry_clean () =
  check_global_no
    [ ("lib/net/wire.ml", wire_symmetric) ]
    "wire-symmetry" "matching encode/decode arms plus a version gate pass";
  check_global_no
    [ ( "lib/net/other.ml",
        "let tag_solo = 0x09\nlet encode_request b = ignore b; ignore tag_solo\n"
      ) ]
    "wire-symmetry" "only declared wire files are held to codec symmetry"

(* ---------- meta: parsing, interfaces ---------- *)

let test_parse_error () =
  check_flags ~file:"lib/db/bad.ml" "let let let" [ "parse-error" ]
    "unparseable source is reported, not thrown"

let test_interface_scanned () =
  check_clean ~file:"lib/db/fine.mli" "val f : int -> int"
    "interfaces parse with the interface parser"

(* ---------- suppressions ---------- *)

let sup = "mope-lint.suppressions"

let diag ~file ~line ~rule =
  Lint_diagnostic.v ~file ~line ~col:0 ~rule "msg"

let test_suppress_match () =
  let t =
    Lint_suppress.parse ~file:sup
      "lib/net/wire.ml:350:error-raise-generic  clean EOF is deliberate\n"
  in
  Alcotest.(check (list string)) "no parse diags" []
    (List.map (fun d -> d.Lint_diagnostic.rule) (Lint_suppress.diagnostics t));
  let remaining, unused =
    Lint_suppress.apply t
      [ diag ~file:"lib/net/wire.ml" ~line:350 ~rule:"error-raise-generic";
        diag ~file:"lib/net/wire.ml" ~line:351 ~rule:"error-raise-generic" ]
  in
  Alcotest.(check int) "only the matching finding is dropped" 1
    (List.length remaining);
  Alcotest.(check int) "entry was used" 0 (List.length unused)

let test_suppress_missing_justification () =
  let t = Lint_suppress.parse ~file:sup "lib/net/wire.ml:350:error-exit\n" in
  Alcotest.(check (list string)) "justification is mandatory"
    [ "missing-justification" ]
    (List.map (fun d -> d.Lint_diagnostic.rule) (Lint_suppress.diagnostics t));
  Alcotest.(check int) "entry is not usable" 0
    (List.length (Lint_suppress.entries t))

let test_suppress_malformed () =
  let t = Lint_suppress.parse ~file:sup "not-a-valid-entry because reasons\n" in
  Alcotest.(check (list string)) "malformed line is a finding"
    [ "bad-suppression" ]
    (List.map (fun d -> d.Lint_diagnostic.rule) (Lint_suppress.diagnostics t))

let test_suppress_unused () =
  let t =
    Lint_suppress.parse ~file:sup
      "lib/net/gone.ml:1:error-exit  code was deleted\n"
  in
  let remaining, unused = Lint_suppress.apply t [] in
  Alcotest.(check int) "nothing to report" 0 (List.length remaining);
  let diags = Lint_suppress.unused_diagnostics ~file:sup unused in
  Alcotest.(check (list string)) "stale entry becomes a finding"
    [ "unused-suppression" ]
    (List.map (fun d -> d.Lint_diagnostic.rule) diags)

let test_suppress_anchored_match () =
  let t =
    Lint_suppress.parse ~file:sup
      "lib/net/wire.ml:@read_exact:error-raise-generic  clean EOF is \
       deliberate\n"
  in
  Alcotest.(check (list string)) "anchored entry parses" []
    (List.map (fun d -> d.Lint_diagnostic.rule) (Lint_suppress.diagnostics t));
  let in_def def line =
    Lint_diagnostic.v ~def ~file:"lib/net/wire.ml" ~line ~col:2
      ~rule:"error-raise-generic" "msg"
  in
  let remaining, unused =
    Lint_suppress.apply t [ in_def "read_exact" 550; in_def "write_frame" 60 ]
  in
  Alcotest.(check int) "matches by definition, at any line" 1
    (List.length remaining);
  Alcotest.(check string) "the other definition's finding survives"
    "write_frame" (List.hd remaining).Lint_diagnostic.def;
  Alcotest.(check int) "anchored entry counts as used" 0 (List.length unused)

let test_suppress_anchored_drift () =
  (* The point of content anchoring: adding comments or code above the
     suppressed site must not break the build. *)
  let t =
    Lint_suppress.parse ~file:sup
      "lib/db/f.ml:@bad:error-failwith  fixture: deliberate\n"
  in
  let check_run msg src =
    let r = Lint_driver.analyze ~suppress:t [ ("lib/db/f.ml", src) ] in
    Alcotest.(check (list string)) msg []
      (List.map (fun d -> d.Lint_diagnostic.rule) r.Lint_driver.diagnostics)
  in
  check_run "suppressed at the original position"
    "let bad () = failwith \"x\"\n";
  check_run "still suppressed after lines shift above the site"
    "(* a freshly written comment block\n\
    \   pushed everything down three lines *)\n\n\
     let ok x = x + 1\n\
     let bad () = failwith \"x\"\n"

let test_suppress_unknown_rule () =
  let t =
    Lint_suppress.parse ~file:sup
      "lib/a.ml:@f:no-such-rule  this rule id does not exist\n"
  in
  Alcotest.(check (list string)) "unknown rule id is a bad suppression"
    [ "bad-suppression" ]
    (List.map (fun d -> d.Lint_diagnostic.rule) (Lint_suppress.diagnostics t))

(* ---------- driver round-trip on a real directory tree ---------- *)

let with_tree f =
  let root = Filename.temp_file "mope_lint_tree" "" in
  Sys.remove root;
  let rm_rf = Printf.sprintf "rm -rf %s" (Filename.quote root) in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command rm_rf))
    (fun () ->
      List.iter
        (fun d -> Sys.mkdir (Filename.concat root d) 0o755)
        [ ""; "lib"; "lib/net"; "bench" ]
      |> ignore;
      f root)

let write ~root rel contents =
  let oc = open_out (Filename.concat root rel) in
  output_string oc contents;
  close_out oc

let test_driver_end_to_end () =
  with_tree (fun root ->
      write ~root "lib/net/bad.ml" "let f () = failwith \"boom\"\n";
      write ~root "lib/net/good.ml" "let f x = x + 1\n";
      write ~root "bench/free.ml" "let r () = Random.int 3\n";
      let r = Lint_driver.run ~root [ "lib"; "bench" ] in
      Alcotest.(check int) "three files scanned" 3 r.Lint_driver.files_scanned;
      Alcotest.(check (list string)) "exactly the failwith finding"
        [ "error-failwith" ]
        (List.map (fun d -> d.Lint_diagnostic.rule) r.Lint_driver.diagnostics);
      (* now suppress it, with a justification: clean run *)
      write ~root "sup.txt"
        "lib/net/bad.ml:1:error-failwith  fixture: deliberate for the test\n";
      let r = Lint_driver.run ~root ~suppressions:"sup.txt" [ "lib"; "bench" ] in
      Alcotest.(check int) "suppressed count" 1 r.Lint_driver.suppressed;
      Alcotest.(check (list string)) "clean after suppression" []
        (List.map (fun d -> d.Lint_diagnostic.rule) r.Lint_driver.diagnostics);
      (* a stale entry fails the run again *)
      write ~root "sup.txt"
        "lib/net/bad.ml:1:error-failwith  fixture: deliberate for the test\n\
         lib/net/gone.ml:9:obj-magic  stale\n";
      let r = Lint_driver.run ~root ~suppressions:"sup.txt" [ "lib"; "bench" ] in
      Alcotest.(check (list string)) "stale suppression is a finding"
        [ "unused-suppression" ]
        (List.map (fun d -> d.Lint_diagnostic.rule) r.Lint_driver.diagnostics))

(* ---------- CLI: exit codes and output formats ---------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

let check_contains msg haystack needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s (looking for %S)" msg needle)
    true (contains haystack needle)

let run_cli args =
  let out = Buffer.create 256 and err = Buffer.create 256 in
  let code =
    Lint_cli.main
      ~argv:(Array.of_list ("mope-lint" :: args))
      ~out:(Buffer.add_string out) ~err:(Buffer.add_string err)
  in
  (code, Buffer.contents out, Buffer.contents err)

let test_cli_exit_codes () =
  with_tree (fun root ->
      write ~root "lib/net/good.ml" "let f x = x + 1\n";
      let code, _, err = run_cli [ "--root"; root; "lib" ] in
      Alcotest.(check int) "clean tree exits 0" 0 code;
      check_contains "text mode prints a summary to stderr" err "1 file(s)";
      write ~root "lib/net/bad.ml" "let f () = failwith \"boom\"\n";
      let code, out, _ = run_cli [ "--root"; root; "lib" ] in
      Alcotest.(check int) "findings exit 1" 1 code;
      check_contains "finding is printed" out "error-failwith")

let test_cli_usage_errors () =
  let code, _, err = run_cli [ "--format"; "bogus" ] in
  Alcotest.(check int) "unknown format exits 2" 2 code;
  check_contains "format error names the value" err "bogus";
  let code, _, err = run_cli [ "--only"; "no-such-rule" ] in
  Alcotest.(check int) "unknown rule id exits 2" 2 code;
  check_contains "rule error points at --list-rules" err "--list-rules";
  let code, _, err = run_cli [ "--frobnicate" ] in
  Alcotest.(check int) "unknown flag exits 2" 2 code;
  check_contains "usage text is printed" err "usage: mope-lint"

let test_cli_list_rules () =
  let code, out, _ = run_cli [ "--list-rules" ] in
  Alcotest.(check int) "list-rules exits 0" 0 code;
  List.iter
    (check_contains "every rule family is listed" out)
    [ "secret-flow-interproc"; "lock-order"; "lock-blocking"; "wire-symmetry" ]

let test_cli_json () =
  with_tree (fun root ->
      write ~root "lib/net/bad.ml" "let f () = failwith \"boom\"\n";
      let code, out, err = run_cli [ "--root"; root; "--format"; "json"; "lib" ] in
      Alcotest.(check int) "findings exit 1 in json mode too" 1 code;
      Alcotest.(check string) "json mode keeps stderr quiet" "" err;
      List.iter
        (check_contains "json carries the structured finding" out)
        [ "{\"files_scanned\":1,\"suppressed\":0,\"findings\":[";
          "\"rule\":\"error-failwith\"";
          "\"file\":\"lib/net/bad.ml\"";
          "\"def\":\"f\"" ])

let test_cli_sarif () =
  with_tree (fun root ->
      write ~root "lib/net/bad.ml" "let f () = failwith \"boom\"\n";
      let code, out, _ =
        run_cli [ "--root"; root; "--format"; "sarif"; "lib" ]
      in
      Alcotest.(check int) "findings exit 1 in sarif mode" 1 code;
      List.iter
        (check_contains "sarif log has the required structure" out)
        [ "\"version\":\"2.1.0\"";
          "\"name\":\"mope-lint\"";
          "\"ruleId\":\"error-failwith\"";
          "\"uri\":\"lib/net/bad.ml\"";
          "\"startLine\":1" ];
      (* every rule id ships in the tool metadata, so SARIF viewers can
         show descriptions for suppressed-in-the-future findings too *)
      check_contains "rule metadata is embedded" out
        "\"id\":\"wire-symmetry\"")

let () =
  Alcotest.run "lint"
    [ ( "secret-flow",
        [ Alcotest.test_case "violations" `Quick test_secret_flow_violation;
          Alcotest.test_case "clean" `Quick test_secret_flow_clean ] );
      ( "determinism",
        [ Alcotest.test_case "random violation" `Quick test_random_violation;
          Alcotest.test_case "random clean" `Quick test_random_clean;
          Alcotest.test_case "hash violation" `Quick test_hash_violation;
          Alcotest.test_case "hash clean" `Quick test_hash_clean;
          Alcotest.test_case "time violation" `Quick test_time_violation;
          Alcotest.test_case "time clean" `Quick test_time_clean ] );
      ( "error-discipline",
        [ Alcotest.test_case "failwith violation" `Quick test_failwith_violation;
          Alcotest.test_case "failwith clean" `Quick test_failwith_clean;
          Alcotest.test_case "exit violation" `Quick test_exit_violation;
          Alcotest.test_case "exit clean" `Quick test_exit_clean;
          Alcotest.test_case "assert false violation" `Quick
            test_assert_false_violation;
          Alcotest.test_case "assert false clean" `Quick test_assert_false_clean;
          Alcotest.test_case "raise generic violation" `Quick
            test_raise_generic_violation;
          Alcotest.test_case "raise generic clean" `Quick
            test_raise_generic_clean;
          Alcotest.test_case "printexc violation" `Quick test_printexc_violation;
          Alcotest.test_case "printexc clean" `Quick test_printexc_clean ] );
      ( "crypto-correctness",
        [ Alcotest.test_case "poly-compare violation" `Quick
            test_poly_compare_violation;
          Alcotest.test_case "poly-compare clean" `Quick test_poly_compare_clean;
          Alcotest.test_case "obj-magic violation" `Quick
            test_obj_magic_violation;
          Alcotest.test_case "obj-magic clean" `Quick test_obj_magic_clean ] );
      ( "lock-discipline",
        [ Alcotest.test_case "violation" `Quick test_lock_violation;
          Alcotest.test_case "clean" `Quick test_lock_clean ] );
      ( "interproc-taint",
        [ Alcotest.test_case "two-hop violation" `Quick
            test_interproc_taint_violation;
          Alcotest.test_case "constructor seed" `Quick
            test_interproc_taint_constructor_seed;
          Alcotest.test_case "clean" `Quick test_interproc_taint_clean;
          Alcotest.test_case "tenant secret names" `Quick
            test_interproc_taint_tenant_names;
          Alcotest.test_case "hmac sanitizer" `Quick
            test_interproc_taint_hmac_sanitizer ] );
      ( "lock-order",
        [ Alcotest.test_case "cycle" `Quick test_lock_order_violation;
          Alcotest.test_case "consistent order" `Quick test_lock_order_clean ]
      );
      ( "lock-blocking",
        [ Alcotest.test_case "direct" `Quick test_lock_blocking_direct;
          Alcotest.test_case "through wrapper" `Quick
            test_lock_blocking_through_wrapper;
          Alcotest.test_case "clean" `Quick test_lock_blocking_clean;
          Alcotest.test_case "tenant scope" `Quick
            test_lock_blocking_tenant_scope ] );
      ( "wire-symmetry",
        [ Alcotest.test_case "encoder-only tag" `Quick
            test_wire_symmetry_violation;
          Alcotest.test_case "version gate" `Quick test_wire_version_gate;
          Alcotest.test_case "v8 response header" `Quick
            test_wire_response_header_symmetric;
          Alcotest.test_case "clean" `Quick test_wire_symmetry_clean ] );
      ( "meta",
        [ Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "interface" `Quick test_interface_scanned ] );
      ( "suppressions",
        [ Alcotest.test_case "match drops finding" `Quick test_suppress_match;
          Alcotest.test_case "missing justification" `Quick
            test_suppress_missing_justification;
          Alcotest.test_case "malformed line" `Quick test_suppress_malformed;
          Alcotest.test_case "unused entry" `Quick test_suppress_unused;
          Alcotest.test_case "anchored match" `Quick
            test_suppress_anchored_match;
          Alcotest.test_case "anchored survives drift" `Quick
            test_suppress_anchored_drift;
          Alcotest.test_case "unknown rule id" `Quick
            test_suppress_unknown_rule ] );
      ( "driver",
        [ Alcotest.test_case "end to end" `Quick test_driver_end_to_end ] );
      ( "cli",
        [ Alcotest.test_case "exit codes" `Quick test_cli_exit_codes;
          Alcotest.test_case "usage errors" `Quick test_cli_usage_errors;
          Alcotest.test_case "list rules" `Quick test_cli_list_rules;
          Alcotest.test_case "json output" `Quick test_cli_json;
          Alcotest.test_case "sarif output" `Quick test_cli_sarif ] ) ]
