(* The SQL expression walkers, pinned through what they answer: the
   syntactic predicates of [Sql_ast] and [Rewrite], the executor's column
   and aggregate walks (through query answers), the proxy's
   decryption-elision walk (through proxy answers that must match
   plaintext), the coordinator's IN (SELECT …) resolution (through a
   two-shard scatter-gather), and the exact statements the single-node
   fetch seam runs for a fixed list of TPC-H instances. *)

open Mope_db
open Mope_workload
open Mope_system
open Sql_ast

let rows_of (r : Exec.result) =
  List.map (fun row -> Array.to_list (Array.map Value.to_string row)) r.Exec.rows

(* ------------------------------------------------------------------ *)
(* Syntactic predicates *)

let lit i = Lit (Value.Int i)
let yes = Lit (Value.Bool true)
let no = Lit (Value.Bool false)

(* A statement holding an aggregate and the column [x]: inside an
   IN (SELECT …) both belong to the inner scope, not the expression. *)
let inner =
  Sql_parser.parse "SELECT max(x) FROM t WHERE x > 1 GROUP BY x HAVING sum(x) > 0"

(* One context per child position of every constructor with children. *)
let contexts =
  [ ("binop left", fun h -> Binop (Add, h, lit 1));
    ("binop right", fun h -> Binop (Mul, lit 2, h));
    ("cmp left", fun h -> Cmp (Lt, h, lit 3));
    ("cmp right", fun h -> Cmp (Ge, lit 3, h));
    ("and left", fun h -> And (h, yes));
    ("and right", fun h -> And (yes, h));
    ("or left", fun h -> Or (h, no));
    ("or right", fun h -> Or (no, h));
    ("not", fun h -> Not h);
    ("between value", fun h -> Between (h, lit 0, lit 9));
    ("between low", fun h -> Between (lit 4, h, lit 9));
    ("between high", fun h -> Between (lit 4, lit 0, h));
    ("in-list value", fun h -> In_list (h, [ lit 1; lit 2 ]));
    ("in-list item", fun h -> In_list (lit 1, [ lit 2; h ]));
    ("in-select value", fun h -> In_select (h, inner));
    ("like", fun h -> Like (h, "a%"));
    ("case condition", fun h -> Case ([ (no, lit 1); (h, lit 2) ], None));
    ("case result", fun h -> Case ([ (no, lit 1); (yes, h) ], None));
    ("case else", fun h -> Case ([ (no, lit 1) ], Some h));
    ("is null", fun h -> Is_null h);
    ("aggregate argument", fun h -> Agg (Sum, Some h)) ]

(* Every constructor at once; the aggregate and [x] of [inner] stay out. *)
let everything =
  Case
    ( [ ( Not
            (Or
               ( And
                   ( Cmp (Lt, Binop (Add, Col (Some "q", "a"), lit 1), lit 2),
                     Between (Col (None, "b"), lit 1, lit 3) ),
                 Or
                   ( In_list (Col (None, "c"), [ lit 1; lit 2 ]),
                     Or
                       ( Like (Col (None, "s"), "x%"),
                         Or
                           ( Is_null (Col (None, "d")),
                             In_select (Col (None, "e"), inner) ) ) ) )),
          Agg (Count, None) ) ],
      Some (lit 0) )

let check label expected got = Alcotest.(check bool) label expected got

let test_has_aggregate () =
  check "literal" false (has_aggregate (lit 1));
  check "column" false (has_aggregate (Col (None, "a")));
  check "count(*)" true (has_aggregate (Agg (Count, None)));
  List.iter
    (fun (name, ctx) ->
      check (name ^ ": aggregate below") true (has_aggregate (ctx (Agg (Count, None))));
      check (name ^ ": nested twice") true
        (has_aggregate (Not (ctx (Agg (Max, Some (lit 1)))))))
    contexts;
  List.iter
    (fun (name, ctx) ->
      if name <> "aggregate argument" then
        check (name ^ ": no aggregate") false (has_aggregate (ctx (Col (None, "a")))))
    contexts;
  check "aggregate only inside IN (SELECT …)" false
    (has_aggregate (In_select (lit 1, inner)));
  check "every constructor" true (has_aggregate everything);
  let without_count = function
    | Case (arms, e) -> Case (List.map (fun (c, _) -> (c, lit 1)) arms, e)
    | e -> e
  in
  check "every constructor, count(*) replaced" false
    (has_aggregate (without_count everything))

let test_has_subquery () =
  let sub = In_select (Col (None, "k"), inner) in
  check "literal" false (has_subquery (lit 1));
  check "count(*)" false (has_subquery (Agg (Count, None)));
  check "IN (SELECT …)" true (has_subquery sub);
  List.iter
    (fun (name, ctx) ->
      check (name ^ ": subquery below") true (has_subquery (ctx sub));
      check (name ^ ": nested twice") true (has_subquery (Not (ctx sub))))
    contexts;
  List.iter
    (fun (name, ctx) ->
      if name <> "in-select value" then
        check (name ^ ": no subquery") false (has_subquery (ctx (Col (None, "a")))))
    contexts;
  check "every constructor" true (has_subquery everything)

let test_references_column () =
  let refs e = Rewrite.references_column e ~column:"x" in
  check "literal" false (refs (lit 1));
  check "column" true (refs (Col (None, "x")));
  check "qualified column" true (refs (Col (Some "t", "x")));
  check "other column" false (refs (Col (Some "x", "y")));
  List.iter
    (fun (name, ctx) ->
      check (name ^ ": column below") true (refs (ctx (Col (Some "t", "x"))));
      check (name ^ ": nested twice") true (refs (Not (ctx (Col (None, "x"))))))
    contexts;
  List.iter
    (fun (name, ctx) ->
      check (name ^ ": other column") false (refs (ctx (Col (None, "y")))))
    contexts;
  check "column only inside IN (SELECT …)" false
    (refs (In_select (Col (None, "y"), inner)));
  check "every constructor: e" true (Rewrite.references_column everything ~column:"e");
  check "every constructor: d" true (Rewrite.references_column everything ~column:"d");
  check "every constructor: a" true (Rewrite.references_column everything ~column:"a");
  check "every constructor: x" false (refs everything)

(* ------------------------------------------------------------------ *)
(* The executor's walkers, through answers *)

let small_db () =
  let db = Database.create () in
  List.iter
    (fun sql -> ignore (Database.execute db sql))
    [ "CREATE TABLE t (g INTEGER, v INTEGER, s TEXT)";
      "INSERT INTO t VALUES (1, 10, 'ab'), (1, 20, 'bc'), (2, 5, 'cd'), (2, 7, 'de'), \
       (3, 100, 'ef')";
      "CREATE TABLE u (k INTEGER, w INTEGER)";
      "INSERT INTO u VALUES (1, 3), (2, 8), (3, 50)" ];
  db

let expect_rows db cases =
  List.iter
    (fun (sql, expected) ->
      Alcotest.(check (list (list string)))
        sql expected
        (rows_of (Database.query db sql)))
    cases

(* Per group: g = 1 has v 10, 20 ('ab', 'bc'); g = 2 has 5, 7 ('cd',
   'de'); g = 3 has 100 ('ef'). *)
let test_exec_aggregates () =
  let db = small_db () in
  expect_rows db
    [ (* projections *)
      ( "SELECT g, CASE WHEN sum(v) > 20 THEN 'big' ELSE 'small' END FROM t GROUP BY g \
         ORDER BY g",
        [ [ "1"; "big" ]; [ "2"; "small" ]; [ "3"; "big" ] ] );
      ( "SELECT g, sum(v) BETWEEN 10 AND 50 FROM t GROUP BY g ORDER BY g",
        [ [ "1"; "true" ]; [ "2"; "true" ]; [ "3"; "false" ] ] );
      ( "SELECT g, 6 BETWEEN min(v) AND max(v) FROM t GROUP BY g ORDER BY g",
        [ [ "1"; "false" ]; [ "2"; "true" ]; [ "3"; "false" ] ] );
      ( "SELECT g, count(*) IN (1, 3) FROM t GROUP BY g ORDER BY g",
        [ [ "1"; "false" ]; [ "2"; "false" ]; [ "3"; "true" ] ] );
      ( "SELECT g, 12 IN (0, sum(v)) FROM t GROUP BY g ORDER BY g",
        [ [ "1"; "false" ]; [ "2"; "true" ]; [ "3"; "false" ] ] );
      ( "SELECT g, max(v) - min(v) FROM t GROUP BY g ORDER BY g",
        [ [ "1"; "10" ]; [ "2"; "2" ]; [ "3"; "0" ] ] );
      ( "SELECT g, max(s) LIKE 'b%' FROM t GROUP BY g ORDER BY g",
        [ [ "1"; "true" ]; [ "2"; "false" ]; [ "3"; "false" ] ] );
      (* a global group: the aggregate sits below another constructor *)
      ( "SELECT CASE WHEN count(*) > 3 THEN sum(v) ELSE 0 END FROM t",
        [ [ "142" ] ] );
      ("SELECT CASE WHEN 1 = 0 THEN 0 ELSE min(v) END FROM t", [ [ "5" ] ]);
      ("SELECT sum(v) + 1 FROM t", [ [ "143" ] ]);
      ("SELECT max(v) BETWEEN 1 AND 5 FROM t", [ [ "false" ] ]);
      ("SELECT 2 IN (1, min(v) - 3) FROM t", [ [ "true" ] ]);
      ("SELECT NOT (min(s) LIKE 'a%') FROM t", [ [ "false" ] ]);
      ("SELECT max(v) IS NULL OR count(*) = 5 FROM t", [ [ "true" ] ]);
      ("SELECT count(*) > 4 AND max(v) < 100 FROM t", [ [ "false" ] ]);
      (* HAVING *)
      ( "SELECT g FROM t GROUP BY g HAVING CASE WHEN min(v) < 6 THEN 0 ELSE 1 END = 1 \
         ORDER BY g",
        [ [ "1" ]; [ "3" ] ] );
      ( "SELECT g FROM t GROUP BY g HAVING avg(v) BETWEEN 5 AND 20 ORDER BY g",
        [ [ "1" ]; [ "2" ] ] );
      ( "SELECT g FROM t GROUP BY g HAVING count(*) IN (2) ORDER BY g",
        [ [ "1" ]; [ "2" ] ] );
      ( "SELECT g FROM t GROUP BY g HAVING sum(v) * 2 > 50 ORDER BY g",
        [ [ "1" ]; [ "3" ] ] );
      ( "SELECT g FROM t GROUP BY g HAVING NOT (max(s) LIKE 'b%') AND (sum(v) IS NULL OR \
         count(*) > 1) ORDER BY g",
        [ [ "2" ] ] );
      (* ORDER BY *)
      ( "SELECT g FROM t GROUP BY g ORDER BY CASE WHEN sum(v) IN (12, 100) THEN 0 ELSE 1 \
         END, g DESC",
        [ [ "3" ]; [ "2" ]; [ "1" ] ] );
      ( "SELECT g FROM t GROUP BY g ORDER BY sum(v) BETWEEN 10 AND 50, 0 - min(v)",
        [ [ "3" ]; [ "1" ]; [ "2" ] ] );
      ( "SELECT g FROM t GROUP BY g ORDER BY max(v) - min(v)",
        [ [ "3" ]; [ "2" ]; [ "1" ] ] ) ]

(* Two tables and a residual predicate: the only reference to [u] sits
   below another constructor, so classifying the conjunct as a filter on
   [t] alone would fail to resolve it. *)
let test_exec_residuals () =
  let db = small_db () in
  let q pred = "SELECT t.v, u.k FROM t, u WHERE " ^ pred ^ " ORDER BY u.k, t.v" in
  expect_rows db
    [ ( q "t.v > CASE WHEN u.w > 5 THEN 60 ELSE 15 END",
        [ [ "20"; "1" ]; [ "100"; "1" ]; [ "100"; "2" ]; [ "100"; "3" ] ] );
      ( q "t.v BETWEEN u.w AND 10",
        [ [ "5"; "1" ]; [ "7"; "1" ]; [ "10"; "1" ]; [ "10"; "2" ] ] );
      ( q "t.v IN (u.w + 2, 7)",
        [ [ "5"; "1" ]; [ "7"; "1" ]; [ "7"; "2" ]; [ "10"; "2" ]; [ "7"; "3" ] ] );
      ( q "NOT (u.w < t.v)",
        [ [ "5"; "2" ]; [ "7"; "2" ]; [ "5"; "3" ]; [ "7"; "3" ]; [ "10"; "3" ];
          [ "20"; "3" ] ] );
      ( q "t.s LIKE 'a%' OR u.w IS NULL",
        [ [ "10"; "1" ]; [ "10"; "2" ]; [ "10"; "3" ] ] ) ]

(* ------------------------------------------------------------------ *)
(* The proxy's decryption-elision walk, through answers *)

let testbed = lazy (Testbed.load ~sf:0.001 ~seed:21L ())

let ceiling = Some Tpch.date_domain

let date = Date.of_string

(* Each statement reads a DET column only below one kind of constructor,
   in a projection, GROUP BY or ORDER BY expression: a column the walk
   misses is decrypted as [Null] and changes the answer. *)
let lineitem_1994 =
  let counted pred = ("SELECT sum(CASE WHEN " ^ pred ^ " THEN 1 ELSE 0 END)", "") in
  List.map
    (fun (select, rest) ->
      select
      ^ " FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' AND \
         l_shipdate <= DATE '1994-12-31'"
      ^ rest)
    [ ("SELECT sum(l_orderkey)", "");
      ("SELECT sum(l_quantity * l_partkey)", "");
      ("SELECT sum(CASE WHEN l_quantity < 10 THEN l_partkey ELSE 0 END)", "");
      ("SELECT sum(CASE WHEN l_quantity < 10 THEN 0 ELSE l_partkey END)", "");
      counted "l_orderkey < 3000";
      counted "l_partkey BETWEEN 1 AND 100";
      counted "50 BETWEEN l_partkey AND 1000";
      counted "50 BETWEEN 0 AND l_partkey";
      counted "l_partkey IN (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)";
      counted "7 IN (0, l_partkey)";
      counted "l_orderkey IS NULL";
      ( "SELECT count(*)",
        " GROUP BY l_quantity < 25 AND l_partkey < 100 ORDER BY count(*)" );
      ( "SELECT count(*)",
        " GROUP BY l_quantity > 49 OR l_orderkey < 1000 ORDER BY count(*)" );
      ("SELECT count(*)", " GROUP BY NOT (l_orderkey < 3000) ORDER BY count(*)");
      ( "SELECT l_extendedprice, l_quantity",
        " ORDER BY l_orderkey DESC, l_extendedprice LIMIT 10" );
      ( "SELECT l_extendedprice, l_quantity",
        " ORDER BY 0 - l_partkey, l_extendedprice LIMIT 10" );
      ( "SELECT l_extendedprice, l_quantity",
        " ORDER BY CASE WHEN l_quantity < 25 THEN l_orderkey ELSE 0 - l_orderkey END, \
         l_extendedprice LIMIT 10" ) ]

let orders_1995q1 =
  List.map
    (fun (select, rest) ->
      select
      ^ " FROM orders WHERE o_orderdate >= DATE '1995-01-01' AND \
         o_orderdate <= DATE '1995-03-31'"
      ^ rest)
    [ ( "SELECT o_orderpriority, sum(o_orderkey)",
        " GROUP BY o_orderpriority ORDER BY o_orderpriority" );
      ("SELECT o_totalprice", " ORDER BY o_orderkey LIMIT 10");
      ("SELECT sum(CASE WHEN o_orderkey IS NULL THEN 1 ELSE 0 END)", "") ]

let agree ~label proxy ~date_column ~lo ~hi sql =
  let tb = Lazy.force testbed in
  let plain = Database.query (Testbed.plain tb) sql in
  let got =
    Proxy.execute proxy ~sql ~date_column ~date_lo:(date lo) ~date_hi:(date hi)
  in
  Alcotest.(check (list (list string)))
    (label ^ ": " ^ sql)
    (rows_of plain) (rows_of got)

let test_proxy_referenced_columns () =
  let tb = Lazy.force testbed in
  let proxy template seed =
    Testbed.proxy tb ~template ~rho:ceiling ~batch_size:25 ~seed ()
  in
  let q6 = proxy Tpch_queries.Q6 17L and q4 = proxy Tpch_queries.Q4 19L in
  List.iter
    (agree ~label:"Q6 proxy" q6 ~date_column:"l_shipdate" ~lo:"1994-01-01"
       ~hi:"1994-12-31")
    lineitem_1994;
  List.iter
    (agree ~label:"Q4 proxy" q4 ~date_column:"o_orderdate" ~lo:"1995-01-01"
       ~hi:"1995-03-31")
    orders_1995q1

(* ------------------------------------------------------------------ *)
(* The coordinator's IN (SELECT …) resolution, through a K = 2 cluster *)

let with_tmp_dir f =
  let dir = Filename.temp_file "mope_walkers_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> Sys.remove (Filename.concat dir name))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* Each shard holds only its slice of [lineitem], so a subquery the
   coordinator fails to resolve up front runs per shard on partial data. *)
let test_coordinator_resolution () =
  let tb = Lazy.force testbed in
  let enc = Testbed.encrypted_for tb ~rho:ceiling in
  let late =
    "o_orderkey IN (SELECT l_orderkey FROM lineitem WHERE l_commitdate < l_receiptdate)"
  in
  let statements =
    List.map
      (fun pred ->
        "SELECT o_orderpriority, count(*) FROM orders WHERE o_orderdate >= DATE \
         '1995-01-01' AND o_orderdate <= DATE '1995-03-31' AND " ^ pred
        ^ " GROUP BY o_orderpriority ORDER BY o_orderpriority")
      [ "NOT (" ^ late ^ ")";
        "(" ^ late ^ " OR o_orderpriority = '1-URGENT')";
        "CASE WHEN " ^ late ^ " THEN 1 ELSE 0 END = 1" ]
  in
  with_tmp_dir (fun dir ->
      let topo =
        Mope_cluster.Topology.launch ~enc ~shards:2 ~replicas:0 ~wal_dir:dir ()
      in
      Fun.protect
        ~finally:(fun () -> Mope_cluster.Topology.shutdown topo)
        (fun () ->
          let proxy =
            Testbed.proxy tb ~template:Tpch_queries.Q4 ~rho:ceiling ~batch_size:25
              ~fetch_many:(Mope_cluster.Topology.fetch_many topo) ~seed:19L ()
          in
          List.iter
            (agree ~label:"K = 2" proxy ~date_column:"o_orderdate" ~lo:"1995-01-01"
               ~hi:"1995-03-31")
            statements))

(* ------------------------------------------------------------------ *)
(* The served fetch plan *)

(* A fetch seam that renders every statement the single-node seam would
   run, and answers each with no rows. *)
let recording log ~date_column ~batches ~template =
  List.map
    (fun segments ->
      Buffer.add_string log
        (select_to_string
           (Rewrite.add_conjunct template
              (Rewrite.cipher_ranges_expr ~column:date_column ~segments)));
      Buffer.add_char log '\n';
      { Exec.columns = []; rows = [] })
    batches

let test_fetch_plan () =
  let tb = Lazy.force testbed in
  let rng = Mope_stats.Rng.create 71L in
  let instances =
    List.concat_map
      (fun template ->
        List.init 3 (fun _ -> Tpch_queries.random_instance rng template))
      [ Tpch_queries.Q6; Tpch_queries.Q4 ]
  in
  let log = Buffer.create 65536 in
  List.iter
    (fun (label, rho) ->
      List.iter
        (fun (template, seed) ->
          let proxy =
            Testbed.proxy tb ~template ~rho ~batch_size:25
              ~fetch_many:(recording log) ~seed ()
          in
          List.iter
            (fun inst ->
              if inst.Tpch_queries.template = template then begin
                Buffer.add_string log (label ^ " " ^ inst.Tpch_queries.sql ^ "\n");
                ignore (Testbed.run_encrypted proxy inst)
              end)
            instances)
        [ (Tpch_queries.Q6, 17L); (Tpch_queries.Q4, 19L) ])
    [ ("rho=M", ceiling); ("rho=61", Some 61); ("QueryU", None) ];
  Alcotest.(check string) "SHA-256 of every fetched statement"
    "aaf5d150a4c80937abfb57c48f238a0bb4c1b9616c4e8a6692bb961ed3b7ae31"
    (Mope_crypto.Sha256.digest_hex (Buffer.contents log))

let () =
  Alcotest.run "walkers"
    [ ( "walkers",
        [ Alcotest.test_case "has_aggregate" `Quick test_has_aggregate;
          Alcotest.test_case "has_subquery" `Quick test_has_subquery;
          Alcotest.test_case "references_column" `Quick test_references_column;
          Alcotest.test_case "executor aggregates" `Quick test_exec_aggregates;
          Alcotest.test_case "executor residuals" `Quick test_exec_residuals;
          Alcotest.test_case "proxy referenced columns" `Quick
            test_proxy_referenced_columns;
          Alcotest.test_case "coordinator IN (SELECT) resolution" `Quick
            test_coordinator_resolution;
          Alcotest.test_case "served fetch plan" `Quick test_fetch_plan ] ) ]
