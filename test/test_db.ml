(* Tests for lib/db: dates, values, B+-tree (model-based), interval algebra,
   SQL lexer/parser (round-trip), expression evaluation, and the
   planner/executor against a brute-force oracle. *)

open Mope_db

(* ------------------------------------------------------------------ *)
(* Date *)

let test_date_epoch () =
  Alcotest.(check int) "epoch" 0 (Date.of_ymd 1970 1 1);
  Alcotest.(check int) "next day" 1 (Date.of_ymd 1970 1 2);
  Alcotest.(check int) "before" (-1) (Date.of_ymd 1969 12 31)

let test_date_known_values () =
  Alcotest.(check int) "2000-03-01" 11017 (Date.of_ymd 2000 3 1);
  Alcotest.(check string) "render" "1994-01-01" (Date.to_string (Date.of_ymd 1994 1 1));
  Alcotest.(check int) "parse" (Date.of_ymd 1992 12 31) (Date.of_string "1992-12-31")

let test_date_roundtrip =
  QCheck.Test.make ~name:"ymd -> t -> ymd roundtrip" ~count:1000
    QCheck.(triple (int_range 1900 2100) (int_range 1 12) (int_range 1 28))
    (fun (y, m, d) ->
      let t = Date.of_ymd y m d in
      Date.to_ymd t = (y, m, d) && Date.of_string (Date.to_string t) = t)

let test_date_sequential =
  QCheck.Test.make ~name:"consecutive days differ by 1" ~count:300
    QCheck.(int_range (-100_000) 100_000)
    (fun t ->
      let y, m, d = Date.to_ymd t in
      let y', m', d' = Date.to_ymd (t + 1) in
      (* the next day is either d+1 in the same month or the 1st of a new one *)
      (y' = y && m' = m && d' = d + 1) || (d' = 1 && (m' = m + 1 || (m' = 1 && y' = y + 1))))

let test_date_leap_years () =
  Alcotest.(check bool) "2000 leap" true (Date.is_leap 2000);
  Alcotest.(check bool) "1900 not" false (Date.is_leap 1900);
  Alcotest.(check bool) "1996 leap" true (Date.is_leap 1996);
  Alcotest.(check int) "feb 1996" 29 (Date.days_in_month 1996 2);
  Alcotest.(check int) "feb 1900" 28 (Date.days_in_month 1900 2)

let test_date_add_months_clamps () =
  let jan31 = Date.of_ymd 1994 1 31 in
  Alcotest.(check string) "jan + 1m" "1994-02-28" (Date.to_string (Date.add_months jan31 1));
  Alcotest.(check string) "jan + 13m" "1995-02-28" (Date.to_string (Date.add_months jan31 13));
  Alcotest.(check string) "backwards" "1993-11-30"
    (Date.to_string (Date.add_months (Date.of_ymd 1993 12 31) (-1)));
  Alcotest.(check string) "add year" "1995-01-31" (Date.to_string (Date.add_years jan31 1))

let test_date_invalid () =
  Alcotest.check_raises "month 13" (Invalid_argument "Date.of_ymd: month") (fun () ->
      ignore (Date.of_ymd 1994 13 1));
  Alcotest.check_raises "feb 30" (Invalid_argument "Date.of_ymd: day") (fun () ->
      ignore (Date.of_ymd 1994 2 30));
  Alcotest.check_raises "garbage" (Invalid_argument "Date.of_string: \"199x-01-01\"")
    (fun () -> ignore (Date.of_string "199x-01-01"))

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_compare () =
  Alcotest.(check int) "int" (-1) (Value.compare (Value.Int 1) (Value.Int 2));
  Alcotest.(check int) "mixed" 0 (Value.compare (Value.Int 2) (Value.Float 2.0));
  Alcotest.(check int) "null first" (-1) (Value.compare Value.Null (Value.Int 0));
  Alcotest.(check bool) "str" true (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  Alcotest.(check bool) "date" true
    (Value.compare (Value.Date 10) (Value.Date 20) < 0)

(* An independent LIKE oracle: O(nm) dynamic programming. *)
let like_oracle text pattern =
  let n = String.length text and m = String.length pattern in
  let dp = Array.make_matrix (n + 1) (m + 1) false in
  dp.(0).(0) <- true;
  for j = 1 to m do
    if pattern.[j - 1] = '%' then dp.(0).(j) <- dp.(0).(j - 1)
  done;
  for i = 1 to n do
    for j = 1 to m do
      dp.(i).(j) <-
        (match pattern.[j - 1] with
        | '%' -> dp.(i).(j - 1) || dp.(i - 1).(j)
        | '_' -> dp.(i - 1).(j - 1)
        | c -> c = text.[i - 1] && dp.(i - 1).(j - 1))
    done
  done;
  dp.(n).(m)

let like_gen =
  QCheck.Gen.(
    let char_gen = oneofl [ 'a'; 'b'; 'c'; '%'; '_' ] in
    pair
      (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 0 8))
      (string_size ~gen:char_gen (int_range 0 6)))

let test_value_like =
  QCheck.Test.make ~name:"LIKE matches DP oracle" ~count:2000
    (QCheck.make like_gen ~print:(fun (t, p) -> Printf.sprintf "%S ~ %S" t p))
    (fun (text, pattern) ->
      Value.like (Value.Str text) ~pattern = like_oracle text pattern)

let test_value_like_non_string () =
  Alcotest.(check bool) "int never matches" false (Value.like (Value.Int 3) ~pattern:"%")

let test_value_coercions () =
  Alcotest.(check (float 0.0)) "int" 3.0 (Value.to_float (Value.Int 3));
  Alcotest.(check int) "date payload" 42 (Value.to_int (Value.Date 42));
  Alcotest.check_raises "str to float" (Invalid_argument "Value.to_float: x")
    (fun () -> ignore (Value.to_float (Value.Str "x")))

(* ------------------------------------------------------------------ *)
(* Schema *)

let test_schema_basics () =
  let s =
    Schema.make [ { Schema.name = "a"; ty = Value.TInt }; { Schema.name = "b"; ty = Value.TStr } ]
  in
  Alcotest.(check int) "arity" 2 (Schema.arity s);
  Alcotest.(check int) "index" 1 (Schema.index_of s "b");
  Alcotest.(check bool) "row ok" true (Schema.check_row s [| Value.Int 1; Value.Str "x" |]);
  Alcotest.(check bool) "null ok" true (Schema.check_row s [| Value.Null; Value.Str "x" |]);
  Alcotest.(check bool) "wrong type" false (Schema.check_row s [| Value.Str "x"; Value.Str "y" |]);
  Alcotest.(check bool) "wrong arity" false (Schema.check_row s [| Value.Int 1 |])

let test_schema_duplicate () =
  Alcotest.check_raises "dup" (Invalid_argument "Schema.make: duplicate column a")
    (fun () ->
      ignore
        (Schema.make
           [ { Schema.name = "a"; ty = Value.TInt }; { Schema.name = "a"; ty = Value.TStr } ]))

(* ------------------------------------------------------------------ *)
(* Btree: model-based testing against a sorted association list *)

type op = Insert of int * int | Delete of int * int | Range of int * int

let op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun k v -> Insert (k, v)) (int_range 0 200) (int_range 0 50));
        (2, map2 (fun k v -> Delete (k, v)) (int_range 0 200) (int_range 0 50));
        (3, map2 (fun a b -> Range (min a b, max a b)) (int_range 0 200) (int_range 0 200)) ])

let print_op = function
  | Insert (k, v) -> Printf.sprintf "I(%d,%d)" k v
  | Delete (k, v) -> Printf.sprintf "D(%d,%d)" k v
  | Range (a, b) -> Printf.sprintf "R(%d,%d)" a b

let test_btree_model =
  QCheck.Test.make ~name:"btree matches sorted-list model" ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 400) op_gen)
       ~print:(fun ops -> String.concat ";" (List.map print_op ops)))
    (fun ops ->
      let t = Btree.create () in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Insert (k, v) ->
            Btree.insert t ~key:k ~value:v;
            model := (k, v) :: !model
          | Delete (k, v) ->
            let removed = Btree.delete t ~key:k ~value:v in
            let present = List.mem (k, v) !model in
            if removed <> present then ok := false;
            if present then begin
              let dropped = ref false in
              model :=
                List.filter
                  (fun e ->
                    if (not !dropped) && e = (k, v) then begin
                      dropped := true;
                      false
                    end
                    else true)
                  !model
            end
          | Range (a, b) ->
            let got = Btree.range_list t ~lo:a ~hi:b in
            let expected =
              List.filter (fun (k, _) -> a <= k && k <= b) !model
              |> List.sort compare
            in
            if List.sort compare got <> expected then ok := false)
        ops;
      if Btree.count t <> List.length !model then ok := false;
      !ok)

let test_btree_bulk_sorted_scan () =
  let t = Btree.create () in
  let rng = Mope_stats.Rng.create 1L in
  let n = 50_000 in
  for i = 0 to n - 1 do
    Btree.insert t ~key:(Mope_stats.Rng.int rng 10_000) ~value:i
  done;
  Btree.check_invariants t;
  Alcotest.(check int) "count" n (Btree.count t);
  let keys = List.map fst (Btree.range_list t ~lo:min_int ~hi:max_int) in
  Alcotest.(check int) "scan count" n (List.length keys);
  Alcotest.(check bool) "sorted" true (List.sort Int.compare keys = keys);
  Alcotest.(check bool) "height reasonable" true (Btree.height t <= 5)

let test_btree_duplicates () =
  let t = Btree.create () in
  for v = 0 to 99 do
    Btree.insert t ~key:7 ~value:v
  done;
  Alcotest.(check int) "all dups found" 100 (List.length (Btree.find_all t 7));
  Alcotest.(check bool) "mem" true (Btree.mem t 7);
  Alcotest.(check bool) "not mem" false (Btree.mem t 8)

let test_btree_min_max () =
  let t = Btree.create () in
  Alcotest.(check (option int)) "empty min" None (Btree.min_key t);
  Btree.insert t ~key:5 ~value:0;
  Btree.insert t ~key:2 ~value:0;
  Btree.insert t ~key:9 ~value:0;
  Alcotest.(check (option int)) "min" (Some 2) (Btree.min_key t);
  Alcotest.(check (option int)) "max" (Some 9) (Btree.max_key t)

let test_btree_empty_range () =
  let t = Btree.create () in
  Btree.insert t ~key:10 ~value:1;
  Alcotest.(check (list (pair int int))) "miss below" [] (Btree.range_list t ~lo:0 ~hi:9);
  Alcotest.(check (list (pair int int))) "miss above" [] (Btree.range_list t ~lo:11 ~hi:20);
  Alcotest.(check (list (pair int int))) "inverted" [] (Btree.range_list t ~lo:5 ~hi:4)

(* ------------------------------------------------------------------ *)
(* Ranges *)

let universe = 60

let member_brute intervals x =
  List.exists (fun (lo, hi) -> lo <= x && x <= hi) intervals

let intervals_gen =
  QCheck.Gen.(
    list_size (int_range 0 6)
      (map2 (fun a b -> (min a b, max a b)) (int_range 0 59) (int_range 0 59)))

let arb_intervals =
  QCheck.make intervals_gen ~print:(fun l ->
      String.concat "," (List.map (fun (a, b) -> Printf.sprintf "[%d,%d]" a b) l))

let test_ranges_normalize =
  QCheck.Test.make ~name:"normalize preserves membership, sorted disjoint" ~count:500
    arb_intervals
    (fun intervals ->
      let n = Ranges.normalize intervals in
      let sorted_disjoint =
        let rec check = function
          | (l1, h1) :: ((l2, _) :: _ as rest) -> l1 <= h1 && h1 + 1 < l2 && check rest
          | [ (l, h) ] -> l <= h
          | [] -> true
        in
        check (Ranges.intervals n)
      in
      sorted_disjoint
      && List.for_all
           (fun x -> member_brute intervals x = Ranges.mem n x)
           (List.init universe Fun.id))

let test_ranges_union_intersect =
  QCheck.Test.make ~name:"union/intersect match brute force" ~count:500
    (QCheck.pair arb_intervals arb_intervals)
    (fun (a, b) ->
      let na = Ranges.normalize a and nb = Ranges.normalize b in
      let u = Ranges.union na nb and i = Ranges.intersect na nb in
      List.for_all
        (fun x ->
          Ranges.mem u x = (member_brute a x || member_brute b x)
          && Ranges.mem i x = (member_brute a x && member_brute b x))
        (List.init universe Fun.id))

let test_ranges_cardinal () =
  Alcotest.(check int) "merged" 10 (Ranges.cardinal (Ranges.normalize [ (1, 5); (4, 10) ]));
  Alcotest.(check int) "adjacent merge" 1
    (List.length (Ranges.intervals (Ranges.normalize [ (1, 3); (4, 9) ])));
  Alcotest.(check int) "empty" 0 (Ranges.cardinal Ranges.empty)

let test_ranges_edges () =
  let intervals l = Ranges.intervals (Ranges.normalize l) in
  (* Adjacent but not overlapping: [1,3] touches [4,9] end-to-end and must
     merge into one interval; a one-point gap must stay two. *)
  Alcotest.(check (list (pair int int))) "adjacent merge" [ (1, 9) ]
    (intervals [ (1, 3); (4, 9) ]);
  Alcotest.(check (list (pair int int))) "gap preserved" [ (1, 3); (5, 9) ]
    (intervals [ (1, 3); (5, 9) ]);
  (* Single-point intervals: duplicates collapse; a chain of adjacent
     points merges into one run regardless of input order. *)
  Alcotest.(check (list (pair int int))) "single point" [ (5, 5) ]
    (intervals [ (5, 5); (5, 5) ]);
  Alcotest.(check (list (pair int int))) "point chain" [ (5, 7) ]
    (intervals [ (7, 7); (5, 5); (6, 6) ]);
  Alcotest.(check (list (pair int int))) "point bridges two runs" [ (1, 7) ]
    (intervals [ (1, 3); (5, 7); (4, 4) ]);
  (* A segment straddling a shard boundary (30, in a 60-wide space split in
     two): normalization keeps it whole, and the per-shard clips recombine
     to exactly the original — what Shard_map.route relies on. *)
  let n = Ranges.normalize [ (25, 34) ] in
  Alcotest.(check (list (pair int int))) "straddles the boundary" [ (25, 34) ]
    (Ranges.intervals n);
  Alcotest.(check (list (pair int int))) "left clip" [ (25, 29) ]
    (Ranges.intervals (Ranges.intersect n (Ranges.normalize [ (0, 29) ])));
  Alcotest.(check (list (pair int int))) "right clip" [ (30, 34) ]
    (Ranges.intervals (Ranges.intersect n (Ranges.normalize [ (30, 59) ])));
  Alcotest.(check int) "clips cover every point" (Ranges.cardinal n)
    (Ranges.cardinal (Ranges.intersect n (Ranges.normalize [ (0, 29) ]))
    + Ranges.cardinal (Ranges.intersect n (Ranges.normalize [ (30, 59) ])))

(* ------------------------------------------------------------------ *)
(* Lexer / parser *)

let test_lexer_basics () =
  let open Sql_lexer in
  Alcotest.(check bool) "tokens" true
    (tokenize "SELECT a.b, 'it''s' FROM t WHERE x >= 1.5e2"
    = [ KEYWORD "SELECT"; IDENT "a"; SYMBOL "."; IDENT "b"; SYMBOL ",";
        STRING "it's"; KEYWORD "FROM"; IDENT "t"; KEYWORD "WHERE"; IDENT "x";
        SYMBOL ">="; FLOAT 150.0; EOF ])

let test_lexer_errors () =
  (match Sql_lexer.tokenize "SELECT 'unterminated" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Sql_lexer.Lex_error _ -> ());
  match Sql_lexer.tokenize "a # b" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Sql_lexer.Lex_error _ -> ()

let test_parser_precedence () =
  let open Sql_ast in
  let e = Sql_parser.parse_expr "1 + 2 * 3" in
  Alcotest.(check bool) "mul binds tighter" true
    (e = Binop (Add, Lit (Value.Int 1), Binop (Mul, Lit (Value.Int 2), Lit (Value.Int 3))));
  let e = Sql_parser.parse_expr "a = 1 OR b = 2 AND c = 3" in
  (match e with
  | Or (_, And (_, _)) -> ()
  | _ -> Alcotest.fail "AND must bind tighter than OR");
  let e = Sql_parser.parse_expr "NOT a = 1 AND b = 2" in
  match e with
  | And (Not _, _) -> ()
  | _ -> Alcotest.fail "NOT binds tighter than AND"

let test_parser_select_shape () =
  let s =
    Sql_parser.parse
      "SELECT grp, count(*) AS c FROM items WHERE v BETWEEN 1 AND 5 GROUP BY grp \
       ORDER BY c DESC LIMIT 3;"
  in
  Alcotest.(check int) "projections" 2 (List.length s.Sql_ast.projections);
  Alcotest.(check int) "group" 1 (List.length s.Sql_ast.group_by);
  Alcotest.(check int) "order" 1 (List.length s.Sql_ast.order_by);
  Alcotest.(check (option int)) "limit" (Some 3) s.Sql_ast.limit

let test_parser_errors () =
  let expect_fail sql =
    match Sql_parser.parse sql with
    | _ -> Alcotest.fail ("should not parse: " ^ sql)
    | exception Sql_parser.Parse_error _ -> ()
  in
  expect_fail "SELECT";
  expect_fail "SELECT a FROM";
  expect_fail "SELECT a FROM t WHERE";
  expect_fail "SELECT a FROM t LIMIT x";
  expect_fail "SELECT a FROM t trailing garbage (";
  expect_fail "SELECT sum(*) FROM t"

(* Round-trip: random expression -> to_string -> parse -> same AST. *)
let expr_gen =
  let open QCheck.Gen in
  let open Sql_ast in
  let lit =
    oneof
      [ map (fun i -> Lit (Value.Int i)) (int_range (-50) 50);
        map (fun i -> Lit (Value.Float (float_of_int i /. 4.0))) (int_range (-20) 20);
        map (fun s -> Lit (Value.Str s)) (string_size ~gen:(oneofl [ 'a'; 'b'; '\'' ]) (int_range 0 4));
        return (Lit Value.Null);
        return (Lit (Value.Bool true));
        map (fun d -> Lit (Value.Date (Date.of_ymd 1994 1 1 + d))) (int_range 0 300) ]
  in
  let col = oneofl [ Col (None, "a"); Col (None, "b"); Col (Some "t", "c") ] in
  let leaf = oneof [ lit; col ] in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else begin
        let sub = self (depth - 1) in
        oneof
          [ leaf;
            map2 (fun a b -> Binop (Add, a, b)) sub sub;
            map2 (fun a b -> Binop (Mul, a, b)) sub sub;
            map2 (fun a b -> Cmp (Le, a, b)) sub sub;
            map2 (fun a b -> And (a, b)) sub sub;
            map2 (fun a b -> Or (a, b)) sub sub;
            map (fun a -> Not a) sub;
            map3 (fun a lo hi -> Between (a, lo, hi)) sub sub sub;
            map2 (fun a es -> In_list (a, es)) sub (list_size (int_range 1 3) sub);
            map (fun a -> Like (a, "ab%c_")) sub;
            map (fun a -> Is_null a) sub;
            map (fun a -> Not (Is_null a)) sub;
            map3
              (fun c v e -> Case ([ (c, v) ], Some e))
              sub sub sub;
            map (fun a -> Agg (Sum, Some a)) sub;
            return (Agg (Count, None)) ]
      end)
    2

let test_parser_roundtrip =
  QCheck.Test.make ~name:"expr_to_string round-trips through the parser" ~count:800
    (QCheck.make expr_gen ~print:Sql_ast.expr_to_string)
    (fun e -> Sql_parser.parse_expr (Sql_ast.expr_to_string e) = e)

(* Every constructor, with every arity the traversal distinguishes:
   multi-arm CASE with and without ELSE, each aggregate with and without an
   argument, and IN (SELECT …) around a statement of its own. *)
let traversal_gen =
  let open QCheck.Gen in
  let open Sql_ast in
  let inner = Sql_parser.parse "SELECT max(x) FROM t WHERE x > 1" in
  let leaf =
    oneof
      [ map (fun i -> Lit (Value.Int i)) (int_range (-9) 9);
        oneofl [ Col (None, "a"); Col (Some "t", "b") ] ]
  in
  let agg = oneofl [ Count; Sum; Avg; Min; Max ] in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else begin
        let sub = self (depth - 1) in
        oneof
          [ leaf;
            map3 (fun op a b -> Binop (op, a, b)) (oneofl [ Add; Sub; Mul; Div ]) sub sub;
            map3 (fun op a b -> Cmp (op, a, b)) (oneofl [ Eq; Ne; Lt; Le; Gt; Ge ]) sub sub;
            map2 (fun a b -> And (a, b)) sub sub;
            map2 (fun a b -> Or (a, b)) sub sub;
            map (fun a -> Not a) sub;
            map3 (fun a lo hi -> Between (a, lo, hi)) sub sub sub;
            map2 (fun a es -> In_list (a, es)) sub (list_size (int_range 1 3) sub);
            map (fun a -> In_select (a, inner)) sub;
            map (fun a -> Like (a, "a%")) sub;
            map2
              (fun arms e -> Case (arms, e))
              (list_size (int_range 1 3) (pair sub sub))
              (opt sub);
            map (fun a -> Is_null a) sub;
            map2 (fun k a -> Agg (k, a)) agg (opt sub) ]
      end)
    3

let arb_traversal = QCheck.make traversal_gen ~print:Sql_ast.expr_to_string

let test_map_children_identity =
  QCheck.Test.make ~name:"map_children Fun.id is the identity" ~count:500
    arb_traversal (fun e -> Sql_ast.map_children Fun.id e = e)

let test_map_children_children =
  let f e = Sql_ast.Not e in
  QCheck.Test.make ~name:"children (map_children f e) = List.map f (children e)"
    ~count:500 arb_traversal (fun e ->
      Sql_ast.children (Sql_ast.map_children f e) = List.map f (Sql_ast.children e))

let test_select_to_string_roundtrip () =
  let sql =
    "SELECT grp AS g, sum(v * 2) FROM items i, other o WHERE i.x = o.y AND v IN \
     (1, 2, 3) GROUP BY grp ORDER BY grp ASC LIMIT 5"
  in
  let ast = Sql_parser.parse sql in
  let ast2 = Sql_parser.parse (Sql_ast.select_to_string ast) in
  Alcotest.(check bool) "stable" true (ast = ast2)

(* ------------------------------------------------------------------ *)
(* Executor vs brute-force oracle *)

let mk_db () =
  let db = Database.create () in
  let schema =
    Schema.make
      [ { Schema.name = "id"; ty = Value.TInt };
        { Schema.name = "v"; ty = Value.TInt };
        { Schema.name = "s"; ty = Value.TStr };
        { Schema.name = "f"; ty = Value.TFloat } ]
  in
  let _ = Database.create_table db ~name:"t" ~schema in
  let rng = Mope_stats.Rng.create 77L in
  let rows =
    List.init 200 (fun i ->
        [| Value.Int i;
           Value.Int (Mope_stats.Rng.int rng 50);
           Value.Str (String.make 1 (Char.chr (Char.code 'a' + Mope_stats.Rng.int rng 4)));
           Value.Float (float_of_int (Mope_stats.Rng.int rng 100) /. 10.0) |])
  in
  List.iter (fun r -> ignore (Database.insert db ~table:"t" r)) rows;
  Database.create_index db ~table:"t" ~column:"id";
  Database.create_index db ~table:"t" ~column:"v";
  (db, rows)

(* Independent predicate evaluation for the oracle (no Eval reuse). *)
type pred =
  | P_range of string * int * int        (* col BETWEEN a AND b *)
  | P_cmp_lt of string * int
  | P_eq_str of string
  | P_or of pred * pred
  | P_and of pred * pred

let rec pred_to_sql = function
  | P_range (c, a, b) -> Printf.sprintf "(%s BETWEEN %d AND %d)" c a b
  | P_cmp_lt (c, a) -> Printf.sprintf "(%s < %d)" c a
  | P_eq_str s -> Printf.sprintf "(s = '%s')" s
  | P_or (a, b) -> Printf.sprintf "(%s OR %s)" (pred_to_sql a) (pred_to_sql b)
  | P_and (a, b) -> Printf.sprintf "(%s AND %s)" (pred_to_sql a) (pred_to_sql b)

let rec pred_eval row = function
  | P_range (c, a, b) ->
    let v = match (c, row) with
      | "id", [| Value.Int id; _; _; _ |] -> id
      | "v", [| _; Value.Int v; _; _ |] -> v
      | _ -> assert false
    in
    a <= v && v <= b
  | P_cmp_lt (c, a) ->
    let v = match (c, row) with
      | "id", [| Value.Int id; _; _; _ |] -> id
      | "v", [| _; Value.Int v; _; _ |] -> v
      | _ -> assert false
    in
    v < a
  | P_eq_str s -> (match row with [| _; _; Value.Str x; _ |] -> x = s | _ -> false)
  | P_or (a, b) -> pred_eval row a || pred_eval row b
  | P_and (a, b) -> pred_eval row a && pred_eval row b

let pred_gen =
  QCheck.Gen.(
    let base =
      oneof
        [ map3 (fun c a b -> P_range ((if c then "id" else "v"), min a b, max a b))
            bool (int_range 0 210) (int_range 0 210);
          map2 (fun c a -> P_cmp_lt ((if c then "id" else "v"), a)) bool (int_range 0 210);
          map (fun i -> P_eq_str (String.make 1 (Char.chr (Char.code 'a' + i)))) (int_range 0 4) ]
    in
    fix
      (fun self depth ->
        if depth = 0 then base
        else
          frequency
            [ (3, base);
              (1, map2 (fun a b -> P_or (a, b)) (self (depth - 1)) (self (depth - 1)));
              (1, map2 (fun a b -> P_and (a, b)) (self (depth - 1)) (self (depth - 1))) ])
      2)

let oracle_db = lazy (mk_db ())

let test_exec_vs_oracle =
  QCheck.Test.make ~name:"SELECT id WHERE <pred> matches brute force" ~count:300
    (QCheck.make pred_gen ~print:pred_to_sql)
    (fun pred ->
      let db, rows = Lazy.force oracle_db in
      let sql = Printf.sprintf "SELECT id FROM t WHERE %s" (pred_to_sql pred) in
      let result = Database.query db sql in
      let got =
        List.map (function [| Value.Int id |] -> id | _ -> -1) result.Exec.rows
        |> List.sort Int.compare
      in
      let expected =
        List.filteri (fun _ row -> pred_eval row pred) rows
        |> List.map (fun row -> match row with [| Value.Int id; _; _; _ |] -> id | _ -> -1)
        |> List.sort Int.compare
      in
      got = expected)

let test_exec_group_by_oracle () =
  let db, rows = Lazy.force oracle_db in
  let result =
    Database.query db "SELECT s, count(*), sum(v), min(v), max(v), avg(f) FROM t GROUP BY s ORDER BY s"
  in
  (* Brute-force groups *)
  let groups = Hashtbl.create 4 in
  List.iter
    (fun row ->
      match row with
      | [| _; Value.Int v; Value.Str s; Value.Float f |] ->
        let c, sv, mn, mx, sf =
          Option.value (Hashtbl.find_opt groups s) ~default:(0, 0, max_int, min_int, 0.0)
        in
        Hashtbl.replace groups s (c + 1, sv + v, min mn v, max mx v, sf +. f)
      | _ -> ())
    rows;
  Alcotest.(check int) "group count" (Hashtbl.length groups) (List.length result.Exec.rows);
  List.iter
    (fun row ->
      match row with
      | [| Value.Str s; Value.Int c; Value.Int sv; Value.Int mn; Value.Int mx; Value.Float avg |] ->
        let ec, esv, emn, emx, esf = Hashtbl.find groups s in
        Alcotest.(check int) ("count " ^ s) ec c;
        Alcotest.(check int) ("sum " ^ s) esv sv;
        Alcotest.(check int) ("min " ^ s) emn mn;
        Alcotest.(check int) ("max " ^ s) emx mx;
        Alcotest.(check (float 1e-9)) ("avg " ^ s) (esf /. float_of_int ec) avg
      | _ -> Alcotest.fail "unexpected row shape")
    result.Exec.rows

let test_exec_order_limit () =
  let db, _ = Lazy.force oracle_db in
  let result = Database.query db "SELECT id, v FROM t ORDER BY v DESC, id ASC LIMIT 10" in
  Alcotest.(check int) "limit" 10 (List.length result.Exec.rows);
  let pairs = List.map (function [| Value.Int i; Value.Int v |] -> (v, i) | _ -> (0, 0)) result.Exec.rows in
  let rec sorted = function
    | (v1, i1) :: ((v2, i2) :: _ as rest) ->
      (v1 > v2 || (v1 = v2 && i1 <= i2)) && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "ordering" true (sorted pairs)

let test_exec_join_oracle () =
  let db = Database.create () in
  let s1 = Schema.make [ { Schema.name = "k"; ty = Value.TInt }; { Schema.name = "x"; ty = Value.TInt } ] in
  let s2 = Schema.make [ { Schema.name = "kk"; ty = Value.TInt }; { Schema.name = "y"; ty = Value.TStr } ] in
  let _ = Database.create_table db ~name:"l" ~schema:s1 in
  let _ = Database.create_table db ~name:"r" ~schema:s2 in
  let rng = Mope_stats.Rng.create 123L in
  let left = List.init 60 (fun _ -> (Mope_stats.Rng.int rng 10, Mope_stats.Rng.int rng 100)) in
  let right = List.init 25 (fun _ -> (Mope_stats.Rng.int rng 10, String.make 1 (Char.chr (65 + Mope_stats.Rng.int rng 5)))) in
  List.iter (fun (k, x) -> ignore (Database.insert db ~table:"l" [| Value.Int k; Value.Int x |])) left;
  List.iter (fun (k, y) -> ignore (Database.insert db ~table:"r" [| Value.Int k; Value.Str y |])) right;
  let result = Database.query db "SELECT x, y FROM l, r WHERE k = kk ORDER BY x, y" in
  let expected =
    List.concat_map (fun (k, x) -> List.filter_map (fun (kk, y) -> if k = kk then Some (x, y) else None) right) left
    |> List.sort compare
  in
  let got = List.map (function [| Value.Int x; Value.Str y |] -> (x, y) | _ -> (0, "")) result.Exec.rows in
  Alcotest.(check bool) "join matches nested loop" true (List.sort compare got = expected);
  Alcotest.(check int) "row count" (List.length expected) (List.length got)

let test_exec_in_subquery () =
  let db, rows = Lazy.force oracle_db in
  let result = Database.query db "SELECT count(*) FROM t WHERE id IN (SELECT id FROM t WHERE v < 10)" in
  let expected =
    List.length (List.filter (function [| _; Value.Int v; _; _ |] -> v < 10 | _ -> false) rows)
  in
  match result.Exec.rows with
  | [ [| Value.Int n |] ] -> Alcotest.(check int) "semi-join count" expected n
  | _ -> Alcotest.fail "unexpected result shape"

let test_exec_index_used () =
  let db, _ = Lazy.force oracle_db in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let info = Database.explain db "SELECT id FROM t WHERE v BETWEEN 3 AND 5 OR v BETWEEN 9 AND 12" in
  (match info.Exec.access_paths with
  | [ path ] ->
    Alcotest.(check bool) ("multirange index scan: " ^ path) true
      (contains path "index scan on v" && contains path "2 ranges")
  | _ -> Alcotest.fail "one table expected");
  let info = Database.explain db "SELECT id FROM t WHERE s = 'a'" in
  match info.Exec.access_paths with
  | [ path ] -> Alcotest.(check bool) "seq scan" true (contains path "seq scan")
  | _ -> Alcotest.fail "one table expected"

let test_exec_errors () =
  let db, _ = Lazy.force oracle_db in
  (match Database.query db "SELECT nope FROM t" with
  | _ -> Alcotest.fail "unknown column should fail"
  | exception Eval.Eval_error _ -> ());
  match Database.query db "SELECT id FROM missing" with
  | _ -> Alcotest.fail "unknown table should fail"
  | exception Exec.Exec_error _ -> ()

let test_exec_empty_aggregate () =
  let db, _ = Lazy.force oracle_db in
  let r = Database.query db "SELECT count(*), sum(v) FROM t WHERE id > 100000" in
  match r.Exec.rows with
  | [ [| Value.Int 0; Value.Null |] ] -> ()
  | _ -> Alcotest.fail "empty aggregate should give count 0 and null sum"

let test_exec_case_division () =
  let db, _ = Lazy.force oracle_db in
  let r =
    Database.query db
      "SELECT sum(CASE WHEN v < 25 THEN 1 ELSE 0 END) * 100.0 / count(*) FROM t"
  in
  match r.Exec.rows with
  | [ [| Value.Float pct |] ] ->
    Alcotest.(check bool) "percentage in range" true (pct >= 0.0 && pct <= 100.0)
  | _ -> Alcotest.fail "unexpected shape"


(* ------------------------------------------------------------------ *)
(* DML / DDL statements *)

let fresh_dml_db () =
  let db = Database.create () in
  (match
     Database.execute db
       "CREATE TABLE items (id INTEGER, name TEXT, price FLOAT, added DATE, ok BOOLEAN)"
   with
  | Database.Affected 0 -> ()
  | _ -> Alcotest.fail "create");
  (match Database.execute db "CREATE INDEX ON items (id)" with
  | Database.Affected 0 -> ()
  | _ -> Alcotest.fail "index");
  db

let test_dml_create_insert_select () =
  let db = fresh_dml_db () in
  (match
     Database.execute db
       "INSERT INTO items VALUES (1, 'apple', 2.5, DATE '1994-01-01', TRUE), \
        (2, 'pear', 3, DATE '1994-02-01', FALSE)"
   with
  | Database.Affected 2 -> ()
  | _ -> Alcotest.fail "insert count");
  let r = Database.query db "SELECT name, price FROM items ORDER BY id" in
  (match r.Exec.rows with
  | [ [| Value.Str "apple"; Value.Float 2.5 |]; [| Value.Str "pear"; Value.Float 3.0 |] ] ->
    () (* the bare 3 was coerced into the FLOAT column *)
  | _ -> Alcotest.fail "select after insert")

let test_dml_insert_column_list () =
  let db = fresh_dml_db () in
  (match Database.execute db "INSERT INTO items (name, id) VALUES ('kiwi', 9)" with
  | Database.Affected 1 -> ()
  | _ -> Alcotest.fail "insert");
  let r = Database.query db "SELECT id, name, price FROM items" in
  match r.Exec.rows with
  | [ [| Value.Int 9; Value.Str "kiwi"; Value.Null |] ] -> ()
  | _ -> Alcotest.fail "unlisted columns default to NULL"

let test_dml_delete () =
  let db = fresh_dml_db () in
  for i = 1 to 10 do
    ignore
      (Database.execute db
         (Printf.sprintf "INSERT INTO items (id, price) VALUES (%d, %d.0)" i i))
  done;
  (match Database.execute db "DELETE FROM items WHERE id BETWEEN 3 AND 6" with
  | Database.Affected 4 -> ()
  | _ -> Alcotest.fail "delete count");
  let r = Database.query db "SELECT count(*) FROM items" in
  (match r.Exec.rows with
  | [ [| Value.Int 6 |] ] -> ()
  | _ -> Alcotest.fail "live rows after delete");
  (* The index must reflect the deletion: an indexed lookup finds nothing. *)
  let r = Database.query db "SELECT count(*) FROM items WHERE id = 4" in
  match r.Exec.rows with
  | [ [| Value.Int 0 |] ] -> ()
  | _ -> Alcotest.fail "index still serves deleted row"

let test_dml_update () =
  let db = fresh_dml_db () in
  for i = 1 to 5 do
    ignore
      (Database.execute db
         (Printf.sprintf "INSERT INTO items (id, price) VALUES (%d, 10.0)" i))
  done;
  (match
     Database.execute db "UPDATE items SET price = price * 2, id = id + 100 WHERE id <= 2"
   with
  | Database.Affected 2 -> ()
  | _ -> Alcotest.fail "update count");
  (* Index follows the new key values. *)
  let r = Database.query db "SELECT price FROM items WHERE id = 101" in
  (match r.Exec.rows with
  | [ [| Value.Float 20.0 |] ] -> ()
  | _ -> Alcotest.fail "updated row via index");
  let r = Database.query db "SELECT count(*) FROM items WHERE id = 1" in
  match r.Exec.rows with
  | [ [| Value.Int 0 |] ] -> ()
  | _ -> Alcotest.fail "old key still indexed"

let test_dml_drop () =
  let db = fresh_dml_db () in
  (match Database.execute db "DROP TABLE items" with
  | Database.Affected 0 -> ()
  | _ -> Alcotest.fail "drop");
  match Database.query db "SELECT * FROM items" with
  | _ -> Alcotest.fail "table should be gone"
  | exception Exec.Exec_error _ -> ()

let test_dml_errors () =
  let db = fresh_dml_db () in
  (match Database.execute db "INSERT INTO items (id) VALUES (1, 2)" with
  | _ -> Alcotest.fail "arity mismatch accepted"
  | exception Invalid_argument _ -> ());
  (match Database.execute db "INSERT INTO items (nope) VALUES (1)" with
  | _ -> Alcotest.fail "unknown column accepted"
  | exception Invalid_argument _ -> ());
  (* Column references are not constants in VALUES. *)
  match Database.execute db "INSERT INTO items (id) VALUES (id)" with
  | _ -> Alcotest.fail "column ref in VALUES accepted"
  | exception Eval.Eval_error _ -> ()

let test_dml_statement_roundtrip () =
  List.iter
    (fun sql ->
      let stmt = Sql_parser.parse_statement sql in
      let stmt2 = Sql_parser.parse_statement (Sql_ast.statement_to_string stmt) in
      Alcotest.(check bool) ("round-trip: " ^ sql) true (stmt = stmt2))
    [ "SELECT a FROM t WHERE b < 3";
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)";
      "CREATE TABLE t (a INTEGER, b TEXT, c FLOAT, d DATE, e BOOLEAN)";
      "CREATE INDEX ON t (a)";
      "DELETE FROM t WHERE a BETWEEN 1 AND 2";
      "UPDATE t SET a = a + 1, b = 'y' WHERE a > 0";
      "DROP TABLE t" ]

let test_table_tombstones_direct () =
  let schema = Schema.make [ { Schema.name = "x"; ty = Value.TInt } ] in
  let t = Table.create ~name:"t" ~schema in
  let id0 = Table.insert t [| Value.Int 1 |] in
  let id1 = Table.insert t [| Value.Int 2 |] in
  Alcotest.(check bool) "delete once" true (Table.delete t id0);
  Alcotest.(check bool) "delete twice" false (Table.delete t id0);
  Alcotest.(check int) "live count" 1 (Table.length t);
  Alcotest.(check bool) "is_deleted" true (Table.is_deleted t id0);
  Alcotest.check_raises "get deleted" (Invalid_argument "Table.get: row was deleted")
    (fun () -> ignore (Table.get t id0));
  Alcotest.check_raises "update deleted"
    (Invalid_argument "Table.update: row was deleted") (fun () ->
      Table.update t id0 [| Value.Int 9 |]);
  (* ids are not reused. *)
  let id2 = Table.insert t [| Value.Int 3 |] in
  Alcotest.(check bool) "fresh id" true (id2 > id1)

(* ------------------------------------------------------------------ *)
(* Storage *)

let random_database seed =
  let db = Database.create () in
  let rng = Mope_stats.Rng.create seed in
  let schema =
    Schema.make
      [ { Schema.name = "a"; ty = Value.TInt };
        { Schema.name = "b"; ty = Value.TFloat };
        { Schema.name = "c"; ty = Value.TStr };
        { Schema.name = "d"; ty = Value.TDate };
        { Schema.name = "e"; ty = Value.TBool } ]
  in
  let t = Database.create_table db ~name:"data" ~schema in
  for i = 0 to 199 do
    ignore
      (Table.insert t
         [| (if i mod 7 = 0 then Value.Null else Value.Int (Mope_stats.Rng.int rng 1000 - 500));
            Value.Float (Mope_stats.Rng.float rng *. 100.0);
            Value.Str (String.init (Mope_stats.Rng.int rng 8) (fun _ ->
                Char.chr (32 + Mope_stats.Rng.int rng 95)));
            Value.Date (Mope_stats.Rng.int rng 20000 - 10000);
            Value.Bool (Mope_stats.Rng.bool rng) |])
  done;
  Database.create_index db ~table:"data" ~column:"a";
  db

let dump db =
  List.concat_map
    (fun name ->
      let r = Database.query db (Printf.sprintf "SELECT * FROM %s" name) in
      List.map (fun row -> Array.to_list (Array.map Value.to_string row))
        r.Exec.rows
      |> List.sort compare)
    (Database.tables db)

let test_storage_roundtrip () =
  let db = random_database 11L in
  let loaded = Storage.load_string (Storage.save_string db) in
  Alcotest.(check (list string)) "tables" (Database.tables db) (Database.tables loaded);
  Alcotest.(check (list (list string))) "rows" (dump db) (dump loaded);
  (* Indexes were rebuilt: an indexed query plans an index scan. *)
  let info = Database.explain loaded "SELECT a FROM data WHERE a BETWEEN 0 AND 10" in
  match info.Exec.access_paths with
  | [ path ] ->
    Alcotest.(check bool) "index rebuilt" true
      (String.length path > 10 &&
       String.sub path 0 6 = "data: " = (String.sub path 0 6 = "data: "))
  | _ -> Alcotest.fail "one path"

let test_storage_compacts_tombstones () =
  let db = random_database 13L in
  ignore (Database.execute db "DELETE FROM data WHERE e = TRUE");
  let live = (Database.table_exn db "data" |> Table.length) in
  let loaded = Storage.load_string (Storage.save_string db) in
  Alcotest.(check int) "live rows preserved" live
    (Table.length (Database.table_exn loaded "data"));
  Alcotest.(check (list (list string))) "contents equal" (dump db) (dump loaded)

let test_storage_file_roundtrip () =
  let db = random_database 17L in
  let path = Filename.temp_file "mope_storage" ".db" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Storage.save db ~path;
      let loaded = Storage.load ~path in
      Alcotest.(check (list (list string))) "file roundtrip" (dump db) (dump loaded))

let test_storage_corruption () =
  let db = random_database 19L in
  let good = Storage.save_string db in
  let expect_corrupt label data =
    match Storage.load_string data with
    | _ -> Alcotest.fail ("accepted corrupt input: " ^ label)
    | exception Storage.Corrupt _ -> ()
  in
  expect_corrupt "empty" "";
  expect_corrupt "bad magic" ("XXXXXX\x01\n" ^ String.sub good 8 (String.length good - 8));
  expect_corrupt "truncated" (String.sub good 0 (String.length good - 5));
  expect_corrupt "trailing" (good ^ "junk");
  (* Flip a type tag deep inside. *)
  let mangled = Bytes.of_string good in
  Bytes.set mangled (String.length good - 1) '\xee';
  expect_corrupt "mangled tail" (Bytes.to_string mangled)


(* ------------------------------------------------------------------ *)
(* Eval: expression semantics *)

let eval_expr_on ?(schema = []) ?(row = [||]) sql =
  let env =
    { Eval.resolve =
        (fun (_, name) ->
          match List.assoc_opt name schema with
          | Some i -> i
          | None -> raise (Eval.Eval_error ("unknown " ^ name))) }
  in
  let f = Eval.compile ~subquery:(fun _ -> []) env (Sql_parser.parse_expr sql) in
  f row

let test_eval_arithmetic () =
  Alcotest.(check bool) "int add" true (eval_expr_on "1 + 2" = Value.Int 3);
  Alcotest.(check bool) "int mul" true (eval_expr_on "6 * 7" = Value.Int 42);
  Alcotest.(check bool) "int div is float" true (eval_expr_on "7 / 2" = Value.Float 3.5);
  Alcotest.(check bool) "mixed promotes" true (eval_expr_on "1 + 0.5" = Value.Float 1.5);
  Alcotest.(check bool) "unary minus" true (eval_expr_on "-3 + 5" = Value.Int 2);
  Alcotest.(check bool) "precedence" true (eval_expr_on "2 + 3 * 4" = Value.Int 14)

let test_eval_date_arithmetic () =
  Alcotest.(check bool) "date + int" true
    (eval_expr_on "DATE '1994-01-01' + 31" = Value.Date (Date.of_ymd 1994 2 1));
  Alcotest.(check bool) "date - date" true
    (eval_expr_on "DATE '1994-02-01' - DATE '1994-01-01'" = Value.Int 31);
  Alcotest.(check bool) "date compare" true
    (eval_expr_on "DATE '1994-01-01' < DATE '1995-01-01'" = Value.Bool true);
  match eval_expr_on "DATE '1994-01-01' * 2" with
  | _ -> Alcotest.fail "date multiplication accepted"
  | exception Eval.Eval_error _ -> ()

let test_eval_null_semantics () =
  Alcotest.(check bool) "null + 1 is null" true (eval_expr_on "NULL + 1" = Value.Null);
  Alcotest.(check bool) "null = null is false" true
    (eval_expr_on "NULL = NULL" = Value.Bool false);
  Alcotest.(check bool) "null in list false" true
    (eval_expr_on "NULL IN (1, 2)" = Value.Bool false);
  Alcotest.(check bool) "div by zero is null" true (eval_expr_on "1 / 0" = Value.Null);
  Alcotest.(check bool) "float div by zero is null" true
    (eval_expr_on "1.0 / 0.0" = Value.Null);
  Alcotest.(check bool) "not null is true (two-valued)" true
    (eval_expr_on "NOT (NULL = 1)" = Value.Bool true)

let test_eval_case () =
  Alcotest.(check bool) "first arm" true
    (eval_expr_on "CASE WHEN 1 < 2 THEN 'a' ELSE 'b' END" = Value.Str "a");
  Alcotest.(check bool) "else" true
    (eval_expr_on "CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END" = Value.Str "b");
  Alcotest.(check bool) "no else is null" true
    (eval_expr_on "CASE WHEN 1 > 2 THEN 'a' END" = Value.Null);
  Alcotest.(check bool) "arm order" true
    (eval_expr_on "CASE WHEN TRUE THEN 1 WHEN TRUE THEN 2 END" = Value.Int 1)

let test_eval_columns () =
  let schema = [ ("x", 0); ("y", 1) ] in
  let row = [| Value.Int 10; Value.Str "hey" |] in
  Alcotest.(check bool) "column read" true
    (eval_expr_on ~schema ~row "x * 2" = Value.Int 20);
  Alcotest.(check bool) "between" true
    (eval_expr_on ~schema ~row "x BETWEEN 5 AND 15" = Value.Bool true);
  Alcotest.(check bool) "like column" true
    (eval_expr_on ~schema ~row "y LIKE 'h%'" = Value.Bool true);
  match eval_expr_on ~schema ~row "z + 1" with
  | _ -> Alcotest.fail "unknown column accepted"
  | exception Eval.Eval_error _ -> ()

let test_eval_agg_outside_context () =
  match eval_expr_on "sum(1)" with
  | _ -> Alcotest.fail "aggregate accepted at row level"
  | exception Eval.Eval_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Fuzz: the SQL front end must never crash, only raise its own errors *)

let sql_soup_gen =
  QCheck.Gen.(
    let token =
      oneofl
        [ "SELECT"; "FROM"; "WHERE"; "AND"; "OR"; "("; ")"; ","; "*"; "+";
          "BETWEEN"; "IN"; "LIKE"; "CASE"; "WHEN"; "END"; "t"; "a"; "b";
          "1"; "2.5"; "'s'"; "DATE"; "'1994-01-01'"; "<"; "="; ">="; "GROUP";
          "BY"; "ORDER"; "LIMIT"; "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET";
          "DELETE"; "DROP"; "TABLE"; "NULL"; "-"; "/"; "." ]
    in
    map (String.concat " ") (list_size (int_range 0 25) token))

let test_parser_fuzz_total =
  QCheck.Test.make ~name:"parser never crashes on token soup" ~count:2000
    (QCheck.make sql_soup_gen ~print:Fun.id)
    (fun sql ->
      match Sql_parser.parse_statement sql with
      | _ -> true
      | exception Sql_parser.Parse_error _ -> true
      | exception Sql_lexer.Lex_error _ -> true
      | exception Invalid_argument _ -> true (* e.g. DATE 'garbage' *)
      | exception _ -> false)

let test_lexer_fuzz_total =
  QCheck.Test.make ~name:"lexer never crashes on random bytes" ~count:2000
    QCheck.(string_of_size (QCheck.Gen.int_range 0 60))
    (fun input ->
      match Sql_lexer.tokenize input with
      | _ -> true
      | exception Sql_lexer.Lex_error _ -> true
      | exception _ -> false)


(* ------------------------------------------------------------------ *)
(* Executor: wider coverage *)

let test_exec_three_table_join () =
  let db = Database.create () in
  let mk name cols = Database.create_table db ~name ~schema:(Schema.make cols) in
  let a = mk "ta" [ { Schema.name = "ak"; ty = Value.TInt }; { Schema.name = "av"; ty = Value.TStr } ] in
  let b = mk "tb" [ { Schema.name = "bk"; ty = Value.TInt }; { Schema.name = "bk2"; ty = Value.TInt } ] in
  let c = mk "tc" [ { Schema.name = "ck"; ty = Value.TInt }; { Schema.name = "cv"; ty = Value.TInt } ] in
  List.iter (fun (k, v) -> ignore (Table.insert a [| Value.Int k; Value.Str v |]))
    [ (1, "x"); (2, "y"); (3, "z") ];
  List.iter (fun (k, k2) -> ignore (Table.insert b [| Value.Int k; Value.Int k2 |]))
    [ (1, 10); (2, 20); (2, 30); (4, 40) ];
  List.iter (fun (k, v) -> ignore (Table.insert c [| Value.Int k; Value.Int v |]))
    [ (10, 100); (20, 200); (30, 300) ];
  let r =
    Database.query db
      "SELECT av, cv FROM ta, tb, tc WHERE ak = bk AND bk2 = ck ORDER BY cv"
  in
  let got =
    List.map
      (function [| Value.Str s; Value.Int v |] -> (s, v) | _ -> ("", 0))
      r.Exec.rows
  in
  Alcotest.(check bool) "three-way join" true
    (got = [ ("x", 100); ("y", 200); ("y", 300) ])

let test_exec_cross_join () =
  let db = Database.create () in
  let mk name col = Database.create_table db ~name ~schema:(Schema.make [ { Schema.name = col; ty = Value.TInt } ]) in
  let a = mk "ca" "x" and b = mk "cb" "y" in
  List.iter (fun v -> ignore (Table.insert a [| Value.Int v |])) [ 1; 2 ];
  List.iter (fun v -> ignore (Table.insert b [| Value.Int v |])) [ 10; 20; 30 ];
  let r = Database.query db "SELECT x, y FROM ca, cb ORDER BY x, y" in
  Alcotest.(check int) "cartesian size" 6 (List.length r.Exec.rows);
  let r = Database.query db "SELECT count(*) FROM ca, cb WHERE x + 1 < y" in
  (* pairs with x+1 < y: (1,10),(1,20),(1,30),(2,10),(2,20),(2,30) minus none... all 6 satisfy 1+1<10 etc. *)
  match r.Exec.rows with
  | [ [| Value.Int 6 |] ] -> ()
  | _ -> Alcotest.fail "residual predicate over cross join"

let test_exec_order_by_alias () =
  let db, _ = Lazy.force oracle_db in
  let r =
    Database.query db
      "SELECT s, count(*) AS n FROM t GROUP BY s ORDER BY n DESC, s ASC"
  in
  let counts = List.map (function [| _; Value.Int n |] -> n | _ -> 0) r.Exec.rows in
  Alcotest.(check bool) "sorted by alias desc" true
    (List.sort (fun a b -> Int.compare b a) counts = counts)

let test_exec_limit_zero () =
  let db, _ = Lazy.force oracle_db in
  let r = Database.query db "SELECT id FROM t LIMIT 0" in
  Alcotest.(check int) "limit 0" 0 (List.length r.Exec.rows)

let test_exec_min_max_non_numeric () =
  let db, _ = Lazy.force oracle_db in
  let r = Database.query db "SELECT min(s), max(s) FROM t" in
  match r.Exec.rows with
  | [ [| Value.Str lo; Value.Str hi |] ] ->
    Alcotest.(check bool) "string min/max ordered" true (lo <= hi)
  | _ -> Alcotest.fail "min/max on strings"

let test_exec_projection_names () =
  let db, _ = Lazy.force oracle_db in
  let r = Database.query db "SELECT id, v AS speed, id + 1 FROM t LIMIT 1" in
  Alcotest.(check (list string)) "column names" [ "id"; "speed"; "column3" ]
    r.Exec.columns

let test_exec_group_by_expression () =
  let db, _ = Lazy.force oracle_db in
  (* Group by a computed expression. *)
  let r = Database.query db "SELECT v / 10, count(*) FROM t GROUP BY v / 10" in
  let total = List.fold_left (fun acc row ->
      match row with [| _; Value.Int n |] -> acc + n | _ -> acc) 0 r.Exec.rows in
  Alcotest.(check int) "partition covers all rows" 200 total

(* Join oracle as a property: random two-table instances. *)
let test_exec_join_property =
  QCheck.Test.make ~name:"hash join equals nested-loop oracle" ~count:60
    QCheck.(pair (list_of_size (Gen.int_range 0 30) (int_range 0 6))
              (list_of_size (Gen.int_range 0 15) (int_range 0 6)))
    (fun (left, right) ->
      let db = Database.create () in
      let a = Database.create_table db ~name:"l"
          ~schema:(Schema.make [ { Schema.name = "k"; ty = Value.TInt } ]) in
      let b = Database.create_table db ~name:"r"
          ~schema:(Schema.make [ { Schema.name = "kk"; ty = Value.TInt } ]) in
      List.iter (fun k -> ignore (Table.insert a [| Value.Int k |])) left;
      List.iter (fun k -> ignore (Table.insert b [| Value.Int k |])) right;
      let r = Database.query db "SELECT count(*) FROM l, r WHERE k = kk" in
      let expected =
        List.fold_left
          (fun acc k -> acc + List.length (List.filter (Int.equal k) right))
          0 left
      in
      match r.Exec.rows with
      | [ [| Value.Int n |] ] -> n = expected
      | _ -> false)


(* ------------------------------------------------------------------ *)
(* IS NULL / DISTINCT / HAVING *)

let nullable_db = lazy (
  let db = Database.create () in
  ignore (Database.execute db "CREATE TABLE n (id INTEGER, v INTEGER, s TEXT)");
  ignore (Database.execute db
    "INSERT INTO n VALUES (1, 10, 'a'), (2, NULL, 'a'), (3, 30, 'b'), \
     (4, NULL, 'b'), (5, 30, 'b'), (6, 10, NULL)");
  db)

let test_is_null_predicate () =
  let db = Lazy.force nullable_db in
  let count sql =
    match (Database.query db sql).Exec.rows with
    | [ [| Value.Int n |] ] -> n
    | _ -> Alcotest.fail "shape"
  in
  Alcotest.(check int) "v IS NULL" 2 (count "SELECT count(*) FROM n WHERE v IS NULL");
  Alcotest.(check int) "v IS NOT NULL" 4
    (count "SELECT count(*) FROM n WHERE v IS NOT NULL");
  Alcotest.(check int) "s IS NULL" 1 (count "SELECT count(*) FROM n WHERE s IS NULL");
  (* count over a column skips nulls; the star form does not *)
  Alcotest.(check int) "count(v)" 4 (count "SELECT count(v) FROM n")

let test_select_distinct () =
  let db = Lazy.force nullable_db in
  let r = Database.query db "SELECT DISTINCT v FROM n ORDER BY v" in
  Alcotest.(check int) "distinct values incl. null" 3 (List.length r.Exec.rows);
  let r = Database.query db "SELECT DISTINCT v, s FROM n" in
  Alcotest.(check int) "distinct pairs" 5 (List.length r.Exec.rows);
  (* DISTINCT interacts with ORDER BY and LIMIT *)
  let r = Database.query db "SELECT DISTINCT v FROM n ORDER BY v DESC LIMIT 1" in
  match r.Exec.rows with
  | [ [| Value.Int 30 |] ] -> ()
  | _ -> Alcotest.fail "distinct + order + limit"

let test_having () =
  let db = Lazy.force nullable_db in
  let r =
    Database.query db
      "SELECT s, count(*) FROM n GROUP BY s HAVING count(*) >= 2 ORDER BY s"
  in
  (match r.Exec.rows with
  | [ [| Value.Str "a"; Value.Int 2 |]; [| Value.Str "b"; Value.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "having filters groups");
  (* HAVING referencing an aggregate not in the projection. *)
  let r =
    Database.query db "SELECT s FROM n GROUP BY s HAVING sum(v) > 50 ORDER BY s"
  in
  (match r.Exec.rows with
  | [ [| Value.Str "b" |] ] -> () (* b: 30+30=60; a: 10; null-group: 10 *)
  | _ -> Alcotest.fail "having with hidden aggregate");
  (* HAVING over the single global group. *)
  let r = Database.query db "SELECT count(*) FROM n HAVING count(*) > 100" in
  Alcotest.(check int) "global group filtered out" 0 (List.length r.Exec.rows)

let test_is_null_roundtrip () =
  List.iter
    (fun sql ->
      let stmt = Sql_parser.parse_statement sql in
      Alcotest.(check bool) sql true
        (Sql_parser.parse_statement (Sql_ast.statement_to_string stmt) = stmt))
    [ "SELECT a FROM t WHERE a IS NULL";
      "SELECT a FROM t WHERE a IS NOT NULL AND b IS NULL";
      "SELECT DISTINCT a, b FROM t GROUP BY a, b HAVING count(*) > 1 ORDER BY a" ]


let test_join_on_syntax () =
  let db = Database.create () in
  ignore (Database.execute db "CREATE TABLE jl (k INTEGER, x INTEGER)");
  ignore (Database.execute db "CREATE TABLE jr (kk INTEGER, y TEXT)");
  ignore (Database.execute db "INSERT INTO jl VALUES (1, 10), (2, 20), (3, 30)");
  ignore (Database.execute db "INSERT INTO jr VALUES (1, 'a'), (3, 'c'), (9, 'z')");
  let comma =
    Database.query db "SELECT x, y FROM jl, jr WHERE k = kk ORDER BY x"
  in
  let join_on =
    Database.query db "SELECT x, y FROM jl JOIN jr ON k = kk ORDER BY x"
  in
  let inner_join =
    Database.query db "SELECT x, y FROM jl INNER JOIN jr ON k = kk ORDER BY x"
  in
  Alcotest.(check bool) "JOIN ON = comma join" true (comma.Exec.rows = join_on.Exec.rows);
  Alcotest.(check bool) "INNER JOIN accepted" true
    (comma.Exec.rows = inner_join.Exec.rows);
  Alcotest.(check int) "two matches" 2 (List.length join_on.Exec.rows);
  (* JOIN with an extra WHERE. *)
  let filtered =
    Database.query db
      "SELECT x FROM jl JOIN jr ON k = kk WHERE y = 'c'"
  in
  match filtered.Exec.rows with
  | [ [| Value.Int 30 |] ] -> ()
  | _ -> Alcotest.fail "JOIN + WHERE"

let test_join_on_three_way () =
  let db = Database.create () in
  ignore (Database.execute db "CREATE TABLE a3 (ak INTEGER)");
  ignore (Database.execute db "CREATE TABLE b3 (bk INTEGER, bk2 INTEGER)");
  ignore (Database.execute db "CREATE TABLE c3 (ck INTEGER)");
  ignore (Database.execute db "INSERT INTO a3 VALUES (1), (2)");
  ignore (Database.execute db "INSERT INTO b3 VALUES (1, 7), (2, 8)");
  ignore (Database.execute db "INSERT INTO c3 VALUES (7), (9)");
  let r =
    Database.query db
      "SELECT ak FROM a3 JOIN b3 ON ak = bk JOIN c3 ON bk2 = ck ORDER BY ak"
  in
  match r.Exec.rows with
  | [ [| Value.Int 1 |] ] -> ()
  | _ -> Alcotest.fail "chained JOIN ... ON"


(* Planner equivalence: the same data with and without indexes must give the
   same answers for every generated predicate (index paths vs seq scan). *)
let unindexed_oracle_db = lazy (
  let db = Database.create () in
  let schema =
    Schema.make
      [ { Schema.name = "id"; ty = Value.TInt };
        { Schema.name = "v"; ty = Value.TInt };
        { Schema.name = "s"; ty = Value.TStr };
        { Schema.name = "f"; ty = Value.TFloat } ]
  in
  let t = Database.create_table db ~name:"t" ~schema in
  let indexed_db, _ = Lazy.force oracle_db in
  Table.iter (Database.table_exn indexed_db "t") (fun _ row ->
      ignore (Table.insert t (Array.copy row)));
  db)

let test_planner_equivalence =
  QCheck.Test.make ~name:"indexed and unindexed plans agree" ~count:200
    (QCheck.make pred_gen ~print:pred_to_sql)
    (fun pred ->
      let indexed, _ = Lazy.force oracle_db in
      let unindexed = Lazy.force unindexed_oracle_db in
      let sql = Printf.sprintf "SELECT id FROM t WHERE %s" (pred_to_sql pred) in
      let get db =
        List.map
          (function [| Value.Int id |] -> id | _ -> -1)
          (Database.query db sql).Exec.rows
        |> List.sort Int.compare
      in
      get indexed = get unindexed)


(* Model-based DML: a random insert/delete/update sequence against a naive
   list-of-rows model, checked via full-table scans after every batch. *)
type dml_op =
  | Op_insert of int * int
  | Op_delete_le of int   (* DELETE WHERE v <= x *)
  | Op_update_lt of int   (* UPDATE SET v = v + 1000 WHERE id < x *)

let dml_op_gen =
  QCheck.Gen.(
    frequency
      [ (5, map2 (fun a b -> Op_insert (a, b)) (int_range 0 100) (int_range 0 100));
        (1, map (fun x -> Op_delete_le x) (int_range 0 100));
        (1, map (fun x -> Op_update_lt x) (int_range 0 100)) ])

let print_dml = function
  | Op_insert (a, b) -> Printf.sprintf "ins(%d,%d)" a b
  | Op_delete_le x -> Printf.sprintf "del<=%d" x
  | Op_update_lt x -> Printf.sprintf "upd<%d" x

let test_dml_model =
  QCheck.Test.make ~name:"DML sequence matches list model" ~count:100
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 60) dml_op_gen)
       ~print:(fun ops -> String.concat ";" (List.map print_dml ops)))
    (fun ops ->
      let db = Database.create () in
      ignore (Database.execute db "CREATE TABLE m (id INTEGER, v INTEGER)");
      ignore (Database.execute db "CREATE INDEX ON m (v)");
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Op_insert (id, v) ->
            ignore
              (Database.execute db
                 (Printf.sprintf "INSERT INTO m VALUES (%d, %d)" id v));
            model := (id, v) :: !model
          | Op_delete_le x ->
            (match
               Database.execute db (Printf.sprintf "DELETE FROM m WHERE v <= %d" x)
             with
            | Database.Affected n ->
              let expected = List.length (List.filter (fun (_, v) -> v <= x) !model) in
              if n <> expected then ok := false
            | _ -> ok := false);
            model := List.filter (fun (_, v) -> v > x) !model
          | Op_update_lt x ->
            ignore
              (Database.execute db
                 (Printf.sprintf
                    "UPDATE m SET v = v + 1000 WHERE id < %d" x));
            model := List.map (fun (id, v) -> if id < x then (id, v + 1000) else (id, v)) !model);
          (* Full-content check via an indexed scan path. *)
          let got =
            (Database.query db "SELECT id, v FROM m WHERE v BETWEEN -100000000 AND 100000000").Exec.rows
            |> List.map (function [| Value.Int a; Value.Int b |] -> (a, b) | _ -> (0, 0))
            |> List.sort compare
          in
          if got <> List.sort compare !model then ok := false)
        ops;
      !ok)

(* Storage round-trip as a property over random schemas and rows. *)
let storage_db_gen =
  QCheck.Gen.(
    let ty = oneofl [ Value.TInt; Value.TFloat; Value.TStr; Value.TBool; Value.TDate ] in
    let n_cols = int_range 1 5 in
    pair (list_size n_cols ty) (int_range 0 40))

let gen_value rng = function
  | Value.TInt -> Value.Int (Mope_stats.Rng.int rng 2000 - 1000)
  | Value.TFloat -> Value.Float (Mope_stats.Rng.float rng *. 1e6)
  | Value.TStr ->
    Value.Str
      (String.init (Mope_stats.Rng.int rng 10) (fun _ ->
           Char.chr (Mope_stats.Rng.int rng 256)))
  | Value.TBool -> Value.Bool (Mope_stats.Rng.bool rng)
  | Value.TDate -> Value.Date (Mope_stats.Rng.int rng 40000 - 20000)

let test_storage_roundtrip_property =
  QCheck.Test.make ~name:"storage round-trips random databases" ~count:100
    (QCheck.make storage_db_gen ~print:(fun (tys, n) ->
         Printf.sprintf "%d cols, %d rows" (List.length tys) n))
    (fun (tys, n_rows) ->
      let db = Database.create () in
      let schema =
        Schema.make
          (List.mapi (fun i ty -> { Schema.name = Printf.sprintf "c%d" i; ty }) tys)
      in
      let t = Database.create_table db ~name:"p" ~schema in
      let rng = Mope_stats.Rng.create 55L in
      for _ = 1 to n_rows do
        let row =
          Array.of_list
            (List.map
               (fun ty -> if Mope_stats.Rng.int rng 10 = 0 then Value.Null else gen_value rng ty)
               tys)
        in
        ignore (Table.insert t row)
      done;
      let loaded = Storage.load_string (Storage.save_string db) in
      dump db = dump loaded)

(* ------------------------------------------------------------------ *)
(* Plan cache *)

let plan_cache_db ?plan_cache_capacity () =
  let db = Database.create ?plan_cache_capacity () in
  let schema =
    Schema.make
      [ { Schema.name = "id"; ty = Value.TInt };
        { Schema.name = "v"; ty = Value.TInt } ]
  in
  let t = Database.create_table db ~name:"t" ~schema in
  for i = 0 to 99 do
    ignore (Table.insert t [| Value.Int i; Value.Int (i * 3 mod 50) |])
  done;
  db

let pc_stats db =
  match Database.plan_cache_stats db with
  | Some s -> s
  | None -> Alcotest.fail "plan cache unexpectedly disabled"

let sorted_ids result =
  List.map
    (function [| Value.Int id |] -> id | _ -> -1)
    result.Exec.rows
  |> List.sort Int.compare

let test_plan_cache_hits () =
  let db = plan_cache_db () in
  let sql = "SELECT id FROM t WHERE v BETWEEN 5 AND 20" in
  let r1 = Database.query db sql in
  Alcotest.(check int) "first run misses" 1 (pc_stats db).Plan_cache.misses;
  Alcotest.(check int) "no hit yet" 0 (pc_stats db).Plan_cache.hits;
  let r2 = Database.query db sql in
  Alcotest.(check int) "second run hits" 1 (pc_stats db).Plan_cache.hits;
  Alcotest.(check (list int)) "same rows" (sorted_ids r1) (sorted_ids r2);
  Alcotest.(check int) "one entry" 1 (Database.plan_cache_size db)

let test_plan_cache_invalidation () =
  let db = plan_cache_db () in
  let sql = "SELECT id FROM t WHERE v BETWEEN 5 AND 20" in
  let baseline = sorted_ids (Database.query db sql) in
  Alcotest.(check int) "seq scan before index" 1 (Database.stats db).Exec.seq_scans;
  Database.create_index db ~table:"t" ~column:"v";
  let again = sorted_ids (Database.query db sql) in
  (* The pre-index plan must not be reused: the epoch bump invalidates it
     and the re-planned statement goes through the new index. *)
  Alcotest.(check int) "index scan after CREATE INDEX" 1
    (Database.stats db).Exec.index_scans;
  Alcotest.(check int) "entry invalidated" 1 (pc_stats db).Plan_cache.invalidations;
  Alcotest.(check (list int)) "same answer" baseline again;
  (* CREATE TABLE bumps the epoch too. *)
  ignore (Database.query db sql);
  ignore
    (Database.create_table db ~name:"u"
       ~schema:(Schema.make [ { Schema.name = "x"; ty = Value.TInt } ]));
  ignore (Database.query db sql);
  Alcotest.(check int) "schema change invalidates" 2
    (pc_stats db).Plan_cache.invalidations

let test_plan_cache_eviction () =
  let db = plan_cache_db ~plan_cache_capacity:2 () in
  let q i = Printf.sprintf "SELECT id FROM t WHERE v = %d" i in
  ignore (Database.query db (q 1));
  ignore (Database.query db (q 2));
  ignore (Database.query db (q 1)); (* refresh 1's recency *)
  ignore (Database.query db (q 3)); (* evicts the LRU entry: 2 *)
  Alcotest.(check int) "bounded" 2 (Database.plan_cache_size db);
  Alcotest.(check int) "one eviction" 1 (pc_stats db).Plan_cache.evictions;
  ignore (Database.query db (q 1));
  Alcotest.(check int) "LRU kept the refreshed entry" 2
    (pc_stats db).Plan_cache.hits

let test_plan_cache_disabled_and_toggle () =
  let db = plan_cache_db ~plan_cache_capacity:0 () in
  ignore (Database.query db "SELECT id FROM t");
  Alcotest.(check bool) "no stats when disabled" true
    (Database.plan_cache_stats db = None);
  Alcotest.(check int) "no entries" 0 (Database.plan_cache_size db);
  Database.set_plan_caching db true;
  ignore (Database.query db "SELECT id FROM t");
  ignore (Database.query db "SELECT id FROM t");
  Alcotest.(check int) "caching after enable" 1 (pc_stats db).Plan_cache.hits;
  Database.set_plan_caching db false;
  Alcotest.(check bool) "disabled again" true
    (Database.plan_cache_stats db = None)

let test_plan_cache_ast_key () =
  let db = plan_cache_db () in
  let sql = "SELECT id FROM t WHERE v = 7" in
  ignore (Database.query_ast db (Sql_parser.parse sql));
  (* A distinct AST value rendering identically shares the entry. *)
  ignore (Database.query_ast db (Sql_parser.parse sql));
  Alcotest.(check int) "canonical rendering hit" 1 (pc_stats db).Plan_cache.hits;
  (* The raw-SQL and AST keyspaces are distinct (the text may normalize). *)
  ignore (Database.query db sql);
  Alcotest.(check int) "sql key is separate" 2 (pc_stats db).Plan_cache.misses

let () =
  Alcotest.run "db"
    [ ( "date",
        [ Alcotest.test_case "epoch" `Quick test_date_epoch;
          Alcotest.test_case "known values" `Quick test_date_known_values;
          QCheck_alcotest.to_alcotest test_date_roundtrip;
          QCheck_alcotest.to_alcotest test_date_sequential;
          Alcotest.test_case "leap years" `Quick test_date_leap_years;
          Alcotest.test_case "add_months clamps" `Quick test_date_add_months_clamps;
          Alcotest.test_case "invalid input" `Quick test_date_invalid ] );
      ( "value",
        [ Alcotest.test_case "compare" `Quick test_value_compare;
          QCheck_alcotest.to_alcotest test_value_like;
          Alcotest.test_case "like non-string" `Quick test_value_like_non_string;
          Alcotest.test_case "coercions" `Quick test_value_coercions ] );
      ( "schema",
        [ Alcotest.test_case "basics" `Quick test_schema_basics;
          Alcotest.test_case "duplicate" `Quick test_schema_duplicate ] );
      ( "btree",
        [ QCheck_alcotest.to_alcotest test_btree_model;
          Alcotest.test_case "bulk + sorted scan" `Slow test_btree_bulk_sorted_scan;
          Alcotest.test_case "duplicates" `Quick test_btree_duplicates;
          Alcotest.test_case "min/max" `Quick test_btree_min_max;
          Alcotest.test_case "empty ranges" `Quick test_btree_empty_range ] );
      ( "ranges",
        [ QCheck_alcotest.to_alcotest test_ranges_normalize;
          QCheck_alcotest.to_alcotest test_ranges_union_intersect;
          Alcotest.test_case "cardinal & merge" `Quick test_ranges_cardinal;
          Alcotest.test_case "adjacency, points, shard-boundary straddles"
            `Quick test_ranges_edges ] );
      ( "sql-frontend",
        [ Alcotest.test_case "lexer" `Quick test_lexer_basics;
          Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "select shape" `Quick test_parser_select_shape;
          Alcotest.test_case "parse errors" `Quick test_parser_errors;
          QCheck_alcotest.to_alcotest test_parser_roundtrip;
          Alcotest.test_case "select round-trip" `Quick test_select_to_string_roundtrip ] );
      ( "sql-traversal",
        [ QCheck_alcotest.to_alcotest test_map_children_identity;
          QCheck_alcotest.to_alcotest test_map_children_children ] );
      ( "null-distinct-having",
        [ Alcotest.test_case "IS NULL" `Quick test_is_null_predicate;
          Alcotest.test_case "SELECT DISTINCT" `Quick test_select_distinct;
          Alcotest.test_case "HAVING" `Quick test_having;
          Alcotest.test_case "round-trips" `Quick test_is_null_roundtrip ] );
      ( "eval",
        [ Alcotest.test_case "arithmetic" `Quick test_eval_arithmetic;
          Alcotest.test_case "date arithmetic" `Quick test_eval_date_arithmetic;
          Alcotest.test_case "null semantics" `Quick test_eval_null_semantics;
          Alcotest.test_case "case" `Quick test_eval_case;
          Alcotest.test_case "columns" `Quick test_eval_columns;
          Alcotest.test_case "aggregate outside context" `Quick
            test_eval_agg_outside_context ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest test_parser_fuzz_total;
          QCheck_alcotest.to_alcotest test_lexer_fuzz_total ] );
      ( "dml",
        [ Alcotest.test_case "create/insert/select" `Quick test_dml_create_insert_select;
          Alcotest.test_case "insert column list" `Quick test_dml_insert_column_list;
          Alcotest.test_case "delete" `Quick test_dml_delete;
          Alcotest.test_case "update" `Quick test_dml_update;
          Alcotest.test_case "drop" `Quick test_dml_drop;
          Alcotest.test_case "errors" `Quick test_dml_errors;
          Alcotest.test_case "statement round-trip" `Quick test_dml_statement_roundtrip;
          Alcotest.test_case "tombstones" `Quick test_table_tombstones_direct;
          QCheck_alcotest.to_alcotest test_dml_model ] );
      ( "storage",
        [ Alcotest.test_case "string roundtrip" `Quick test_storage_roundtrip;
          Alcotest.test_case "tombstone compaction" `Quick test_storage_compacts_tombstones;
          Alcotest.test_case "file roundtrip" `Quick test_storage_file_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick test_storage_corruption;
          QCheck_alcotest.to_alcotest test_storage_roundtrip_property ] );
      ( "executor",
        [ QCheck_alcotest.to_alcotest test_exec_vs_oracle;
          QCheck_alcotest.to_alcotest test_planner_equivalence;
          Alcotest.test_case "group by oracle" `Quick test_exec_group_by_oracle;
          Alcotest.test_case "order/limit" `Quick test_exec_order_limit;
          Alcotest.test_case "hash join oracle" `Quick test_exec_join_oracle;
          Alcotest.test_case "IN subquery" `Quick test_exec_in_subquery;
          Alcotest.test_case "access paths" `Quick test_exec_index_used;
          Alcotest.test_case "errors" `Quick test_exec_errors;
          Alcotest.test_case "empty aggregate" `Quick test_exec_empty_aggregate;
          Alcotest.test_case "case + division" `Quick test_exec_case_division;
          Alcotest.test_case "three-table join" `Quick test_exec_three_table_join;
          Alcotest.test_case "cross join" `Quick test_exec_cross_join;
          Alcotest.test_case "order by alias" `Quick test_exec_order_by_alias;
          Alcotest.test_case "limit 0" `Quick test_exec_limit_zero;
          Alcotest.test_case "min/max on strings" `Quick test_exec_min_max_non_numeric;
          Alcotest.test_case "projection names" `Quick test_exec_projection_names;
          Alcotest.test_case "group by expression" `Quick test_exec_group_by_expression;
          QCheck_alcotest.to_alcotest test_exec_join_property;
          Alcotest.test_case "JOIN ... ON syntax" `Quick test_join_on_syntax;
          Alcotest.test_case "chained JOIN ... ON" `Quick test_join_on_three_way ] );
      ( "plan-cache",
        [ Alcotest.test_case "hit skips parse and plan" `Quick test_plan_cache_hits;
          Alcotest.test_case "DDL invalidates" `Quick test_plan_cache_invalidation;
          Alcotest.test_case "LRU eviction" `Quick test_plan_cache_eviction;
          Alcotest.test_case "disable / runtime toggle" `Quick
            test_plan_cache_disabled_and_toggle;
          Alcotest.test_case "AST canonical key" `Quick test_plan_cache_ast_key ] ) ]
