type binop = Add | Sub | Mul | Div

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type agg_kind = Count | Sum | Avg | Min | Max

type expr =
  | Lit of Value.t
  | Col of string option * string
  | Binop of binop * expr * expr
  | Cmp of cmp * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | Between of expr * expr * expr
  | In_list of expr * expr list
  | In_select of expr * select
  | Like of expr * string
  | Case of (expr * expr) list * expr option
  | Is_null of expr
  | Agg of agg_kind * expr option

and select = {
  distinct : bool;
  projections : projection list;
  from : from_item list;
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : (expr * order) list;
  limit : int option;
}

and projection = Star | Proj of expr * string option

and from_item = { table : string; alias : string option }

and order = Asc | Desc

type statement =
  | Select_stmt of select
  | Insert_stmt of {
      table : string;
      columns : string list option;
      rows : expr list list;
    }
  | Create_table_stmt of {
      table : string;
      columns : (string * Value.ty) list;
    }
  | Create_index_stmt of { table : string; column : string }
  | Delete_stmt of { table : string; where : expr option }
  | Update_stmt of {
      table : string;
      assignments : (string * expr) list;
      where : expr option;
    }
  | Drop_table_stmt of string

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let rec disjuncts = function
  | Or (a, b) -> disjuncts a @ disjuncts b
  | e -> [ e ]

let fold_right_nonempty op = function
  | [] -> invalid_arg "Sql_ast: empty expression list"
  | first :: rest ->
    List.fold_left (fun acc e -> op acc e) first rest

let or_of_list exprs = fold_right_nonempty (fun a b -> Or (a, b)) exprs

let and_of_list exprs = fold_right_nonempty (fun a b -> And (a, b)) exprs

(* The one list of each constructor's sub-expressions. The statement
   inside [In_select] is not a child: it is its own scope. *)
let children = function
  | Lit _ | Col _ | Agg (_, None) -> []
  | Not e | Like (e, _) | Is_null e | In_select (e, _) | Agg (_, Some e) -> [ e ]
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) -> [ a; b ]
  | Between (e, lo, hi) -> [ e; lo; hi ]
  | In_list (e, es) -> e :: es
  | Case (arms, else_) ->
    List.concat_map (fun (c, v) -> [ c; v ]) arms @ Option.to_list else_

let map_children f = function
  | (Lit _ | Col _ | Agg (_, None)) as e -> e
  | Binop (op, a, b) -> Binop (op, f a, f b)
  | Cmp (op, a, b) -> Cmp (op, f a, f b)
  | And (a, b) -> And (f a, f b)
  | Or (a, b) -> Or (f a, f b)
  | Not e -> Not (f e)
  | Between (e, lo, hi) -> Between (f e, f lo, f hi)
  | In_list (e, es) -> In_list (f e, List.map f es)
  | In_select (e, s) -> In_select (f e, s)
  | Like (e, pat) -> Like (f e, pat)
  | Case (arms, else_) ->
    Case (List.map (fun (c, v) -> (f c, f v)) arms, Option.map f else_)
  | Is_null e -> Is_null (f e)
  | Agg (kind, Some e) -> Agg (kind, Some (f e))

let rec exists p e = p e || List.exists (exists p) (children e)

let has_aggregate = exists (function Agg _ -> true | _ -> false)

let has_subquery = exists (function In_select _ -> true | _ -> false)

let binop_symbol = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let cmp_symbol = function
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let agg_name = function
  | Count -> "count" | Sum -> "sum" | Avg -> "avg" | Min -> "min" | Max -> "max"

let lit_to_string = function
  | Value.Null -> "NULL"
  | Value.Bool b -> if b then "TRUE" else "FALSE"
  | Value.Int i -> string_of_int i
  | Value.Float f ->
    (* Prefer the short %.12g form, but fall back to %.17g when it does not
       read back as exactly the same float: rendered statements are replayed
       through the parser (WAL replication, plan-cache keys), so the
       round-trip must be lossless bit-for-bit. Keep a decimal point so the
       lexer reads it back as a float either way. *)
    let short = Printf.sprintf "%.12g" f in
    let s =
      if Float.equal (float_of_string short) f then short
      else Printf.sprintf "%.17g" f
    in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
    then s
    else s ^ ".0"
  | Value.Str s -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  | Value.Date d -> "DATE '" ^ Date.to_string d ^ "'"

let rec expr_to_string e =
  (* Fully parenthesized output: trivially re-parseable. *)
  match e with
  | Lit v -> lit_to_string v
  | Col (None, c) -> c
  | Col (Some q, c) -> q ^ "." ^ c
  | Binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr_to_string a) (binop_symbol op) (expr_to_string b)
  | Cmp (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr_to_string a) (cmp_symbol op) (expr_to_string b)
  | And (a, b) -> Printf.sprintf "(%s AND %s)" (expr_to_string a) (expr_to_string b)
  | Or (a, b) -> Printf.sprintf "(%s OR %s)" (expr_to_string a) (expr_to_string b)
  | Not a -> Printf.sprintf "(NOT %s)" (expr_to_string a)
  | Between (e, lo, hi) ->
    Printf.sprintf "(%s BETWEEN %s AND %s)" (expr_to_string e) (expr_to_string lo)
      (expr_to_string hi)
  | In_list (e, es) ->
    Printf.sprintf "(%s IN (%s))" (expr_to_string e)
      (String.concat ", " (List.map expr_to_string es))
  | In_select (e, s) ->
    Printf.sprintf "(%s IN (%s))" (expr_to_string e) (select_to_string s)
  | Like (e, pat) ->
    Printf.sprintf "(%s LIKE %s)" (expr_to_string e) (lit_to_string (Value.Str pat))
  | Case (arms, else_) ->
    let arm (c, v) =
      Printf.sprintf "WHEN %s THEN %s" (expr_to_string c) (expr_to_string v)
    in
    let else_part =
      match else_ with
      | Some e -> " ELSE " ^ expr_to_string e
      | None -> ""
    in
    Printf.sprintf "(CASE %s%s END)" (String.concat " " (List.map arm arms)) else_part
  | Is_null e -> Printf.sprintf "(%s IS NULL)" (expr_to_string e)
  | Agg (Count, None) -> "count(*)"
  | Agg (kind, Some e) -> Printf.sprintf "%s(%s)" (agg_name kind) (expr_to_string e)
  | Agg (kind, None) -> Printf.sprintf "%s(*)" (agg_name kind)

and select_to_string s =
  let projection = function
    | Star -> "*"
    | Proj (e, None) -> expr_to_string e
    | Proj (e, Some alias) -> expr_to_string e ^ " AS " ^ alias
  in
  let from_item { table; alias } =
    match alias with None -> table | Some a -> table ^ " " ^ a
  in
  let buf = Buffer.create 128 in
  Buffer.add_string buf "SELECT ";
  if s.distinct then Buffer.add_string buf "DISTINCT ";
  Buffer.add_string buf (String.concat ", " (List.map projection s.projections));
  Buffer.add_string buf " FROM ";
  Buffer.add_string buf (String.concat ", " (List.map from_item s.from));
  (match s.where with
  | Some w ->
    Buffer.add_string buf " WHERE ";
    Buffer.add_string buf (expr_to_string w)
  | None -> ());
  if s.group_by <> [] then begin
    Buffer.add_string buf " GROUP BY ";
    Buffer.add_string buf (String.concat ", " (List.map expr_to_string s.group_by))
  end;
  (match s.having with
  | Some h ->
    Buffer.add_string buf " HAVING ";
    Buffer.add_string buf (expr_to_string h)
  | None -> ());
  if s.order_by <> [] then begin
    Buffer.add_string buf " ORDER BY ";
    Buffer.add_string buf
      (String.concat ", "
         (List.map
            (fun (e, o) ->
              expr_to_string e ^ (match o with Asc -> " ASC" | Desc -> " DESC"))
            s.order_by))
  end;
  (match s.limit with
  | Some n ->
    Buffer.add_string buf " LIMIT ";
    Buffer.add_string buf (string_of_int n)
  | None -> ());
  Buffer.contents buf

let ty_keyword = function
  | Value.TInt -> "INTEGER"
  | Value.TFloat -> "FLOAT"
  | Value.TStr -> "TEXT"
  | Value.TBool -> "BOOLEAN"
  | Value.TDate -> "DATE"

let statement_to_string = function
  | Select_stmt s -> select_to_string s
  | Insert_stmt { table; columns; rows } ->
    let cols =
      match columns with
      | None -> ""
      | Some cs -> " (" ^ String.concat ", " cs ^ ")"
    in
    let one row = "(" ^ String.concat ", " (List.map expr_to_string row) ^ ")" in
    Printf.sprintf "INSERT INTO %s%s VALUES %s" table cols
      (String.concat ", " (List.map one rows))
  | Create_table_stmt { table; columns } ->
    Printf.sprintf "CREATE TABLE %s (%s)" table
      (String.concat ", "
         (List.map (fun (name, ty) -> name ^ " " ^ ty_keyword ty) columns))
  | Create_index_stmt { table; column } ->
    Printf.sprintf "CREATE INDEX ON %s (%s)" table column
  | Delete_stmt { table; where } ->
    Printf.sprintf "DELETE FROM %s%s" table
      (match where with None -> "" | Some w -> " WHERE " ^ expr_to_string w)
  | Update_stmt { table; assignments; where } ->
    Printf.sprintf "UPDATE %s SET %s%s" table
      (String.concat ", "
         (List.map (fun (c, e) -> c ^ " = " ^ expr_to_string e) assignments))
      (match where with None -> "" | Some w -> " WHERE " ^ expr_to_string w)
  | Drop_table_stmt table -> "DROP TABLE " ^ table
