open Sql_ast

exception Exec_error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Exec_error msg)) fmt

module Metrics = Mope_obs.Metrics
module Trace = Mope_obs.Trace

(* Registered at module init; all no-ops until Metrics.set_enabled true. *)
let m_queries =
  Metrics.counter ~help:"SELECT statements executed" "mope_exec_queries_total"
    ()

let m_seq_scans =
  Metrics.counter ~help:"Sequential scans" "mope_exec_seq_scans_total" ()

let m_index_scans =
  Metrics.counter ~help:"B-tree index scans" "mope_exec_index_scans_total" ()

let m_rows_scanned =
  Metrics.counter ~help:"Rows touched by scans" "mope_exec_rows_scanned_total"
    ()

type stats = {
  mutable queries : int;
  mutable seq_scans : int;
  mutable index_scans : int;
  mutable index_ranges : int;
  mutable rows_scanned : int;
  mutable rows_returned : int;
}

let create_stats () =
  { queries = 0; seq_scans = 0; index_scans = 0; index_ranges = 0;
    rows_scanned = 0; rows_returned = 0 }

let reset_stats s =
  s.queries <- 0;
  s.seq_scans <- 0;
  s.index_scans <- 0;
  s.index_ranges <- 0;
  s.rows_scanned <- 0;
  s.rows_returned <- 0

type result = {
  columns : string list;
  rows : Value.t array list;
}

type plan_info = { access_paths : string list }

(* ------------------------------------------------------------------ *)
(* Binding *)

type source = {
  stable : Table.t;
  alias : string;
  offset : int; (* start of this source's columns in the combined row *)
}

let bind_sources ~catalog from =
  if from = [] then error "FROM clause is empty";
  let offset = ref 0 in
  let sources =
    List.map
      (fun { table; alias } ->
        match catalog table with
        | None -> error "unknown table %s" table
        | Some stable ->
          let src =
            { stable;
              alias = (match alias with Some a -> a | None -> table);
              offset = !offset }
          in
          offset := !offset + Schema.arity (Table.schema stable);
          src)
      from
  in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s.alias then error "duplicate table alias %s" s.alias;
      Hashtbl.add seen s.alias ())
    sources;
  sources

(* Resolve a column reference against a set of sources, yielding the offset
   in the combined row. *)
let resolve_in sources (qualifier, name) =
  match qualifier with
  | Some q -> begin
    match List.find_opt (fun s -> String.equal s.alias q) sources with
    | None -> raise (Eval.Eval_error (Printf.sprintf "unknown table alias %s" q))
    | Some s -> begin
      match Schema.find (Table.schema s.stable) name with
      | Some _ -> s.offset + Schema.index_of (Table.schema s.stable) name
      | None ->
        raise (Eval.Eval_error (Printf.sprintf "unknown column %s.%s" q name))
    end
  end
  | None -> begin
    let hits =
      List.filter_map
        (fun s ->
          match Schema.find (Table.schema s.stable) name with
          | Some _ -> Some (s.offset + Schema.index_of (Table.schema s.stable) name)
          | None -> None)
        sources
    in
    match hits with
    | [ off ] -> off
    | [] -> raise (Eval.Eval_error (Printf.sprintf "unknown column %s" name))
    | _ -> raise (Eval.Eval_error (Printf.sprintf "ambiguous column %s" name))
  end

let env_of sources = { Eval.resolve = resolve_in sources }

(* Whether every column reference resolves against [sources] (nested
   selects excluded: they resolve in their own scope). *)
let refs_within sources expr =
  not
    (Sql_ast.exists
       (function
         | Col (q, n) -> (
           match resolve_in sources (q, n) with
           | _ -> false
           | exception Eval.Eval_error _ -> true)
         | _ -> false)
       expr)

(* ------------------------------------------------------------------ *)
(* Sargable range extraction *)

let int_of_lit = function
  | Value.Int i -> Some i
  | Value.Date d -> Some d
  | Value.Null | Value.Bool _ | Value.Float _ | Value.Str _ -> None

(* Try to view [expr] as a union of ranges over a single column of [source].
   Returns the column position (within the source schema) and the range set. *)
let rec range_form source expr =
  let col_of = function
    | Col (q, n) -> begin
      match resolve_in [ { source with offset = 0 } ] (q, n) with
      | off -> Some off
      | exception Eval.Eval_error _ -> None
    end
    | _ -> None
  in
  let bound op v =
    match op with
    | Eq -> Ranges.singleton ~lo:v ~hi:v
    | Lt -> if v = min_int then Ranges.empty else Ranges.singleton ~lo:min_int ~hi:(v - 1)
    | Le -> Ranges.singleton ~lo:min_int ~hi:v
    | Gt -> if v = max_int then Ranges.empty else Ranges.singleton ~lo:(v + 1) ~hi:max_int
    | Ge -> Ranges.singleton ~lo:v ~hi:max_int
    | Ne -> Ranges.full (* not sargable as a single interval; over-approximate *)
  in
  let flip = function
    | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | Eq -> Eq | Ne -> Ne
  in
  match expr with
  | Cmp (op, col_expr, Lit v) -> begin
    match (col_of col_expr, int_of_lit v) with
    | Some col, Some i when op <> Ne -> Some (col, bound op i)
    | _ -> None
  end
  | Cmp (op, Lit v, col_expr) -> begin
    match (col_of col_expr, int_of_lit v) with
    | Some col, Some i when op <> Ne -> Some (col, bound (flip op) i)
    | _ -> None
  end
  | Between (col_expr, Lit lo, Lit hi) -> begin
    match (col_of col_expr, int_of_lit lo, int_of_lit hi) with
    | Some col, Some a, Some b -> Some (col, Ranges.singleton ~lo:a ~hi:b)
    | _ -> None
  end
  | Or (a, b) -> begin
    match (range_form source a, range_form source b) with
    | Some (ca, ra), Some (cb, rb) when Int.equal ca cb ->
      Some (ca, Ranges.union ra rb)
    | _ -> None
  end
  | And (a, b) -> begin
    match (range_form source a, range_form source b) with
    | Some (ca, ra), Some (cb, rb) when Int.equal ca cb ->
      Some (ca, Ranges.intersect ra rb)
    | _ -> None
  end
  | _ -> None

type access =
  | Seq_scan
  | Index_scan of { col : int; ranges : Ranges.t }

type plan = { accesses : (string * access) list }

(* Choose an access path for [source] given its single-source conjuncts: the
   indexed column constrained by the most selective (smallest) range set. *)
let choose_access source conjuncts =
  let indexed = Table.indexed_columns source.stable in
  let constraints = Hashtbl.create 4 in
  List.iter
    (fun conjunct ->
      match range_form source conjunct with
      | Some (col, ranges) when List.mem col indexed ->
        let existing =
          match Hashtbl.find_opt constraints col with
          | Some r -> r
          | None -> Ranges.full
        in
        Hashtbl.replace constraints col (Ranges.intersect existing ranges)
      | Some _ | None -> ())
    conjuncts;
  let candidates = Hashtbl.fold (fun col r acc -> (col, r) :: acc) constraints [] in
  let bounded =
    List.filter
      (fun (_, r) -> (not (Ranges.equal r Ranges.full)) && not (Ranges.is_empty r))
      candidates
  in
  let unbounded_empty = List.filter (fun (_, r) -> Ranges.is_empty r) candidates in
  match (unbounded_empty, bounded) with
  | (col, _) :: _, _ -> Index_scan { col; ranges = Ranges.empty }
  | [], [] -> Seq_scan
  | [], candidates ->
    let weight (_, r) =
      (* Prefer fewer covered values; clamp the huge half-open bounds. *)
      List.fold_left
        (fun acc (lo, hi) ->
          if lo = min_int || hi = max_int then acc +. 1e18
          else acc +. float_of_int (hi - lo + 1))
        0.0 (Ranges.intervals r)
    in
    let best =
      List.fold_left
        (fun best c -> if weight c < weight best then c else best)
        (List.hd candidates) (List.tl candidates)
    in
    Index_scan { col = fst best; ranges = snd best }

(* Classify WHERE conjuncts against the bound sources: single-source
   filters (keyed by alias), equi-join predicates, and residual (post-join)
   checks. Pure function of (sources, conjuncts) — shared by planning and
   execution so a cached plan describes exactly the classification the
   executor will recompute. *)
let classify_conjuncts sources conjuncts =
  let per_source = Hashtbl.create 4 in
  let joins = ref [] and residual = ref [] in
  List.iter
    (fun conjunct ->
      let owners = List.filter (fun s -> refs_within [ s ] conjunct) sources in
      match owners with
      | s :: _ when refs_within [ s ] conjunct ->
        Hashtbl.replace per_source s.alias
          (conjunct :: Option.value ~default:[] (Hashtbl.find_opt per_source s.alias))
      | _ -> begin
        match conjunct with
        | Cmp (Eq, a, b) -> begin
          let owner e = List.find_opt (fun s -> refs_within [ s ] e) sources in
          match (owner a, owner b) with
          | Some sa, Some sb when not (String.equal sa.alias sb.alias) ->
            joins := (sa, a, sb, b) :: !joins
          | _ -> residual := conjunct :: !residual
        end
        | _ -> residual := conjunct :: !residual
      end)
    conjuncts;
  (per_source, !joins, !residual)

let source_filters per_source s =
  Option.value ~default:[] (Hashtbl.find_opt per_source s.alias)

(* The access-path half of planning, split from execution so repeated
   statements can skip it (see {!Plan_cache} / [Database.query]). *)
let plan_select ~catalog select =
  let sources = bind_sources ~catalog select.from in
  let conjuncts = match select.where with None -> [] | Some w -> Sql_ast.conjuncts w in
  let per_source, _, _ = classify_conjuncts sources conjuncts in
  { accesses =
      List.map
        (fun s -> (s.alias, choose_access s (source_filters per_source s)))
        sources }

(* ------------------------------------------------------------------ *)
(* Scanning and joining *)

let scan_source ~stats source access filter =
  Trace.with_span "storage_scan" (fun () ->
      let keep =
        match filter with
        | None -> fun _ -> true
        | Some f -> fun row -> Eval.truthy (f row)
      in
      let before = stats.rows_scanned in
      let rows =
        match access with
        | Seq_scan ->
          stats.seq_scans <- stats.seq_scans + 1;
          Metrics.inc m_seq_scans;
          let out = ref [] in
          Table.iter source.stable (fun _ row ->
              stats.rows_scanned <- stats.rows_scanned + 1;
              if keep row then out := row :: !out);
          List.rev !out
        | Index_scan { col; ranges } ->
          stats.index_scans <- stats.index_scans + 1;
          stats.index_ranges <-
            stats.index_ranges + List.length (Ranges.intervals ranges);
          Metrics.inc m_index_scans;
          Trace.add_item "btree_ranges" (List.length (Ranges.intervals ranges));
          let btree =
            match Table.index_on source.stable col with
            | Some b -> b
            | None -> error "planner chose a missing index"
          in
          let out = ref [] in
          List.iter
            (fun (lo, hi) ->
              Btree.range_fold btree ~lo ~hi ~init:() ~f:(fun () _ id ->
                  stats.rows_scanned <- stats.rows_scanned + 1;
                  let row = Table.get source.stable id in
                  if keep row then out := row :: !out))
            (Ranges.intervals ranges);
          List.rev !out
      in
      let scanned = stats.rows_scanned - before in
      Metrics.inc ~by:scanned m_rows_scanned;
      Trace.add_item "rows_scanned" scanned;
      rows)

let concat_rows a b =
  let out = Array.make (Array.length a + Array.length b) Value.Null in
  Array.blit a 0 out 0 (Array.length a);
  Array.blit b 0 out (Array.length a) (Array.length b);
  out

(* ------------------------------------------------------------------ *)
(* Aggregates *)

let rec collect_aggs expr acc =
  match expr with
  | Agg (kind, arg) -> (kind, arg) :: acc
  | e -> List.fold_left (fun acc c -> collect_aggs c acc) acc (Sql_ast.children e)

let rec substitute_aggs expr lookup =
  match expr with
  | Agg (kind, arg) -> Lit (lookup (kind, arg))
  | e -> Sql_ast.map_children (fun c -> substitute_aggs c lookup) e

(* Compute one aggregate over the rows of a group. *)
let compute_agg ~compile_row (kind, arg) rows =
  match (kind, arg) with
  | Count, None -> Value.Int (List.length rows)
  | _, None -> error "only count(*) may omit an argument"
  | _, Some e ->
    let f = compile_row e in
    let values = List.filter (fun v -> not (Value.is_null v)) (List.map f rows) in
    (match kind with
    | Count -> Value.Int (List.length values)
    | Min ->
      List.fold_left
        (fun acc v ->
          match acc with
          | Value.Null -> v
          | _ -> if Value.compare v acc < 0 then v else acc)
        Value.Null values
    | Max ->
      List.fold_left
        (fun acc v ->
          match acc with
          | Value.Null -> v
          | _ -> if Value.compare v acc > 0 then v else acc)
        Value.Null values
    | Sum | Avg ->
      if values = [] then Value.Null
      else begin
        let all_int = List.for_all (function Value.Int _ -> true | _ -> false) values in
        let total = List.fold_left (fun acc v -> acc +. Value.to_float v) 0.0 values in
        match kind with
        | Avg -> Value.Float (total /. float_of_int (List.length values))
        | _ ->
          if all_int then Value.Int (int_of_float total) else Value.Float total
      end)

(* ------------------------------------------------------------------ *)
(* Projections and output *)

let projection_name i = function
  | Proj (_, Some alias) -> alias
  | Proj (Col (_, name), None) -> name
  | Proj (e, None) -> begin
    match e with
    | Agg _ -> Printf.sprintf "%s" (expr_to_string e)
    | _ -> Printf.sprintf "column%d" (i + 1)
  end
  | Star -> "*"

let expand_projections sources projections =
  List.concat_map
    (function
      | Star ->
        List.concat_map
          (fun s ->
            List.map
              (fun c -> Proj (Col (Some s.alias, c.Schema.name), Some c.Schema.name))
              (Schema.columns (Table.schema s.stable)))
          sources
      | proj -> [ proj ])
    projections

(* ------------------------------------------------------------------ *)
(* The main pipeline *)

let rec run ?plan ~catalog ~stats select =
  stats.queries <- stats.queries + 1;
  Metrics.inc m_queries;
  let result = run_select ?plan ~catalog ~stats select in
  stats.rows_returned <- stats.rows_returned + List.length result.rows;
  result

and subquery_values ~catalog ~stats select =
  let result = run_select ~catalog ~stats select in
  List.map
    (fun row ->
      if Array.length row <> 1 then error "IN subquery must return one column";
      row.(0))
    result.rows

and run_select ?plan ~catalog ~stats select =
  let sources = bind_sources ~catalog select.from in
  let subquery s = subquery_values ~catalog ~stats s in
  let conjuncts = match select.where with None -> [] | Some w -> Sql_ast.conjuncts w in
  let per_source, joins0, residual0 = classify_conjuncts sources conjuncts in
  let joins = ref joins0 and residual = ref residual0 in
  (* Scan each source with its own filters and best access path — the
     cached one when a [plan] for this statement was supplied (subqueries
     below always re-plan: a plan covers only the top-level FROM). *)
  let scanned =
    List.map
      (fun s ->
        let filters = source_filters per_source s in
        let access =
          match plan with
          | Some p -> begin
            match List.assoc_opt s.alias p.accesses with
            | Some access -> access
            | None -> choose_access s filters
          end
          | None -> choose_access s filters
        in
        let local = [ { s with offset = 0 } ] in
        let filter =
          match filters with
          | [] -> None
          | fs -> Some (Eval.compile ~subquery (env_of local) (Sql_ast.and_of_list fs))
        in
        (s, scan_source ~stats s access filter))
      sources
  in
  (* Left-deep join: greedily pick an unjoined source connected to the
     current prefix by an equi-predicate; hash-join it, else cross join. *)
  let joined_rows, joined_sources =
    match scanned with
    | [] -> error "empty FROM"
    | (s0, rows0) :: rest ->
      let placed = ref [ s0 ] and current = ref rows0 in
      let remaining = ref rest in
      let unused_joins = ref !joins in
      while !remaining <> [] do
        (* Find a join predicate connecting placed sources to a pending one. *)
        let pick =
          List.find_opt
            (fun (sa, _, sb, _) ->
              let placed_has s =
                List.exists (fun p -> String.equal p.alias s.alias) !placed
              in
              let pending_has s =
                List.exists (fun (p, _) -> String.equal p.alias s.alias) !remaining
              in
              (placed_has sa && pending_has sb) || (placed_has sb && pending_has sa))
            !unused_joins
        in
        match pick with
        | Some ((sa, ea, sb, eb) as j) ->
          unused_joins := List.filter (fun j' -> j' != j) !unused_joins;
          let placed_has s =
            List.exists (fun p -> String.equal p.alias s.alias) !placed
          in
          let outer_expr, inner_src, inner_expr =
            if placed_has sa then (ea, sb, eb) else (eb, sa, ea)
          in
          let inner_rows =
            match List.assq_opt inner_src !remaining with
            | Some rows -> rows
            | None ->
              (match
                 List.find_opt
                   (fun (p, _) -> String.equal p.alias inner_src.alias)
                   !remaining
               with
              | Some (_, rows) -> rows
              | None -> error "join planning inconsistency")
          in
          remaining :=
            List.filter
              (fun (p, _) -> not (String.equal p.alias inner_src.alias))
              !remaining;
          let outer_key =
            Eval.compile ~subquery (env_of !placed) outer_expr
          in
          let inner_key =
            Eval.compile ~subquery (env_of [ { inner_src with offset = 0 } ]) inner_expr
          in
          (* Build on the inner (new) source, probe with the current rows. *)
          let hash = Hashtbl.create 1024 in
          List.iter
            (fun row ->
              let key = inner_key row in
              if not (Value.is_null key) then
                Hashtbl.add hash key row)
            inner_rows;
          let out = ref [] in
          List.iter
            (fun row ->
              let key = outer_key row in
              if not (Value.is_null key) then
                List.iter
                  (fun inner -> out := concat_rows row inner :: !out)
                  (Hashtbl.find_all hash key))
            !current;
          current := List.rev !out;
          placed := !placed @ [ inner_src ]
        | None ->
          (* No connecting predicate: cross join with the next source. *)
          (match !remaining with
          | (src, rows) :: rest ->
            remaining := rest;
            let out = ref [] in
            List.iter
              (fun row -> List.iter (fun r -> out := concat_rows row r :: !out) rows)
              !current;
            current := List.rev !out;
            placed := !placed @ [ src ]
          | [] ->
            Mope_error.raise_error
              "internal invariant: join order ran out of sources")
      done;
      (* Re-add join predicates as residual checks when sources were joined
         in an order that consumed them, plus any unused join preds. *)
      let leftover =
        List.map (fun (_, a, _, b) -> Cmp (Eq, a, b)) !unused_joins
      in
      residual := leftover @ !residual;
      (!current, !placed)
  in
  (* The combined row layout follows the join order, so recompute offsets. *)
  let combined_sources =
    let offset = ref 0 in
    List.map
      (fun s ->
        let s' = { s with offset = !offset } in
        offset := !offset + Schema.arity (Table.schema s.stable);
        s')
      joined_sources
  in
  let env = env_of combined_sources in
  let rows =
    match !residual with
    | [] -> joined_rows
    | fs ->
      let f = Eval.compile ~subquery env (Sql_ast.and_of_list fs) in
      List.filter (fun row -> Eval.truthy (f row)) joined_rows
  in
  (* Projection / aggregation. *)
  let projections = expand_projections combined_sources select.projections in
  let has_agg =
    List.exists (function Proj (e, _) -> has_aggregate e | Star -> false) projections
    || select.having <> None
  in
  let columns = List.mapi projection_name projections in
  let compile_row e = Eval.compile ~subquery env e in
  let output_with_keys =
    if select.group_by = [] && not has_agg then begin
      (* Plain projection. *)
      let projs =
        List.map
          (function
            | Proj (e, _) -> compile_row e
            | Star ->
              Mope_error.raise_error
                "internal invariant: Star projection survived expansion")
          projections
      in
      let order_keys = List.map (fun (e, _) -> e) select.order_by in
      let order_fns = List.map (fun e -> compile_order_key ~columns ~compile_row e) order_keys in
      List.map
        (fun row ->
          let out = Array.of_list (List.map (fun f -> f row) projs) in
          let keys = List.map (fun f -> f row out) order_fns in
          (out, keys))
        rows
    end
    else begin
      (* Hash aggregation (a single global group when GROUP BY is absent). *)
      let group_fns = List.map compile_row select.group_by in
      let groups : (Value.t list, Value.t array list ref) Hashtbl.t =
        Hashtbl.create 64
      in
      let group_order = ref [] in
      List.iter
        (fun row ->
          let key = List.map (fun f -> f row) group_fns in
          match Hashtbl.find_opt groups key with
          | Some bucket -> bucket := row :: !bucket
          | None ->
            Hashtbl.add groups key (ref [ row ]);
            group_order := key :: !group_order)
        rows;
      let keys_in_order = List.rev !group_order in
      let keys_in_order =
        if keys_in_order = [] && select.group_by = [] then [ [] ] else keys_in_order
      in
      let agg_specs =
        List.concat_map
          (function Proj (e, _) -> collect_aggs e [] | Star -> [])
          projections
        @ List.concat_map (fun (e, _) -> collect_aggs e []) select.order_by
        @ (match select.having with Some h -> collect_aggs h [] | None -> [])
      in
      let agg_specs =
        List.fold_left (fun acc s -> if List.mem s acc then acc else s :: acc) [] agg_specs
      in
      List.filter_map
        (fun key ->
          let bucket =
            match Hashtbl.find_opt groups key with Some b -> !b | None -> []
          in
          let agg_values =
            List.map (fun spec -> (spec, compute_agg ~compile_row spec bucket)) agg_specs
          in
          let lookup spec =
            match List.assoc_opt spec agg_values with
            | Some v -> v
            | None -> error "internal: missing aggregate"
          in
          let representative =
            match bucket with
            | row :: _ -> row
            | [] -> [||] (* empty global group: projections must be pure aggregates *)
          in
          let eval_expr e =
            let substituted = substitute_aggs e lookup in
            (compile_row substituted) representative
          in
          let out =
            Array.of_list
              (List.map
                 (function
                   | Proj (e, _) -> eval_expr e
                   | Star ->
                     Mope_error.raise_error
                       "internal invariant: Star projection survived expansion")
                 projections)
          in
          let keys =
            List.map
              (fun (e, _) ->
                match alias_index ~columns e with
                | Some i -> out.(i)
                | None -> eval_expr e)
              select.order_by
          in
          let keep =
            match select.having with
            | None -> true
            | Some h -> Eval.truthy (eval_expr h)
          in
          if keep then Some (out, keys) else None)
        keys_in_order
    end
  in
  (* SELECT DISTINCT: drop duplicate output rows, keeping first occurrence. *)
  let output_with_keys =
    if not select.distinct then output_with_keys
    else begin
      let seen = Hashtbl.create 64 in
      List.filter
        (fun (out, _) ->
          let key = Array.to_list out in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        output_with_keys
    end
  in
  (* ORDER BY, LIMIT. *)
  let sorted =
    if select.order_by = [] then List.map fst output_with_keys
    else begin
      let dirs = List.map snd select.order_by in
      let cmp (_, ka) (_, kb) =
        let rec go ks1 ks2 ds =
          match (ks1, ks2, ds) with
          | [], [], _ -> 0
          | k1 :: r1, k2 :: r2, d :: rd ->
            let c = Value.compare k1 k2 in
            let c = match d with Asc -> c | Desc -> -c in
            if c <> 0 then c else go r1 r2 rd
          | _ -> 0
        in
        go ka kb dirs
      in
      List.map fst (List.stable_sort cmp output_with_keys)
    end
  in
  let limited =
    match select.limit with
    | None -> sorted
    | Some n -> List.filteri (fun i _ -> i < n) sorted
  in
  { columns; rows = limited }

and alias_index ~columns e =
  match e with
  | Col (None, name) -> begin
    let rec find i = function
      | [] -> None
      | c :: rest -> if String.equal c name then Some i else find (i + 1) rest
    in
    find 0 columns
  end
  | _ -> None

and compile_order_key ~columns ~compile_row e =
  (* ORDER BY may reference a projection alias or any input expression. *)
  match alias_index ~columns e with
  | Some i -> fun _row out -> out.(i)
  | None ->
    let f = compile_row e in
    fun row _out -> f row

let explain ~catalog select =
  let sources = bind_sources ~catalog select.from in
  let conjuncts = match select.where with None -> [] | Some w -> Sql_ast.conjuncts w in
  let per_source, _, _ = classify_conjuncts sources conjuncts in
  let paths =
    List.map
      (fun s ->
        match choose_access s (source_filters per_source s) with
        | Seq_scan -> Printf.sprintf "%s: seq scan" s.alias
        | Index_scan { col; ranges } ->
          let name = (Schema.column_at (Table.schema s.stable) col).Schema.name in
          Printf.sprintf "%s: index scan on %s (%d ranges)" s.alias name
            (List.length (Ranges.intervals ranges)))
      sources
  in
  { access_paths = paths }
