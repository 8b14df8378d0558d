open Mope_stats
open Mope_ope
open Mope_core
open Mope_db

let log_src = Logs.Src.create "mope.proxy" ~doc:"Trusted proxy"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Metrics = Mope_obs.Metrics
module Trace = Mope_obs.Trace

(* Registered at module init; all no-ops until Metrics.set_enabled true.
   Only volumes are exported — never dates, ciphertexts, or the offset. *)
let m_queries =
  Metrics.counter ~help:"Client queries through the proxy pipeline"
    "mope_proxy_queries_total" ()

let m_server_requests =
  Metrics.counter ~help:"Batched fetches sent to the untrusted server"
    "mope_proxy_server_requests_total" ()

let m_real_pieces =
  Metrics.counter ~help:"Real tau_k pieces of client queries executed"
    "mope_proxy_real_pieces_total" ()

let m_fakes =
  Metrics.counter ~help:"Fake (cover-traffic) queries issued"
    "mope_proxy_fake_queries_total" ()

let m_rows_fetched =
  Metrics.counter ~help:"Encrypted rows fetched from the server"
    "mope_proxy_rows_fetched_total" ()

let m_rows_delivered =
  Metrics.counter ~help:"Plaintext rows delivered to the client"
    "mope_proxy_rows_delivered_total" ()

let m_seg_hits =
  Metrics.counter ~help:"OPE segment cache hits"
    "mope_segment_cache_hits_total" ()

let m_seg_misses =
  Metrics.counter ~help:"OPE segment cache misses"
    "mope_segment_cache_misses_total" ()

let m_seg_entries =
  Metrics.gauge ~help:"Live OPE segment cache entries (summed over proxies)"
    "mope_segment_cache_entries" ()

let m_segments_coalesced =
  Metrics.counter
    ~help:"Redundant ciphertext segments merged away before the fetch"
    "mope_proxy_segments_coalesced_total" ()

type counters = {
  mutable client_queries : int;
  mutable real_pieces : int;
  mutable fake_queries : int;
  mutable server_requests : int;
  mutable rows_fetched : int;
  mutable rows_delivered : int;
  mutable segment_cache_hits : int;
  mutable segment_cache_misses : int;
}

type mode =
  | Static of Scheduler.t
  | Learning of Adaptive.t

type fetch_many =
  date_column:string ->
  batches:(int * int) list list ->
  template:Sql_ast.select ->
  Exec.result list

type t = {
  enc : Encrypted_db.t;
  mode : mode;
  k : int;
  batch_size : int;
  fetch_many : fetch_many;
  rng : Rng.t;
  counters : counters;
  seg_cache : (int, (int * int) list) Hashtbl.t option;
      (* coverage start -> encrypted plain_segments; the scheme is
         deterministic for a fixed key, so entries never invalidate, and the
         start domain [0, m) bounds the table. *)
}

(* The single-node fetch: specialize the date-less template with each
   batch's ciphertext ranges and run it on the local server database. A
   cluster coordinator substitutes its scatter-gather here; [add_conjunct]
   keeps the AST — and hence the plan-cache key — identical on both
   paths. *)
let local_fetch_many enc ~date_column ~batches ~template =
  List.map
    (fun segments ->
      Database.query_ast (Encrypted_db.server enc)
        (Rewrite.add_conjunct template
           (Rewrite.cipher_ranges_expr ~column:date_column ~segments)))
    batches

let make ~enc ~mode ~k ~batch_size ~seed ~caching ~fetch_many =
  if batch_size < 1 then invalid_arg "Proxy.create: batch_size";
  let fetch_many =
    match fetch_many with Some f -> f | None -> local_fetch_many enc
  in
  { enc; mode; k; batch_size; fetch_many;
    rng = Rng.create seed;
    counters =
      { client_queries = 0; real_pieces = 0; fake_queries = 0;
        server_requests = 0; rows_fetched = 0; rows_delivered = 0;
        segment_cache_hits = 0; segment_cache_misses = 0 };
    seg_cache = (if caching then Some (Hashtbl.create 256) else None) }

let create ~enc ~scheduler ?(batch_size = 1) ?(caching = true) ?fetch_many
    ~seed () =
  if Scheduler.m scheduler <> Encrypted_db.date_domain enc then
    invalid_arg "Proxy.create: scheduler domain <> encrypted date domain";
  make ~enc ~mode:(Static scheduler) ~k:(Scheduler.k scheduler) ~batch_size ~seed
    ~caching ~fetch_many

let create_adaptive ~enc ~k ?rho ?(batch_size = 1) ?(caching = true)
    ?fetch_many ~seed () =
  let m = Encrypted_db.date_domain enc in
  let amode =
    match rho with
    | None -> Adaptive.Uniform
    | Some rho -> Adaptive.Periodic rho
  in
  make ~enc ~mode:(Learning (Adaptive.create ~m ~k ~mode:amode)) ~k ~batch_size
    ~seed ~caching ~fetch_many

let adaptive_state t =
  match t.mode with Learning a -> Some a | Static _ -> None

let counters t = t.counters

let reset_counters t =
  let c = t.counters in
  c.client_queries <- 0;
  c.real_pieces <- 0;
  c.fake_queries <- 0;
  c.server_requests <- 0;
  c.rows_fetched <- 0;
  c.rows_delivered <- 0;
  c.segment_cache_hits <- 0;
  c.segment_cache_misses <- 0

let segment_cache_size t =
  match t.seg_cache with None -> 0 | Some tbl -> Hashtbl.length tbl

let server_database t = Encrypted_db.server t.enc

(* Coverage start -> ciphertext segments of its τ_k window, through the
   memo when one is enabled (two encrypt walks per endpoint otherwise). *)
let segments_for t ~m start =
  let compute () =
    let coverage = Query_model.coverage ~m ~k:t.k start in
    Encrypted_db.plain_segments t.enc ~lo:coverage.Query_model.lo
      ~hi:coverage.Query_model.hi
  in
  match t.seg_cache with
  | None -> compute ()
  | Some tbl -> begin
    match Hashtbl.find_opt tbl start with
    | Some segs ->
      t.counters.segment_cache_hits <- t.counters.segment_cache_hits + 1;
      Metrics.inc m_seg_hits;
      segs
    | None ->
      t.counters.segment_cache_misses <- t.counters.segment_cache_misses + 1;
      Metrics.inc m_seg_misses;
      let segs = compute () in
      Hashtbl.replace tbl start segs;
      Metrics.gauge_add m_seg_entries 1;
      segs
  end

(* Split a list into chunks of [size], preserving order. *)
let chunks size items =
  let rec go acc current n = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | x :: rest ->
      if n = size then go (List.rev current :: acc) [ x ] 1 rest
      else go acc (x :: current) (n + 1) rest
  in
  go [] [] 0 items

(* The combined plaintext schema of the fetch result (FROM-order concat). *)
let combined_schema enc from =
  Schema.make
    (List.concat_map
       (fun { Sql_ast.table; _ } ->
         Schema.columns (Encrypted_db.plain_schema enc table))
       from)

let decrypt_combined enc ?keep from row =
  let out = Array.copy row in
  let offset = ref 0 in
  List.iter
    (fun { Sql_ast.table; _ } ->
      let schema = Encrypted_db.plain_schema enc table in
      let arity = Schema.arity schema in
      let slice = Array.sub row !offset arity in
      let plain = Encrypted_db.decrypt_row enc ~table ?keep slice in
      Array.blit plain 0 out !offset arity;
      offset := !offset + arity)
    from;
  out

(* Conjuncts containing IN (SELECT …) were fully enforced by the server over
   encrypted data (DET equality); the referenced tables are not available to
   the proxy's local re-evaluation, so drop them there. *)
let local_statement ast =
  let where =
    match ast.Sql_ast.where with
    | None -> None
    | Some w -> begin
      match List.filter (fun c -> not (Sql_ast.has_subquery c)) (Sql_ast.conjuncts w) with
      | [] -> None
      | kept -> Some (Sql_ast.and_of_list kept)
    end
  in
  { ast with
    Sql_ast.from = [ { Sql_ast.table = "__fetched"; alias = None } ];
    where }

(* Column names the local re-evaluation of a statement can read — [None]
   when a [Star] projection forces every column. Qualifiers are dropped
   and nested selects walked too: over-collection across same-named
   columns of different tables costs a decryption, never correctness. *)
let referenced_columns select =
  let star = ref false in
  let names = Hashtbl.create 16 in
  let rec walk_expr e =
    (match e with
    | Sql_ast.Col (_, name) -> Hashtbl.replace names name ()
    | Sql_ast.In_select (_, s) -> walk_select s
    | _ -> ());
    List.iter walk_expr (Sql_ast.children e)
  and walk_select s =
    List.iter
      (function Sql_ast.Star -> star := true | Sql_ast.Proj (e, _) -> walk_expr e)
      s.Sql_ast.projections;
    Option.iter walk_expr s.Sql_ast.where;
    List.iter walk_expr s.Sql_ast.group_by;
    Option.iter walk_expr s.Sql_ast.having;
    List.iter (fun (e, _) -> walk_expr e) s.Sql_ast.order_by
  in
  walk_select select;
  if !star then None else Some names

(* The decryption-elision predicate for a client statement: only columns
   its local re-evaluation reads are worth decrypting; anything else in
   the combined row may surface as [Null] ([Encrypted_db.decrypt_row]'s
   [keep]). The biggest win on the TPC-H templates is the DET join keys —
   fetched with every row, read by no re-evaluated expression. *)
let keep_for ast =
  match referenced_columns (local_statement ast) with
  | None -> None
  | Some names -> Some (fun col -> Hashtbl.mem names col)

(* The executed start sequence for one client query: (start, Some piece_idx)
   for a real tau_k piece, (start, None) for a fake. *)
let plan_executions t pieces =
  match t.mode with
  | Static scheduler ->
    List.concat
      (List.mapi
         (fun piece_idx real ->
           let burst = Scheduler.schedule scheduler t.rng ~real in
           let n = List.length burst in
           t.counters.fake_queries <- t.counters.fake_queries + (n - 1);
           List.mapi
             (fun i start -> (start, if i = n - 1 then Some piece_idx else None))
             burst)
         pieces)
  | Learning adaptive ->
    (* AdaptiveQueryU/P: buffer the pieces, then keep stepping until every
       one has been served by a buffer hit. With a synchronous client, all
       earlier pending instances were already served, so Real events belong
       to this query. *)
    List.iter (Adaptive.observe adaptive) pieces;
    let awaiting = Hashtbl.create 8 in
    List.iteri (fun idx start -> Hashtbl.replace awaiting start idx) pieces;
    let out = ref [] and served = ref 0 in
    let n_pieces = List.length pieces in
    while !served < n_pieces do
      match Adaptive.step adaptive t.rng with
      | Some (Adaptive.Real start) -> begin
        match Hashtbl.find_opt awaiting start with
        | Some idx ->
          Hashtbl.remove awaiting start;
          incr served;
          out := (start, Some idx) :: !out
        | None ->
          (* A pending instance of some earlier, abandoned query: execute it
             as cover traffic. *)
          t.counters.fake_queries <- t.counters.fake_queries + 1;
          out := (start, None) :: !out
      end
      | Some (Adaptive.Fake start | Adaptive.Replay start) ->
        t.counters.fake_queries <- t.counters.fake_queries + 1;
        out := (start, None) :: !out
      | None -> served := n_pieces (* unreachable: the buffer is non-empty *)
    done;
    List.rev !out

(* The MOPE range to fetch, as offsets into the window: the request's
   range clamped to the encryption window, where every row lies ([None]
   when nothing is left) — or the whole window when a conjunct reads the
   date column other than as a top-level comparison with a literal (inside
   OR, NOT or CASE, or with [<>]), since the rows it keeps can lie
   anywhere. The local re-evaluation applies the full WHERE either way. *)
let fetch_range ~m ~window_lo ast ~date_column ~date_lo ~date_hi =
  let widens = function
    | Sql_ast.Cmp ((Eq | Lt | Le | Gt | Ge), Sql_ast.Col (_, c), Sql_ast.Lit _)
    | Sql_ast.Cmp ((Eq | Lt | Le | Gt | Ge), Sql_ast.Lit _, Sql_ast.Col (_, c))
    | Sql_ast.Between (Sql_ast.Col (_, c), Sql_ast.Lit _, Sql_ast.Lit _)
      when String.equal c date_column ->
      false
    | c -> Rewrite.references_column c ~column:date_column
  in
  let conjuncts =
    match ast.Sql_ast.where with None -> [] | Some w -> Sql_ast.conjuncts w
  in
  if List.exists widens conjuncts then Some (Query_model.make ~m ~lo:0 ~hi:(m - 1))
  else
    let lo = Int.max date_lo window_lo - window_lo
    and hi = Int.min date_hi (window_lo + m - 1) - window_lo in
    if lo > hi then None else Some (Query_model.make ~m ~lo ~hi)

(* The fetch half of the pipeline: parse, transform, schedule fakes, fetch
   and decrypt — everything up to (but not including) the local
   re-evaluation. Exposed separately so a caller holding {e two} handles
   over the same plaintext (the dual-key window of an online rotation) can
   pool the surviving plaintext rows of both generations and evaluate the
   client's statement once over the union. *)
let fetch_decrypted t ~sql ~date_column ~date_lo ~date_hi =
  let ast = Sql_parser.parse sql in
  let enc = t.enc in
  let m = Encrypted_db.date_domain enc in
  let k = t.k in
  let range =
    fetch_range ~m ~window_lo:(Encrypted_db.window_lo enc) ast ~date_column
      ~date_lo ~date_hi
  in
  let pieces =
    match range with None -> [] | Some r -> Query_model.transform ~m ~k r
  in
  (* The date-less fetch template: every batch (and, in a cluster, every
     shard) specializes it with its own ciphertext-range conjunct. *)
  let template =
    Rewrite.to_fetch (Rewrite.strip_date_predicates ast ~column:date_column)
  in
  t.counters.client_queries <- t.counters.client_queries + 1;
  t.counters.real_pieces <- t.counters.real_pieces + List.length pieces;
  Metrics.inc m_queries;
  Metrics.inc ~by:(List.length pieces) m_real_pieces;
  let fakes_before = t.counters.fake_queries in
  let executed = plan_executions t pieces in
  Metrics.inc ~by:(t.counters.fake_queries - fakes_before) m_fakes;
  (* The τ_k piece a decrypted date belongs to, if the range holds it. *)
  let piece_of plain =
    match range with
    | Some { Query_model.lo; hi } when Modular.mem ~m ~lo ~hi plain ->
      Some (Modular.forward_distance ~m lo plain / k)
    | _ -> None
  in
  let keep = keep_for ast in
  let accepted = ref [] in
  (* Phase 1 — every batch's ciphertext segments, before any fetch: the
     whole fake+real execution plan is known up front, so the fetch seam
     receives it in one call and a remote implementation can ship the
     batches down one pipelined connection instead of one round trip
     each. *)
  let batches = chunks t.batch_size executed in
  let segments_of batch =
    (* MOPE range → ciphertext segments: one encrypt walk per segment
       endpoint (memoized per start when caching is on), so this span
       carries the query's OPE encryption cost. *)
    Trace.with_span "ope_segments" (fun () ->
        let raw =
          Trace.with_span "segment_cache" (fun () ->
              let hits0 = t.counters.segment_cache_hits
              and misses0 = t.counters.segment_cache_misses in
              let segs =
                List.concat_map (fun (start, _) -> segments_for t ~m start)
                  batch
              in
              Trace.add_item "hits" (t.counters.segment_cache_hits - hits0);
              Trace.add_item "misses"
                (t.counters.segment_cache_misses - misses0);
              segs)
        in
        (* Coalesce before building the fetch predicate: batched starts
           overlap (adjacent τ_k pieces, repeated fakes), and merging
           covers the same ciphertext set while the server walks each
           index range — and scans each row — at most once. *)
        let segs = Ranges.normalize raw in
        Metrics.inc ~by:(List.length raw - List.length segs)
          m_segments_coalesced;
        Trace.add_item "segments_raw" (List.length raw);
        Trace.add_item "segments" (List.length segs);
        segs)
  in
  let batch_segments = List.map segments_of batches in
  (* Phase 2 — one fetch-seam call for the whole plan. *)
  let results =
    Trace.with_span "server_fetch" (fun () ->
        let results =
          t.fetch_many ~date_column ~batches:batch_segments ~template
        in
        if List.length results <> List.length batches then
          invalid_arg "Proxy: fetch_many arity mismatch";
        Trace.add_item "rows_fetched"
          (List.fold_left
             (fun acc r -> acc + List.length r.Exec.rows)
             0 results);
        results)
  in
  (* Phase 3 — MOPE-filter and decrypt each batch's rows. *)
  let process_batch batch segments result =
    Metrics.inc m_server_requests;
    Metrics.inc ~by:(List.length result.Exec.rows) m_rows_fetched;
    t.counters.server_requests <- t.counters.server_requests + 1;
    t.counters.rows_fetched <- t.counters.rows_fetched + List.length result.Exec.rows;
    Log.debug (fun m ->
        m "batch of %d starts -> %d segments, %d rows" (List.length batch)
          (List.length segments)
          (List.length result.Exec.rows));
    (* Which τ_k pieces does this batch answer? *)
    let real_pieces =
      List.filter_map (fun (_, label) -> label) batch
    in
    if real_pieces <> [] then begin
      (* Locate the (encrypted) date column in the combined row. *)
      let offset = ref 0 and date_offset = ref (-1) in
      List.iter
        (fun { Sql_ast.table; _ } ->
          let schema = Encrypted_db.plain_schema enc table in
          (match Schema.find schema date_column with
          | Some _ -> date_offset := !offset + Schema.index_of schema date_column
          | None -> ());
          offset := !offset + Schema.arity schema)
        ast.Sql_ast.from;
      if !date_offset < 0 then
        invalid_arg ("Proxy.execute: date column not found: " ^ date_column);
      (* The span wraps only the row loop: its closure must not capture the
         [offset] ref above (Trace.* are secret-flow sinks). *)
      let date_at = !date_offset in
      Trace.with_span "ope_decrypt" (fun () ->
          List.iter
            (fun row ->
              match row.(date_at) with
              | Value.Int c -> begin
                match piece_of (Mope.decrypt (Encrypted_db.mope enc) c) with
                | Some piece when List.mem piece real_pieces ->
                  accepted :=
                    decrypt_combined enc ?keep ast.Sql_ast.from row :: !accepted
                | _ -> ()
              end
              | _ -> ())
            result.Exec.rows;
          Trace.add_item "rows_kept" (List.length !accepted))
    end
  in
  List.iter2
    (fun (batch, segments) result -> process_batch batch segments result)
    (List.combine batches batch_segments)
    results;
  t.counters.rows_delivered <- t.counters.rows_delivered + List.length !accepted;
  Metrics.inc ~by:(List.length !accepted) m_rows_delivered;
  Log.info (fun m ->
      m "client query [%s, %s]: %d pieces, %d executed starts, %d rows kept"
        (Date.to_string date_lo) (Date.to_string date_hi) (List.length pieces)
        (List.length executed) (List.length !accepted));
  (ast, List.rev !accepted)

(* Local re-evaluation of the client's original statement over surviving
   plaintext rows (possibly pooled from several fetch_decrypted calls). *)
let eval_over t ~ast rows =
  Trace.with_span "local_eval" (fun () ->
      (* A per-query scratch database never sees a statement twice, so a
         plan cache there would only count misses. *)
      let local = Database.create ~plan_cache_capacity:0 () in
      let fetched =
        Database.create_table local ~name:"__fetched"
          ~schema:(combined_schema t.enc ast.Sql_ast.from)
      in
      List.iter (fun row -> ignore (Table.insert fetched row)) rows;
      Database.query_ast local (local_statement ast))

let execute t ~sql ~date_column ~date_lo ~date_hi =
  let ast, rows = fetch_decrypted t ~sql ~date_column ~date_lo ~date_hi in
  eval_over t ~ast rows
