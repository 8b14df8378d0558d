open Mope_db
module Client = Mope_net.Client
module Metrics = Mope_obs.Metrics
module Trace = Mope_obs.Trace

type endpoint = { host : string; port : int }

type shard_conf = { primary : endpoint; replicas : endpoint list }

(* One connection target (primary or replica) of one shard. Clients are
   dialed lazily and are not thread-safe, so each leg carries its own
   lock; different shards never contend. *)
type leg = {
  endpoint : endpoint;
  leg_lock : Mutex.t;
  mutable client : Client.t option;
}

(* Mutable routing state of one shard, maintained by the failover
   supervisor: which leg is primary, the fencing epoch stamped on every
   request, which replica legs are within the staleness bound (and hence
   eligible failover-read targets), and whether the shard has degraded to
   read-only because no replica is in bound. *)
type shard_state = {
  st_lock : Mutex.t;
  mutable epoch : int;
  mutable primary_idx : int;
  mutable read_only : bool;
  mutable retry_after : float;  (* write hint while read-only *)
  eligible : bool array;  (* per leg; the primary leg is always tried *)
}

type shard_legs = {
  legs : leg array;  (* configuration order: configured primary first *)
  state : shard_state;
  m_fetch : Metrics.counter;
  m_failover : Metrics.counter;
}

type client_opts = {
  timeout : float;
  request_retries : int;
  breaker_threshold : int;
  breaker_cooldown : float;
  wrap : Mope_net.Transport.t -> Mope_net.Transport.t;
}

type t = {
  map : Shard_map.t;
  shards : shard_legs array;
  opts : client_opts;
  seed : int64;
  (* Resolved IN (SELECT ...) value lists by inner SQL. Every [apply]
     clears it and bumps [memo_gen]; a resolution computed across a bump
     is not stored. *)
  memo : (string, Sql_ast.expr list) Hashtbl.t;
  mutable memo_gen : int;
  memo_lock : Mutex.t;
}

let create ~map ~shards ?(timeout = 10.0) ?(request_retries = 1)
    ?(breaker_threshold = 3) ?(breaker_cooldown = 1.0) ?(seed = 0x5eedL)
    ?(wrap = Fun.id) () =
  let n = Shard_map.shards map in
  if List.length shards <> n then
    invalid_arg "Coordinator.create: one shard_conf per shard required";
  let shard_legs =
    List.mapi
      (fun i conf ->
        let labels = [ ("shard", string_of_int i) ] in
        let endpoints = conf.primary :: conf.replicas in
        { legs =
            Array.of_list
              (List.map
                 (fun endpoint ->
                   { endpoint; leg_lock = Mutex.create (); client = None })
                 endpoints);
          state =
            { st_lock = Mutex.create ();
              epoch = Shard_map.epoch map i;
              primary_idx = 0;
              read_only = false;
              retry_after = 0.5;
              eligible = Array.make (List.length endpoints) true };
          m_fetch =
            Metrics.counter ~help:"Sub-fetches sent to this shard"
              "mope_cluster_shard_fetch_total" ~labels ();
          m_failover =
            Metrics.counter
              ~help:"Reads served by a fallback leg after a failed one"
              "mope_cluster_failover_total" ~labels () })
      shards
  in
  { map;
    shards = Array.of_list shard_legs;
    opts = { timeout; request_retries; breaker_threshold; breaker_cooldown; wrap };
    seed;
    memo = Hashtbl.create 8;
    memo_gen = 0;
    memo_lock = Mutex.create () }

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Run [f] over the leg's client, dialing if needed. A dead client is
   dropped so the next call redials. Must be called with the leg lock
   held via [on_leg]. *)
let leg_client t shard_idx leg_idx leg =
  match leg.client with
  | Some c when not (Client.is_closed c) -> c
  | _ ->
    let c =
      Client.connect ~host:leg.endpoint.host ~port:leg.endpoint.port
        ~timeout:t.opts.timeout ~retries:1 ~backoff:0.02
        ~request_retries:t.opts.request_retries
        ~breaker_threshold:t.opts.breaker_threshold
        ~breaker_cooldown:t.opts.breaker_cooldown
        ~seed:
          (Int64.add t.seed (Int64.of_int ((shard_idx * 97) + (leg_idx * 13) + 1)))
        ~wrap:t.opts.wrap ()
    in
    leg.client <- Some c;
    c

let on_leg t shard_idx leg_idx leg f =
  locked leg.leg_lock (fun () -> f (leg_client t shard_idx leg_idx leg))

let current_epoch shard =
  locked shard.state.st_lock (fun () -> shard.state.epoch)

(* Try the shard's legs in order — current primary first, then every
   replica leg still within the staleness bound. The client's circuit
   breaker makes a dead leg fail fast after it trips, so the primary-first
   policy costs little during an outage and heals automatically once the
   breaker half-opens onto a revived primary. The fencing epoch is
   re-read per attempt, so a promotion landing mid-loop is picked up by
   the remaining legs instead of cascading Fenced refusals. *)
let on_shard t shard_idx f =
  let shard = t.shards.(shard_idx) in
  let primary_idx, order =
    locked shard.state.st_lock (fun () ->
        let n = Array.length shard.legs in
        let p = shard.state.primary_idx in
        ( p,
          p
          :: List.filter
               (fun i -> (not (Int.equal i p)) && shard.state.eligible.(i))
               (List.init n Fun.id) ))
  in
  let rec go last_err = function
    | [] -> (
      match last_err with
      | Some e -> raise e
      | None ->
        Mope_error.failwithf "Coordinator: shard %d has no legs" shard_idx)
    | leg_idx :: rest -> (
      match
        on_leg t shard_idx leg_idx shard.legs.(leg_idx) (fun c ->
            f c ~epoch:(current_epoch shard))
      with
      | v ->
        if not (Int.equal leg_idx primary_idx) then
          Metrics.inc shard.m_failover;
        v
      | exception (Mope_error.Error _ as e) ->
        (* This leg is down, fenced behind a promotion, or misbehaving;
           let the next one serve. The dial inside [leg_client] can also
           raise here. *)
        go (Some e) rest)
  in
  go None order

(* ------------------------------------------------------------------ *)
(* IN (SELECT ...) pre-resolution *)

(* Broadcast the inner select to every shard and union the value sets:
   rows of a partitioned table live on exactly one shard and replicated
   tables return identical sets, so sort_uniq of the concatenation is
   exactly the single-node subquery result. *)
let resolve_subquery t inner =
  let sql = Sql_ast.select_to_string inner in
  let compute () =
    let n = Array.length t.shards in
    let results = Array.make n [] in
    let errors = Array.make n None in
    let threads =
      List.init n (fun i ->
          Thread.create
            (fun () ->
              match
                on_shard t i (fun c ~epoch -> Client.fetch c ~epoch ~sql ())
              with
              | r -> results.(i) <- r.Exec.rows
              | exception e -> errors.(i) <- Some e)
            ())
    in
    List.iter Thread.join threads;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    let values =
      Array.to_list results
      |> List.concat_map
           (List.filter_map (fun row ->
                if Array.length row = 1 then Some row.(0) else None))
      |> List.sort_uniq Value.compare
    in
    List.map (fun v -> Sql_ast.Lit v) values
  in
  match
    locked t.memo_lock (fun () -> (Hashtbl.find_opt t.memo sql, t.memo_gen))
  with
  | Some vs, _ -> vs
  | None, gen ->
    let vs = compute () in
    locked t.memo_lock (fun () ->
        if Int.equal gen t.memo_gen then Hashtbl.replace t.memo sql vs);
    vs

let forget_resolutions t =
  locked t.memo_lock (fun () ->
      Hashtbl.reset t.memo;
      t.memo_gen <- t.memo_gen + 1)

let rec resolve_expr t = function
  | Sql_ast.In_select (e, inner) -> (
    (* An empty IN-list does not parse; x IN (empty set) is false for every
       x, NULL included. *)
    match resolve_subquery t inner with
    | [] -> Sql_ast.Lit (Value.Bool false)
    | vs -> Sql_ast.In_list (resolve_expr t e, vs))
  | expr -> Sql_ast.map_children (resolve_expr t) expr

let resolve_template t (template : Sql_ast.select) =
  match template.Sql_ast.where with
  | Some w when Sql_ast.has_subquery w ->
    { template with Sql_ast.where = Some (resolve_expr t w) }
  | _ -> template

(* ------------------------------------------------------------------ *)
(* The scatter-gather fetch *)

(* The proxy's fetch seam ({!Mope_system.Proxy.fetch_many}): the whole
   fake+real batch plan of one client query at once. Each shard gets one
   worker thread, and all the batches routed to it travel down its one
   connection as a single pipelined flight ([Client.fetch_batch]). Per
   shard the flight is all-or-nothing: any failed item raises, so
   [on_shard] replays the whole list on the next leg (reads are
   idempotent). *)
let fetch_many t ~date_column ~batches ~template =
  match batches with
  | [] -> []
  | batches ->
    Trace.with_span "scatter_gather" (fun () ->
        let template = resolve_template t template in
        let n = Array.length t.shards in
        let batch_arr = Array.of_list batches in
        let nb = Array.length batch_arr in
        (* Per shard, the (batch index, specialized SQL) it must serve. *)
        let per_shard = Array.make n [] in
        Array.iteri
          (fun bi segments ->
            let routed = Shard_map.route t.map segments in
            Array.iteri
              (fun si segs ->
                match segs with
                | [] -> ()
                | segs ->
                  let ast =
                    Mope_system.Rewrite.add_conjunct template
                      (Mope_system.Rewrite.cipher_ranges_expr
                         ~column:date_column ~segments:segs)
                  in
                  per_shard.(si) <-
                    (bi, Sql_ast.select_to_string ast) :: per_shard.(si))
              routed)
          batch_arr;
        let results = Array.init n (fun _ -> Array.make nb None) in
        let errors = Array.make n None in
        let shards_hit = ref 0 in
        let workers =
          List.concat
            (List.init n (fun si ->
                 match List.rev per_shard.(si) with
                 | [] -> []
                 | items ->
                   incr shards_hit;
                   Metrics.inc ~by:(List.length items) t.shards.(si).m_fetch;
                   [ Thread.create
                       (fun () ->
                         match
                           on_shard t si (fun c ~epoch ->
                               List.map
                                 (function
                                   | Ok r -> r
                                   | Error err -> raise (Mope_error.Error err))
                                 (Client.fetch_batch c ~epoch
                                    ~sqls:(List.map snd items) ()))
                         with
                         | rs ->
                           List.iter2
                             (fun (bi, _) r -> results.(si).(bi) <- Some r)
                             items rs
                         | exception e -> errors.(si) <- Some e)
                       () ]))
        in
        List.iter Thread.join workers;
        Array.iter (function Some e -> raise e | None -> ()) errors;
        Trace.add_item "shards_hit" !shards_hit;
        Trace.add_item "batches" nb;
        (* Merge each batch in shard order: the slices partition the
           ciphertext space in ascending order, so concatenation reproduces
           a single node's ascending index-scan order. *)
        List.init nb (fun bi ->
            let rs =
              List.filter_map
                (fun si -> results.(si).(bi))
                (List.init n Fun.id)
            in
            match rs with
            | [] -> { Exec.columns = []; rows = [] }
            | first :: _ ->
              { Exec.columns = first.Exec.columns;
                rows = List.concat_map (fun r -> r.Exec.rows) rs }))

let check_shard t shard name =
  if shard < 0 || shard >= Array.length t.shards then invalid_arg name

let apply ?(request_id = "") ?(retries = 2) ?(retry_backoff = 0.05) t ~shard
    ~sql =
  check_shard t shard "Coordinator.apply: bad shard";
  let s = t.shards.(shard) in
  (* Writes go to the current primary only — the failover here is not a
     different leg but a different moment: wait out the backoff and ask
     again, by which time the supervisor may have promoted a replica. Only
     a request id makes that retry safe (the store dedups it), so without
     one a single attempt is made and an ambiguous failure surfaces. *)
  let attempts = if request_id = "" then 1 else retries + 1 in
  (* Any write may change a memoized IN (SELECT ...) answer, and so may
     one that raised: an ambiguous failure may still have applied. *)
  Fun.protect ~finally:(fun () -> forget_resolutions t) @@ fun () ->
  let rec go attempt last_err =
    if attempt >= attempts then
      match last_err with
      | Some e -> raise e
      | None -> Mope_error.failwithf "Coordinator: shard %d has no legs" shard
    else begin
      if attempt > 0 then Thread.delay retry_backoff;
      let epoch, primary_idx, read_only, retry_after =
        locked s.state.st_lock (fun () ->
            ( s.state.epoch,
              s.state.primary_idx,
              s.state.read_only,
              s.state.retry_after ))
      in
      if read_only then
        (* Degraded: no failover target within the staleness bound. Shed
           the write with a retry hint, the Overloaded idiom. *)
        Mope_error.failwithf
          "shard %d is read-only: no replica within the staleness bound; \
           retry after %gs"
          shard retry_after
      else
        match
          on_leg t shard primary_idx s.legs.(primary_idx) (fun c ->
              Client.apply c ~epoch ~request_id ~sql ())
        with
        | v -> v
        | exception (Mope_error.Error _ as e) -> go (attempt + 1) (Some e)
    end
  in
  go 0 None

let wal_pos t ~shard =
  check_shard t shard "Coordinator.wal_pos: bad shard";
  let s = t.shards.(shard) in
  let primary_idx =
    locked s.state.st_lock (fun () -> s.state.primary_idx)
  in
  let chunk =
    on_leg t shard primary_idx s.legs.(primary_idx) (fun c ->
        Client.wal_since c ~from_pos:max_int ~max_bytes:1 ())
  in
  chunk.Wal.end_pos

(* ------------------------------------------------------------------ *)
(* Supervisor control surface *)

let with_state t shard name f =
  check_shard t shard name;
  let s = t.shards.(shard) in
  locked s.state.st_lock (fun () -> f s.state)

let epoch t ~shard =
  with_state t shard "Coordinator.epoch: bad shard" (fun st -> st.epoch)

let set_epoch t ~shard e =
  with_state t shard "Coordinator.set_epoch: bad shard" (fun st ->
      st.epoch <- e)

let primary_leg t ~shard =
  with_state t shard "Coordinator.primary_leg: bad shard" (fun st ->
      st.primary_idx)

let leg_count t ~shard =
  check_shard t shard "Coordinator.leg_count: bad shard";
  Array.length t.shards.(shard).legs

let is_read_only t ~shard =
  with_state t shard "Coordinator.is_read_only: bad shard" (fun st ->
      st.read_only)

let set_read_only t ~shard ?retry_after on =
  with_state t shard "Coordinator.set_read_only: bad shard" (fun st ->
      st.read_only <- on;
      match retry_after with
      | Some hint when on -> st.retry_after <- hint
      | _ -> ())

let set_leg_eligible t ~shard ~leg on =
  check_shard t shard "Coordinator.set_leg_eligible: bad shard";
  let s = t.shards.(shard) in
  if leg < 0 || leg >= Array.length s.legs then
    invalid_arg "Coordinator.set_leg_eligible: bad leg";
  locked s.state.st_lock (fun () -> s.state.eligible.(leg) <- on)

let promote t ~shard ~leg ~epoch =
  check_shard t shard "Coordinator.promote: bad shard";
  let s = t.shards.(shard) in
  if leg < 0 || leg >= Array.length s.legs then
    invalid_arg "Coordinator.promote: bad leg";
  locked s.state.st_lock (fun () ->
      s.state.primary_idx <- leg;
      s.state.epoch <- epoch;
      s.state.eligible.(leg) <- true;
      s.state.read_only <- false)

let close t =
  Array.iter
    (fun shard ->
      Array.iter
        (fun leg ->
          locked leg.leg_lock (fun () ->
              match leg.client with
              | Some c ->
                leg.client <- None;
                Client.close c
              | None -> ()))
        shard.legs)
    t.shards
