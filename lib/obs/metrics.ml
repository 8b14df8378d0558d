(* Process-wide metrics registry: counters, gauges, and log-bucketed latency
   histograms. Designed so that instrumentation left compiled into hot paths
   costs one atomic load plus a branch while observability is disabled
   (the default), and stays thread-safe when enabled: counters and gauges
   are single atomics, histograms are lock-striped by thread id so
   concurrent observers rarely contend on the same mutex. *)

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* ---------- naming and label hygiene ---------- *)

let valid_name s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       s

(* Label keys that name secrets are refused at registration time, mirroring
   the mope-lint secret-flow ident list: even if a caller slipped past the
   static pass (e.g. via an intermediate binding), the registry will not
   mint a metric dimension that invites plaintext or key material. *)
let secret_label_names =
  [ "key"; "keys"; "secret"; "secret_key"; "master_key"; "old_key"; "new_key";
    "mope_key"; "ope_key"; "offset"; "secret_offset"; "old_offset";
    "new_offset"; "plaintext"; "plaintexts" ]

let check_labels name labels =
  List.iter
    (fun (k, _) ->
      if not (valid_name k) then
        invalid_arg (Printf.sprintf "Metrics: bad label key %S on %s" k name);
      if List.mem k secret_label_names then
        invalid_arg
          (Printf.sprintf
             "Metrics: label key %S on %s names a secret; metrics must never \
              carry key/offset/plaintext material"
             k name))
    labels

let canonical_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

(* ---------- metric instances ---------- *)

type counter = {
  c_name : string;
  c_help : string;
  c_labels : (string * string) list;
  c_value : int Atomic.t;
}

type gauge = {
  g_name : string;
  g_help : string;
  g_labels : (string * string) list;
  g_value : int Atomic.t;
}

type stripe = {
  s_lock : Mutex.t;
  s_counts : int array; (* one cell per bound + trailing overflow cell *)
  mutable s_sum : float;
  mutable s_count : int;
}

type histogram = {
  h_name : string;
  h_help : string;
  h_labels : (string * string) list;
  h_bounds : float array;
  h_stripes : stripe array;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let n_stripes = 8

(* Upper bounds in seconds: 1µs · 2^i, i = 0..21, topping out at ~4.2s —
   wide enough for a WAL fsync on slow storage, fine enough near the bottom
   to resolve a cached OPE lookup. Fixed boundaries keep observe() cheap
   (no rebucketing) and make scrapes mergeable across processes. *)
let default_buckets =
  Array.init 22 (fun i -> 1e-6 *. Float.of_int (1 lsl i))

(* ---------- registry ---------- *)

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

(* ---------- label-cardinality guard ----------

   A label whose values come from the outside world (tenant ids above all)
   can mint unbounded metric instances and blow up every scrape. The
   registry therefore caps the number of DISTINCT label-value sets per
   family: registering a fresh labeled instance beyond the cap evicts the
   family's oldest labeled instance from the registry (its handle keeps
   working but no longer renders) and bumps
   [mope_metrics_labels_dropped_total]. Unlabeled instances are never
   subject to the cap. *)

let max_label_sets_cap = Atomic.make 64

let set_max_label_sets n =
  if n < 1 then invalid_arg "Metrics.set_max_label_sets";
  Atomic.set max_label_sets_cap n

let max_label_sets () = Atomic.get max_label_sets_cap

(* family name -> labeled instance keys, oldest registration first *)
let family_label_sets : (string, string Queue.t) Hashtbl.t = Hashtbl.create 16

(* The drop counter is itself a registered metric, created at module end
   (after [counter] exists); evictions before that land in the raw atomic
   the counter is later seeded from. Drops are counted even while the
   registry is disabled: they are registry hygiene, not a hot path. *)
let dropped_counter : int Atomic.t option ref = ref None
let dropped_before_init = Atomic.make 0

let note_dropped () =
  match !dropped_counter with
  | Some cell -> ignore (Atomic.fetch_and_add cell 1)
  | None -> ignore (Atomic.fetch_and_add dropped_before_init 1)

(* Called under [registry_lock] just before inserting a fresh labeled
   instance. *)
let admit_label_set name ikey =
  let q =
    match Hashtbl.find_opt family_label_sets name with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace family_label_sets name q;
      q
  in
  if Queue.length q >= Atomic.get max_label_sets_cap then begin
    let oldest = Queue.pop q in
    Hashtbl.remove registry oldest;
    note_dropped ()
  end;
  Queue.push ikey q

let instance_key name labels =
  match labels with
  | [] -> name
  | labels ->
    name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

(* Registration is idempotent: asking for the same (name, labels) pair
   returns the existing instance, so modules can declare their metrics at
   module-init without coordinating. Re-registering under a different
   metric kind is a programming error and raises. *)
let register name labels build match_existing =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: bad metric name %S" name);
  check_labels name labels;
  let labels = canonical_labels labels in
  let ikey = instance_key name labels in
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt registry ikey with
      | Some existing ->
        (match match_existing existing with
         | Some v -> v
         | None ->
           invalid_arg
             (Printf.sprintf "Metrics: %s already registered as a %s" ikey
                (kind_name existing)))
      | None ->
        let v, m = build labels in
        if labels <> [] then admit_label_set name ikey;
        Hashtbl.replace registry ikey m;
        v)

let counter ?(help = "") name ?(labels = []) () =
  register name labels
    (fun labels ->
      let c = { c_name = name; c_help = help; c_labels = labels;
                c_value = Atomic.make 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge ?(help = "") name ?(labels = []) () =
  register name labels
    (fun labels ->
      let g = { g_name = name; g_help = help; g_labels = labels;
                g_value = Atomic.make 0 } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let histogram ?(help = "") ?(buckets = default_buckets) name ?(labels = []) () =
  let n = Array.length buckets in
  if n = 0 then invalid_arg "Metrics.histogram: no buckets";
  for i = 1 to n - 1 do
    if buckets.(i) <= buckets.(i - 1) then
      invalid_arg "Metrics.histogram: bounds not increasing"
  done;
  register name labels
    (fun labels ->
      let h =
        { h_name = name; h_help = help; h_labels = labels;
          h_bounds = Array.copy buckets;
          h_stripes =
            Array.init n_stripes (fun _ ->
                { s_lock = Mutex.create (); s_counts = Array.make (n + 1) 0;
                  s_sum = 0.0; s_count = 0 });
        }
      in
      (h, Histogram h))
    (function
      | Histogram h when Array.length h.h_bounds = n -> Some h
      | _ -> None)

(* ---------- hot-path operations ---------- *)

let inc ?(by = 1) c =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_value by)

let counter_value c = Atomic.get c.c_value

let gauge_set g v = if Atomic.get enabled_flag then Atomic.set g.g_value v
let gauge_add g d =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add g.g_value d)
let gauge_value g = Atomic.get g.g_value

let bucket_index bounds v =
  (* Linear scan: 22 compares worst case, and latencies cluster in the low
     buckets, so this beats a branchy binary search in practice. *)
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  if Atomic.get enabled_flag then begin
    let s = h.h_stripes.(Thread.id (Thread.self ()) land (n_stripes - 1)) in
    let i = bucket_index h.h_bounds v in
    Mutex.lock s.s_lock;
    s.s_counts.(i) <- s.s_counts.(i) + 1;
    s.s_sum <- s.s_sum +. v;
    s.s_count <- s.s_count + 1;
    Mutex.unlock s.s_lock
  end

let time h f =
  if Atomic.get enabled_flag then begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> observe h (Unix.gettimeofday () -. t0))
      f
  end
  else f ()

(* ---------- snapshots ---------- *)

let histogram_snapshot h =
  let n = Array.length h.h_bounds in
  let counts = Array.make (n + 1) 0 in
  let sum = ref 0.0 and count = ref 0 in
  Array.iter
    (fun s ->
      Mutex.lock s.s_lock;
      Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) s.s_counts;
      sum := !sum +. s.s_sum;
      count := !count + s.s_count;
      Mutex.unlock s.s_lock)
    h.h_stripes;
  (counts, !sum, !count)

let histogram_count h =
  let _, _, count = histogram_snapshot h in
  count

let histogram_sum h =
  let _, sum, _ = histogram_snapshot h in
  sum

let histogram_quantile h q =
  let counts, _, _ = histogram_snapshot h in
  Mope_stats.Summary.quantile_of_buckets ~bounds:h.h_bounds ~counts q

let reset_all () =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c.c_value 0
          | Gauge g -> Atomic.set g.g_value 0
          | Histogram h ->
            Array.iter
              (fun s ->
                Mutex.lock s.s_lock;
                Array.fill s.s_counts 0 (Array.length s.s_counts) 0;
                s.s_sum <- 0.0;
                s.s_count <- 0;
                Mutex.unlock s.s_lock)
              h.h_stripes)
        registry)

(* ---------- exposition ---------- *)

let sorted_metrics () =
  Mutex.lock registry_lock;
  let all =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock registry_lock)
      (fun () -> Hashtbl.fold (fun k m acc -> (k, m) :: acc) registry [])
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let family_of = function
  | Counter c -> (c.c_name, c.c_help, "counter")
  | Gauge g -> (g.g_name, g.g_help, "gauge")
  | Histogram h -> (h.h_name, h.h_help, "histogram")

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
    ^ "}"

let prom_labels_with_le labels le =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v)
         (labels @ [ ("le", le) ]))
  ^ "}"

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let render_prometheus () =
  let buf = Buffer.create 4096 in
  let seen_family = Hashtbl.create 16 in
  List.iter
    (fun (_, m) ->
      let name, help, kind = family_of m in
      if not (Hashtbl.mem seen_family name) then begin
        Hashtbl.replace seen_family name ();
        if help <> "" then
          Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
      end;
      (match m with
       | Counter c ->
         Buffer.add_string buf
           (Printf.sprintf "%s%s %d\n" name (prom_labels c.c_labels)
              (Atomic.get c.c_value))
       | Gauge g ->
         Buffer.add_string buf
           (Printf.sprintf "%s%s %d\n" name (prom_labels g.g_labels)
              (Atomic.get g.g_value))
       | Histogram h ->
         let counts, sum, count = histogram_snapshot h in
         let cum = ref 0 in
         Array.iteri
           (fun i bound ->
             cum := !cum + counts.(i);
             Buffer.add_string buf
               (Printf.sprintf "%s_bucket%s %d\n" name
                  (prom_labels_with_le h.h_labels (float_str bound))
                  !cum))
           h.h_bounds;
         Buffer.add_string buf
           (Printf.sprintf "%s_bucket%s %d\n" name
              (prom_labels_with_le h.h_labels "+Inf")
              count);
         Buffer.add_string buf
           (Printf.sprintf "%s_sum%s %.9g\n" name (prom_labels h.h_labels) sum);
         Buffer.add_string buf
           (Printf.sprintf "%s_count%s %d\n" name (prom_labels h.h_labels)
              count)))
    (sorted_metrics ());
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
         labels)
  ^ "}"

let render_json () =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (_, m) ->
      match m with
      | Counter c ->
        counters :=
          Printf.sprintf "{\"name\":\"%s\",\"labels\":%s,\"value\":%d}"
            (json_escape c.c_name) (json_labels c.c_labels)
            (Atomic.get c.c_value)
          :: !counters
      | Gauge g ->
        gauges :=
          Printf.sprintf "{\"name\":\"%s\",\"labels\":%s,\"value\":%d}"
            (json_escape g.g_name) (json_labels g.g_labels)
            (Atomic.get g.g_value)
          :: !gauges
      | Histogram h ->
        let counts, sum, count = histogram_snapshot h in
        let quantile q =
          Mope_stats.Summary.quantile_of_buckets ~bounds:h.h_bounds ~counts q
        in
        histograms :=
          Printf.sprintf
            "{\"name\":\"%s\",\"labels\":%s,\"count\":%d,\"sum\":%.9g,\"p50\":%.9g,\"p95\":%.9g,\"p99\":%.9g}"
            (json_escape h.h_name) (json_labels h.h_labels) count sum
            (quantile 0.5) (quantile 0.95) (quantile 0.99)
          :: !histograms)
    (sorted_metrics ());
  Printf.sprintf
    "{\"counters\":[%s],\"gauges\":[%s],\"histograms\":[%s]}"
    (String.concat "," (List.rev !counters))
    (String.concat "," (List.rev !gauges))
    (String.concat "," (List.rev !histograms))

(* The value of one unlabeled counter in a [render_json] document — the
   shape a remote [Stats] scrape carries. *)
let json_counter doc name =
  let needle =
    Printf.sprintf "{\"name\":\"%s\",\"labels\":{},\"value\":" (json_escape name)
  in
  let n = String.length needle and len = String.length doc in
  let rec find i =
    if i + n > len then None
    else if String.equal (String.sub doc i n) needle then Some (i + n)
    else find (i + 1)
  in
  let digit i = i < len && (match doc.[i] with '0' .. '9' | '-' -> true | _ -> false) in
  Option.bind (find 0) (fun start ->
      let stop = ref start in
      while digit !stop do
        incr stop
      done;
      int_of_string_opt (String.sub doc start (!stop - start)))

(* ---------- cardinality-guard drop counter ---------- *)

let labels_dropped_total =
  counter
    ~help:"Labeled metric instances evicted by the per-family label-cardinality cap"
    "mope_metrics_labels_dropped_total" ()

let () =
  Atomic.set labels_dropped_total.c_value (Atomic.get dropped_before_init);
  dropped_counter := Some labels_dropped_total.c_value

let labels_dropped () = counter_value labels_dropped_total
