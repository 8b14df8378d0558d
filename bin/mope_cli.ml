(* Command-line interface to the MOPE library.

   Subcommands:
     encrypt    encrypt integers under (M)OPE and print the ciphertexts
     decrypt    invert ciphertexts
     ranges     show the ciphertext scan ranges for a plaintext interval
     schedule   show a QueryU/QueryP execution schedule for a query
     demo       run the end-to-end encrypted TPC-H demo
     attack     mount the gap attack on naive vs protected query streams
     serve      run the trusted proxy as a TCP service over the testbed
                (--tenants FILE serves many tenants behind wire sessions)
     rotate     drive an online key rotation on a multi-tenant proxy
     cluster    launch a loopback sharded cluster and scatter-gather over it
     stats      scrape a running proxy's metrics and recent traces
     save       generate the TPC-H database and persist it to disk
     load       inspect a database file written by save / sql --db *)

open Cmdliner
open Mope_ope
open Mope_core
open Mope_stats

let key_arg =
  let doc = "Secret key (any string; a real deployment uses random bytes)." in
  Arg.(value & opt string "demo-key" & info [ "key" ] ~docv:"KEY" ~doc)

let domain_arg =
  let doc = "Plaintext domain size M (plaintexts are 0..M-1)." in
  Arg.(value & opt int 1000 & info [ "domain"; "m" ] ~docv:"M" ~doc)

let make_mope ~key ~domain =
  Mope.create ~key ~domain ~range:(Ope.recommended_range domain) ()

let values_arg =
  let doc = "Values to process." in
  Arg.(non_empty & pos_all int [] & info [] ~docv:"VALUE" ~doc)

(* ------------------------------------------------------------------ *)

let encrypt_cmd =
  let run key domain values =
    let mope = make_mope ~key ~domain in
    Printf.printf "MOPE over [0, %d) -> [0, %d), secret offset hidden in key\n"
      domain (Mope.range mope);
    List.iter
      (fun v ->
        if v < 0 || v >= domain then Printf.printf "%d: out of domain\n" v
        else Printf.printf "%d -> %d\n" v (Mope.encrypt mope v))
      values
  in
  let doc = "Encrypt integers under MOPE." in
  Cmd.v (Cmd.info "encrypt" ~doc)
    Term.(const run $ key_arg $ domain_arg $ values_arg)

let decrypt_cmd =
  let run key domain values =
    let mope = make_mope ~key ~domain in
    List.iter
      (fun c ->
        match Mope.decrypt mope c with
        | v -> Printf.printf "%d -> %d\n" c v
        | exception Ope.Not_a_ciphertext _ ->
          Printf.printf "%d: not a valid ciphertext\n" c
        | exception Invalid_argument _ ->
          Printf.printf "%d: outside the ciphertext space\n" c)
      values
  in
  let doc = "Decrypt MOPE ciphertexts." in
  Cmd.v (Cmd.info "decrypt" ~doc)
    Term.(const run $ key_arg $ domain_arg $ values_arg)

let ranges_cmd =
  let lo =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"LO" ~doc:"Range start.")
  in
  let hi =
    Arg.(required & pos 1 (some int) None & info [] ~docv:"HI" ~doc:"Range end (inclusive).")
  in
  let run key domain lo hi =
    let mope = make_mope ~key ~domain in
    let segments = Mope.ciphertext_segments mope ~lo ~hi in
    Printf.printf
      "plaintext [%d, %d] -> %d ciphertext segment(s) the server scans:\n" lo hi
      (List.length segments);
    List.iter (fun (a, b) -> Printf.printf "  [%d, %d]\n" a b) segments
  in
  let doc = "Show the ciphertext scan ranges for a plaintext interval." in
  Cmd.v (Cmd.info "ranges" ~doc)
    Term.(const run $ key_arg $ domain_arg $ lo $ hi)

let schedule_cmd =
  let rho =
    let doc = "Period for QueryP (omit for QueryU)." in
    Arg.(value & opt (some int) None & info [ "rho" ] ~docv:"RHO" ~doc)
  in
  let k_arg =
    Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc:"Fixed query length.")
  in
  let start =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"START" ~doc:"Query start.")
  in
  let run domain rho k start =
    (* A skewed example client distribution. *)
    let q = Distributions.zipf ~size:domain ~s:1.0 in
    let mode =
      match rho with None -> Scheduler.Uniform | Some r -> Scheduler.Periodic r
    in
    let scheduler = Scheduler.create ~m:domain ~k ~mode ~q in
    Printf.printf "alpha = %.4f; expected fakes per real = %.2f\n"
      (Scheduler.alpha scheduler)
      (Scheduler.expected_fakes_per_real scheduler);
    let rng = Rng.create (Int64.of_float (Unix.gettimeofday () *. 1000.0)) in
    let burst = Scheduler.schedule scheduler rng ~real:start in
    Printf.printf "one execution burst (last start is the real query):\n  %s\n"
      (String.concat " " (List.map string_of_int burst))
  in
  let doc = "Show a QueryU/QueryP execution schedule for a query start." in
  Cmd.v (Cmd.info "schedule" ~doc)
    Term.(const run $ domain_arg $ rho $ k_arg $ start)

let demo_cmd =
  let run () =
    let open Mope_workload in
    let open Mope_system in
    print_endline "Loading TPC-H at SF 0.002 and building the encrypted twin...";
    let tb = Testbed.load ~sf:0.002 ~seed:1L () in
    let proxy = Testbed.proxy tb ~template:Tpch_queries.Q6 ~rho:(Some 92) () in
    let rng = Rng.create 2L in
    let inst = Tpch_queries.random_instance rng Tpch_queries.Q6 in
    Printf.printf "client SQL:\n  %s\n" inst.Tpch_queries.sql;
    let plain = Testbed.run_plain tb inst in
    let encrypted = Testbed.run_encrypted proxy inst in
    let show r =
      String.concat " | "
        (List.map
           (fun row ->
             String.concat ","
               (Array.to_list (Array.map Mope_db.Value.to_string row)))
           r.Mope_db.Exec.rows)
    in
    Printf.printf "plaintext result:  %s\n" (show plain);
    Printf.printf "via encrypted DB:  %s\n" (show encrypted);
    let c = Mope_system.Proxy.counters proxy in
    Printf.printf
      "proxy issued %d server requests (%d fake queries mixed in), fetched %d rows, kept %d\n"
      c.Proxy.server_requests c.Proxy.fake_queries c.Proxy.rows_fetched
      c.Proxy.rows_delivered
  in
  let doc = "End-to-end encrypted TPC-H demo (Q6 through the proxy)." in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const run $ const ())

let attack_cmd =
  let run domain =
    let m = domain and k = Int.max 2 (domain / 10) in
    Printf.printf "gap attack, M=%d k=%d, 30 fresh keys, 400 queries each:\n" m k;
    let naive =
      Mope_attack.Gap_attack.success_rate ~m ~k ~n_queries:400 ~trials:30 ~seed:1L
        ~fake_mix:None
    in
    Printf.printf "  naive MOPE:    offset recovered in %.0f%% of trials\n"
      (100.0 *. naive);
    let q =
      let pmf = Array.init m (fun i -> if i <= m - k then 1.0 else 0.0) in
      let total = Array.fold_left ( +. ) 0.0 pmf in
      Mope_stats.Histogram.of_pmf (Array.map (fun p -> p /. total) pmf)
    in
    let scheduler = Scheduler.create ~m ~k ~mode:Scheduler.Uniform ~q in
    let mixed =
      Mope_attack.Gap_attack.success_rate ~m ~k ~n_queries:400 ~trials:30 ~seed:1L
        ~fake_mix:(Some scheduler)
    in
    Printf.printf "  MOPE + QueryU: offset recovered in %.0f%% of trials\n"
      (100.0 *. mixed)
  in
  let doc = "Mount the gap attack on naive vs QueryU-protected query streams." in
  Cmd.v (Cmd.info "attack" ~doc) Term.(const run $ domain_arg)


(* ------------------------------------------------------------------ *)
(* A file named on the command line that cannot be opened, created or
   replaced is the user's error, not the program's: one line naming the
   file, then exit 1 (left uncaught, Cmdliner would report an internal
   error and exit 125). A failed open names its file in either exception;
   a failure without one names the call. *)

let or_file_error f =
  try f () with
  | Sys_error msg ->
    Printf.eprintf "mope: %s\n%!" msg;
    exit 1
  | Unix.Unix_error (err, call, file) ->
    Printf.eprintf "mope: %s: %s\n%!"
      (if file = "" then call else file)
      (Unix.error_message err);
    exit 1

(* ------------------------------------------------------------------ *)
(* sql: a small shell over the embedded engine *)

let render_table (result : Mope_db.Exec.result) =
  let open Mope_db in
  let cells =
    result.Exec.columns
    :: List.map
         (fun row -> Array.to_list (Array.map Value.to_string row))
         result.Exec.rows
  in
  let widths =
    List.fold_left
      (fun acc row ->
        List.mapi
          (fun i cell ->
            let current = try List.nth acc i with _ -> 0 in
            Int.max current (String.length cell))
          row)
      (List.map String.length result.Exec.columns)
      cells
  in
  let line row =
    String.concat " | "
      (List.mapi
         (fun i cell ->
           let w = List.nth widths i in
           cell ^ String.make (w - String.length cell) ' ')
         row)
  in
  print_endline (line result.Exec.columns);
  print_endline (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
  List.iter
    (fun row -> print_endline (line (Array.to_list (Array.map Value.to_string row))))
    result.Exec.rows;
  Printf.printf "(%d rows)\n" (List.length result.Exec.rows)

let run_sql_statement ?wal db stmt =
  let open Mope_db in
  match Database.execute db stmt with
  | Database.Rows result -> render_table result
  | Database.Affected n ->
    (* Mutation applied: WAL it before acknowledging, so a crash between
       here and the next checkpoint replays it. *)
    (match wal with Some log -> Wal.append log stmt | None -> ());
    Printf.printf "OK, %d rows affected\n" n
  | exception Sql_parser.Parse_error msg -> Printf.printf "parse error: %s\n" msg
  | exception Sql_lexer.Lex_error (msg, pos) ->
    Printf.printf "lex error at %d: %s\n" pos msg
  | exception Exec.Exec_error msg -> Printf.printf "error: %s\n" msg
  | exception Eval.Eval_error msg -> Printf.printf "error: %s\n" msg
  | exception Invalid_argument msg -> Printf.printf "error: %s\n" msg

let sql_cmd =
  let db_path =
    let doc = "Database file (created/updated with \\save; loaded if present)." in
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"PATH" ~doc)
  in
  let wal_path =
    let doc =
      "Write-ahead log: mutations are appended (fsynced) as they execute \
       and replayed over the $(b,--db) snapshot on startup, so a crashed \
       session loses nothing; \\save checkpoints and resets the log."
    in
    Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"PATH" ~doc)
  in
  let statements =
    let doc = "Statement(s) to execute non-interactively." in
    Arg.(value & opt_all string [] & info [ "e" ] ~docv:"SQL" ~doc)
  in
  let run db_path wal_path statements =
    or_file_error @@ fun () ->
    let open Mope_db in
    let db =
      match wal_path with
      | Some _ ->
        let r =
          try Storage.recover ?snapshot:db_path ?wal:wal_path ()
          with Storage.Corrupt msg ->
            Printf.eprintf "recovery failed: %s\n" msg;
            exit 1
        in
        if r.Storage.snapshot_loaded || r.Storage.wal_applied > 0 then
          Printf.printf "recovered%s%s%s\n"
            (match db_path with
            | Some p when r.Storage.snapshot_loaded -> " " ^ p
            | _ -> " (no snapshot)")
            (if r.Storage.wal_applied > 0 then
               Printf.sprintf " + %d wal statement(s)" r.Storage.wal_applied
             else "")
            (if r.Storage.wal_torn then " (torn wal tail discarded)" else "");
        r.Storage.db
      | None -> (
        match db_path with
        | Some path when Sys.file_exists path ->
          Printf.printf "loaded %s\n" path;
          Storage.load ~path
        | Some _ | None -> Database.create ())
    in
    let wal = Option.map (fun path -> Wal.open_log ~path) wal_path in
    let save () =
      match db_path, wal_path with
      | Some path, Some wal ->
        Storage.checkpoint db ~path ~wal;
        Printf.printf "saved %s (wal reset)\n" path
      | Some path, None ->
        Storage.save db ~path;
        Printf.printf "saved %s\n" path
      | None, _ -> print_endline "no --db path given"
    in
    if statements <> [] then begin
      List.iter (run_sql_statement ?wal db) statements;
      if db_path <> None then save ()
    end
    else begin
      print_endline
        "mope sql shell — end statements with ';'. Commands: \\d (tables), \
         \\save, \\q.";
      let buffer = Buffer.create 256 in
      let rec loop () =
        print_string (if Buffer.length buffer = 0 then "mope> " else "  ... ");
        match read_line () with
        | exception End_of_file -> print_newline ()
        | "\\q" -> ()
        | "\\d" ->
          List.iter
            (fun name ->
              let t = Database.table_exn db name in
              Printf.printf "%s (%d rows) %s\n" name (Table.length t)
                (Format.asprintf "%a" Schema.pp (Table.schema t)))
            (Database.tables db);
          loop ()
        | "\\save" ->
          save ();
          loop ()
        | line ->
          Buffer.add_string buffer line;
          Buffer.add_char buffer ' ';
          let text = Buffer.contents buffer in
          if String.contains line ';' then begin
            Buffer.clear buffer;
            run_sql_statement ?wal db (String.trim text)
          end;
          loop ()
      in
      loop ()
    end
  in
  let doc =
    "Interactive SQL shell over the embedded engine (with --db persistence \
     and --wal crash recovery)."
  in
  Cmd.v (Cmd.info "sql" ~doc) Term.(const run $ db_path $ wal_path $ statements)

(* ------------------------------------------------------------------ *)
(* save / load: persist the TPC-H testbed with Mope_db.Storage *)

let path_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc:"Database file.")

let sf_arg =
  let doc = "TPC-H scale factor." in
  Arg.(value & opt float 0.01 & info [ "sf" ] ~docv:"SF" ~doc)

let seed_arg =
  let doc = "Data-generation seed." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc)

let save_cmd =
  let run sf seed path =
    let open Mope_system in
    Printf.printf "generating TPC-H at SF %g (seed %d)...\n%!" sf seed;
    let tb = Testbed.load ~sf ~seed:(Int64.of_int seed) () in
    let sizes = Testbed.sizes tb in
    or_file_error (fun () -> Mope_db.Storage.save (Testbed.plain tb) ~path);
    Printf.printf "saved %s (%d lineitems, %d orders, %d parts)\n" path
      sizes.Mope_workload.Tpch.lineitems sizes.Mope_workload.Tpch.orders
      sizes.Mope_workload.Tpch.parts
  in
  let doc = "Generate the plaintext TPC-H database and save it to disk." in
  Cmd.v (Cmd.info "save" ~doc) Term.(const run $ sf_arg $ seed_arg $ path_arg)

let load_cmd =
  let run path =
    let open Mope_db in
    let db =
      try or_file_error (fun () -> Storage.load ~path)
      with Storage.Corrupt msg ->
        Printf.eprintf "%s: corrupt database: %s\n" path msg;
        exit 1
    in
    Printf.printf "%s:\n" path;
    List.iter
      (fun name ->
        let t = Database.table_exn db name in
        Printf.printf "  %s (%d rows) %s\n" name (Table.length t)
          (Format.asprintf "%a" Schema.pp (Table.schema t)))
      (Database.tables db)
  in
  let doc = "Load a database file written by $(b,save) and list its tables." in
  Cmd.v (Cmd.info "load" ~doc) Term.(const run $ path_arg)

(* ------------------------------------------------------------------ *)
(* serve: the networked trusted proxy *)

let serve_cmd =
  let port_arg =
    let doc = "TCP port to listen on (0 picks an ephemeral port)." in
    Arg.(value & opt int 7070 & info [ "port"; "p" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "Bind address." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let db_arg =
    let doc =
      "Serve the database stored at $(docv) (written by $(b,save)) instead of \
       generating a fresh TPC-H instance."
    in
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"PATH" ~doc)
  in
  let wal_arg =
    let doc =
      "Crash recovery: before serving, replay the longest valid prefix of \
       the write-ahead log at $(docv) over the $(b,--db) snapshot (torn \
       trailing records are discarded). The recovered state is what a \
       crashed writer had acknowledged."
    in
    Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"PATH" ~doc)
  in
  let rho_arg =
    let doc = "Period for QueryP fake-query scheduling (omit for QueryU)." in
    Arg.(value & opt (some int) None & info [ "rho" ] ~docv:"RHO" ~doc)
  in
  let batch_arg =
    let doc = "Executed queries combined into one server statement (§5.1)." in
    Arg.(value & opt int 25 & info [ "batch-size" ] ~docv:"N" ~doc)
  in
  let max_conn_arg =
    let doc = "Live-connection cap; beyond it the accept loop backpressures." in
    Arg.(value & opt int 64 & info [ "max-connections" ] ~docv:"N" ~doc)
  in
  let max_in_flight_arg =
    let doc =
      "In-flight request budget: beyond it requests are shed with a \
       structured Overloaded error and a retry-after hint (0 = unlimited)."
    in
    Arg.(value & opt int 32 & info [ "max-in-flight" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc = "Per-connection read/write timeout in seconds (0 = none)." in
    Arg.(value & opt float 30.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let metrics_dump_arg =
    let doc =
      "Write the Prometheus text rendering of the metrics registry to \
       $(docv) about once a second while serving (and once more at \
       shutdown). The file is replaced atomically, so a scraper never \
       reads a half-written exposition."
    in
    Arg.(value & opt (some string) None
         & info [ "metrics-dump" ] ~docv:"PATH" ~doc)
  in
  let tenants_arg =
    let doc =
      "Multi-tenant mode: serve the tenants listed in $(docv) (one \
       $(i,id:secret) per line, $(b,#) comments allowed). Each tenant gets \
       its own derived master key — hence its own secret offsets — and its \
       own encrypted twin; clients must open an authenticated wire v7 \
       session ($(b,mope rotate) shows the handshake) before querying."
    in
    Arg.(value & opt (some string) None & info [ "tenants" ] ~docv:"FILE" ~doc)
  in
  let root_key_arg =
    let doc =
      "Root key tenant keys are derived from in $(b,--tenants) mode (a \
       real deployment uses random bytes from a KMS)."
    in
    Arg.(value & opt string "serve-root-key" & info [ "root-key" ] ~docv:"KEY" ~doc)
  in
  let run port host db wal sf seed rho batch_size max_connections max_in_flight
      timeout metrics_dump tenants root_key =
    let open Mope_system in
    let open Mope_net in
    (* Observability is on for the lifetime of the server process: the
       Stats wire op and the stats subcommand depend on it. *)
    Mope_obs.Metrics.set_enabled true;
    Mope_obs.Trace.set_enabled true;
    (* A scraper needs atomic visibility, not durability: the dump is
       renamed into place but never fsynced. *)
    let write_metrics_dump path =
      let tmp = path ^ ".tmp" in
      Out_channel.with_open_text tmp (fun oc ->
          output_string oc (Mope_obs.Metrics.render_prometheus ()));
      Sys.rename tmp path
    in
    (* The first dump goes out before the listener opens, so a bad path
       fails at startup; a later failure only warns. *)
    Option.iter
      (fun path -> or_file_error (fun () -> write_metrics_dump path))
      metrics_dump;
    let dump_or_warn path =
      try write_metrics_dump path
      with Sys_error msg -> Printf.eprintf "mope: metrics dump: %s\n%!" msg
    in
    let tb =
      match db, wal with
      | None, None ->
        Printf.printf "generating TPC-H at SF %g (seed %d)...\n%!" sf seed;
        Testbed.load ~sf ~seed:(Int64.of_int seed) ()
      | _ -> (
        (match db with
        | Some path -> Printf.printf "loading %s...\n%!" path
        | None -> Printf.printf "recovering from wal only...\n%!");
        try
          let r =
            or_file_error (fun () -> Mope_db.Storage.recover ?snapshot:db ?wal ())
          in
          (match wal with
          | Some _ ->
            Printf.printf "recovered: snapshot %s, %d wal statement(s)%s\n%!"
              (if r.Mope_db.Storage.snapshot_loaded then "loaded" else "absent")
              r.Mope_db.Storage.wal_applied
              (if r.Mope_db.Storage.wal_torn then
                 " (torn wal tail discarded)"
               else "")
          | None -> ());
          Testbed.of_plain r.Mope_db.Storage.db
        with
        | Mope_db.Storage.Corrupt msg ->
          Printf.eprintf "corrupt database: %s\n" msg;
          exit 1
        | Invalid_argument msg ->
          Printf.eprintf "%s\n" msg;
          exit 1)
    in
    let open Mope_workload in
    (* One proxy per MOPE-encrypted date column: l_shipdate takes Q6/Q14
       traffic, o_orderdate takes Q4. Service serializes per column. *)
    let proxies_over enc =
      List.map
        (fun template ->
          ( Tpch_queries.date_column template,
            Testbed.proxy_over enc ~template ~rho ~batch_size
              ~seed:(Int64.of_int seed) () ))
        [ Tpch_queries.Q6; Tpch_queries.Q4 ]
    in
    let mode =
      match tenants with
      | None ->
        let proxies = proxies_over (Testbed.encrypted_for tb ~rho) in
        `Single (Service.create ~proxies (), proxies)
      | Some file ->
        let configs =
          try
            or_file_error (fun () ->
                Mope_tenant.Registry.load_tenants_file file)
          with Invalid_argument msg ->
            Printf.eprintf "%s\n" msg;
            exit 1
        in
        let make_enc ~key =
          Encrypted_db.create ~key ~window_lo:Tpch.window_lo
            ~date_domain:(Testbed.padded_domain ~rho)
            ~plain:(Testbed.plain tb) ~specs:Testbed.specs ()
        in
        Printf.printf "building %d tenant twin(s)...\n%!" (List.length configs);
        let registry =
          Mope_tenant.Registry.create ~master_key:root_key ~make_enc
            ~make_proxies:proxies_over ~configs ()
        in
        let tenant_service =
          Mope_tenant.Tenant_service.create ~registry
            ?max_inflight:(if max_in_flight > 0 then Some max_in_flight else None)
            ()
        in
        `Tenant (registry, tenant_service)
    in
    let handler =
      match mode with
      | `Single (service, _) -> Service.handler service
      | `Tenant (_, tenant_service) ->
        Mope_tenant.Tenant_service.handler tenant_service
    in
    let config =
      { Server.default_config with
        host; port; max_connections; max_in_flight;
        read_timeout = timeout; write_timeout = timeout }
    in
    let server =
      try Server.start ~config ~handler ()
      with Mope_error.Error e ->
        Printf.eprintf "%s\n" (Mope_error.to_string e);
        exit 1
    in
    (match mode with
    | `Single (_, proxies) ->
      Printf.printf
        "mope proxy listening on %s:%d (columns: %s; %s, batch %d)\n%!" host
        (Server.port server)
        (String.concat ", " (List.map fst proxies))
        (match rho with
        | None -> "QueryU"
        | Some r -> Printf.sprintf "QueryP[%d]" r)
        batch_size
    | `Tenant (registry, _) ->
      Printf.printf
        "mope multi-tenant proxy listening on %s:%d (tenants: %s; %s, batch \
         %d; sessions required)\n%!"
        host (Server.port server)
        (String.concat ", " (Mope_tenant.Registry.ids registry))
        (match rho with
        | None -> "QueryU"
        | Some r -> Printf.sprintf "QueryP[%d]" r)
        batch_size);
    let stop = Atomic.make false in
    let request_stop _ = Atomic.set stop true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    let ticks = ref 0 in
    while not (Atomic.get stop) do
      Thread.delay 0.2;
      incr ticks;
      match metrics_dump with
      | Some path when !ticks mod 5 = 0 -> dump_or_warn path
      | Some _ | None -> ()
    done;
    print_endline "shutting down...";
    Server.shutdown server;
    Option.iter dump_or_warn metrics_dump;
    let s = Server.stats server in
    Printf.printf
      "served %d request(s) over %d connection(s), %d error(s), %d shed; \
       avg latency %.1f ms, max %.1f ms\n"
      s.Server.requests s.Server.connections_accepted s.Server.errors
      s.Server.shed
      (if s.Server.requests = 0 then 0.0
       else 1000.0 *. s.Server.total_latency /. float_of_int s.Server.requests)
      (1000.0 *. s.Server.max_latency);
    (* The proxy and cache counters come from the metrics registry, the
       same numbers a remote [mope stats] scrape sees. *)
    let count name =
      Mope_obs.Metrics.counter_value (Mope_obs.Metrics.counter name ())
    in
    Printf.printf
      "proxy counters: %d client queries -> %d server requests (%d fakes), \
       %d rows fetched, %d delivered\n"
      (count "mope_proxy_queries_total")
      (count "mope_proxy_server_requests_total")
      (count "mope_proxy_fake_queries_total")
      (count "mope_proxy_rows_fetched_total")
      (count "mope_proxy_rows_delivered_total");
    Printf.printf "caches: plan %d hit / %d miss, segment %d hit / %d miss\n"
      (count "mope_plan_cache_hits_total")
      (count "mope_plan_cache_misses_total")
      (count "mope_segment_cache_hits_total")
      (count "mope_segment_cache_misses_total");
    (match mode with
    | `Single _ -> ()
    | `Tenant (registry, tenant_service) ->
      Mope_tenant.Tenant_service.join_workers tenant_service;
      List.iter
        (fun id ->
          match Mope_tenant.Registry.find registry id with
          | None -> ()
          | Some tn ->
            Printf.printf
              "tenant %s: key generation %d, %d query(ies), %d shed\n" id
              tn.Mope_tenant.Registry.generation
              (Mope_obs.Metrics.counter_value
                 (Mope_obs.Metrics.counter "mope_tenant_queries_total"
                    ~labels:[ ("tenant", id) ] ()))
              (Mope_obs.Metrics.counter_value
                 (Mope_obs.Metrics.counter "mope_tenant_shed_total"
                    ~labels:[ ("tenant", id) ] ())))
        (Mope_tenant.Registry.ids registry))
  in
  let doc = "Run the trusted proxy as a concurrent TCP service (Fig. 4)." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ port_arg $ host_arg $ db_arg $ wal_arg $ sf_arg
          $ seed_arg $ rho_arg $ batch_arg $ max_conn_arg $ max_in_flight_arg
          $ timeout_arg $ metrics_dump_arg $ tenants_arg $ root_key_arg)

(* ------------------------------------------------------------------ *)
(* cluster: sharded, replicated loopback topology with scatter-gather *)

let cluster_cmd =
  let shards_arg =
    let doc = "Shard primaries the ciphertext space is partitioned over." in
    Arg.(value & opt int 3 & info [ "shards" ] ~docv:"K" ~doc)
  in
  let replicas_arg =
    let doc = "WAL-shipping read replicas per shard (failover targets)." in
    Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"R" ~doc)
  in
  let rho_arg =
    let doc = "Period for QueryP fake-query scheduling (omit for QueryU)." in
    Arg.(value & opt (some int) None & info [ "rho" ] ~docv:"RHO" ~doc)
  in
  let queries_arg =
    let doc = "Random TPC-H query instances to run through the cluster." in
    Arg.(value & opt int 9 & info [ "queries" ] ~docv:"N" ~doc)
  in
  let kill_arg =
    let doc =
      "Kill shard $(docv)'s primary halfway through the run: subsequent \
       reads touching it must fail over to its replicas."
    in
    Arg.(value & opt (some int) None & info [ "kill-shard" ] ~docv:"SHARD" ~doc)
  in
  let batch_arg =
    let doc = "Executed queries combined into one server statement (§5.1)." in
    Arg.(value & opt int 25 & info [ "batch-size" ] ~docv:"N" ~doc)
  in
  let supervise_arg =
    let doc =
      "Run the failover supervisor: probe every leg, sync replicas under \
       the staleness bound, and auto-promote a replica (under a new \
       fencing epoch) when a primary dies."
    in
    Arg.(value & flag & info [ "supervise" ] ~doc)
  in
  let writes_arg =
    let doc =
      "Retryable writes (client-minted request ids) to storm the killed \
       shard with while the supervisor promotes; afterwards every \
       acknowledged write must be present exactly once. Needs \
       $(b,--supervise) when combined with $(b,--kill-shard)."
    in
    Arg.(value & opt int 0 & info [ "writes" ] ~docv:"W" ~doc)
  in
  let chaos_arg =
    let doc =
      "Wrap every cluster connection in seeded 'slow' chaos (partial I/O \
       and latency) with this seed."
    in
    Arg.(value & opt (some int) None & info [ "chaos" ] ~docv:"SEED" ~doc)
  in
  let run shards replicas sf seed rho queries kill batch_size supervise writes
      chaos =
    let open Mope_system in
    let open Mope_workload in
    let open Mope_cluster in
    Mope_obs.Metrics.set_enabled true;
    if shards < 1 then begin
      Printf.eprintf "--shards must be >= 1\n";
      exit 1
    end;
    (match kill with
    | Some s when s < 0 || s >= shards ->
      Printf.eprintf "--kill-shard %d out of range (0..%d)\n" s (shards - 1);
      exit 1
    | Some _ when replicas < 1 ->
      Printf.eprintf "--kill-shard needs --replicas >= 1 to keep serving\n";
      exit 1
    | _ -> ());
    if writes > 0 && kill <> None && not supervise then begin
      Printf.eprintf "--writes with --kill-shard needs --supervise\n";
      exit 1
    end;
    Printf.printf "generating TPC-H at SF %g (seed %d)...\n%!" sf seed;
    let tb = Testbed.load ~sf ~seed:(Int64.of_int seed) () in
    let enc = Testbed.encrypted_for tb ~rho in
    let wal_dir = Filename.temp_file "mope-cluster" "" in
    Sys.remove wal_dir;
    Unix.mkdir wal_dir 0o700;
    let wrap =
      Option.map
        (fun cs io ->
          Mope_net.Chaos.wrap ~config:Mope_net.Chaos.slow
            ~seed:(Int64.of_int cs) io)
        chaos
    in
    let topo = Topology.launch ~enc ~shards ~replicas ~wal_dir ?wrap () in
    let sup =
      if supervise then begin
        let s =
          Topology.supervisor topo ~seed:(Int64.of_int (seed + 7)) ()
        in
        Supervisor.start s;
        Some s
      end
      else None
    in
    Fun.protect
      ~finally:(fun () ->
        Option.iter Supervisor.stop sup;
        Topology.shutdown topo;
        Array.iter
          (fun f -> Sys.remove (Filename.concat wal_dir f))
          (Sys.readdir wal_dir);
        Unix.rmdir wal_dir)
      (fun () ->
        Printf.printf
          "cluster up: %d shard(s) x %d replica(s) on 127.0.0.1 (primary \
           ports %s); %s\n%!"
          shards replicas
          (String.concat ", "
             (List.init shards (fun i ->
                  string_of_int (Topology.primary_port topo ~shard:i))))
          (match rho with
          | None -> "QueryU"
          | Some r -> Printf.sprintf "QueryP[%d]" r);
        (* One proxy per MOPE date column, as serve builds them — but the
           fetch seam scatter-gathers over the shard fleet. *)
        let proxies =
          [ ( Tpch_queries.date_column Tpch_queries.Q6,
              Testbed.proxy tb ~template:Tpch_queries.Q6 ~rho ~batch_size
                ~fetch_many:(Topology.fetch_many topo) ~seed:(Int64.of_int (seed + 1)) () );
            ( Tpch_queries.date_column Tpch_queries.Q4,
              Testbed.proxy tb ~template:Tpch_queries.Q4 ~rho ~batch_size
                ~fetch_many:(Topology.fetch_many topo) ~seed:(Int64.of_int (seed + 2)) () ) ]
        in
        let rng = Rng.create (Int64.of_int (seed + 1000)) in
        let templates = [| Tpch_queries.Q6; Tpch_queries.Q14; Tpch_queries.Q4 |] in
        let failures = ref 0 in
        let killed = ref false in
        let do_kill shard =
          if not !killed then begin
            killed := true;
            Printf.printf "-- killing shard %d's primary --\n%!" shard;
            Topology.kill_primary topo ~shard
          end
        in
        if writes > 0 then begin
          let coord = Topology.coordinator topo in
          let shard = match kill with Some s -> s | None -> 0 in
          Printf.printf
            "write storm: %d retryable write(s) against shard %d%s\n%!" writes
            shard
            (if kill <> None then " (killing its primary mid-storm)" else "");
          ignore
            (Coordinator.apply coord ~request_id:"demo:create" ~retries:100
               ~shard ~sql:"CREATE TABLE failover_log (w INTEGER, v TEXT)");
          let acked = ref [] and refused = ref [] in
          for w = 0 to writes - 1 do
            (match kill with
            | Some s when w = writes / 2 -> do_kill s
            | _ -> ());
            let sql =
              Printf.sprintf "INSERT INTO failover_log VALUES (%d, 'w%d')" w w
            in
            match
              Coordinator.apply coord
                ~request_id:(Printf.sprintf "demo:%d" w)
                ~retries:100 ~retry_backoff:0.05 ~shard ~sql
            with
            | _ -> acked := w :: !acked
            | exception Mope_error.Error _ -> refused := w :: !refused
          done;
          (* Let the supervisor finish promoting before auditing. *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          while
            Coordinator.is_read_only coord ~shard
            && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.05
          done;
          let leg = Coordinator.primary_leg coord ~shard in
          let port =
            if leg = 0 then Topology.primary_port topo ~shard
            else Topology.replica_port topo ~shard ~index:(leg - 1)
          in
          let epoch = Coordinator.epoch coord ~shard in
          let audit =
            Mope_net.Client.with_client ~port (fun c ->
                Mope_net.Client.fetch c ~epoch
                  ~sql:"SELECT w FROM failover_log ORDER BY w" ())
          in
          let counts = Hashtbl.create 64 in
          List.iter
            (fun row ->
              match int_of_string_opt (Mope_db.Value.to_string row.(0)) with
              | Some w ->
                Hashtbl.replace counts w
                  (1 + (try Hashtbl.find counts w with Not_found -> 0))
              | None -> ())
            audit.Mope_db.Exec.rows;
          let count w = try Hashtbl.find counts w with Not_found -> 0 in
          List.iter
            (fun w ->
              if count w <> 1 then begin
                incr failures;
                Printf.printf
                  "LOST/DUPLICATED: write %d acknowledged but present %d \
                   time(s)\n"
                  w (count w)
              end)
            !acked;
          List.iter
            (fun w ->
              if count w <> 0 then begin
                incr failures;
                Printf.printf "PHANTOM: write %d refused but present\n" w
              end)
            !refused;
          Printf.printf
            "write storm: %d acked, %d refused; every acknowledged write \
             present exactly once: %s (serving leg %d, epoch %d)\n%!"
            (List.length !acked) (List.length !refused)
            (if !failures = 0 then "yes" else "NO")
            leg epoch
        end;
        for q = 0 to queries - 1 do
          (match kill with
          | Some shard when q = (queries + 1) / 2 -> do_kill shard
          | _ -> ());
          let inst =
            Tpch_queries.random_instance rng
              templates.(q mod Array.length templates)
          in
          let name = Tpch_queries.template_name inst.Tpch_queries.template in
          let col = Tpch_queries.date_column inst.Tpch_queries.template in
          match Testbed.run_encrypted (List.assoc col proxies) inst with
          | got ->
            let ok =
              Testbed.fingerprint got = Testbed.fingerprint (Testbed.run_plain tb inst)
            in
            if not ok then incr failures;
            Printf.printf "%-4s %4d row(s)  %s\n%!" name
              (List.length got.Mope_db.Exec.rows)
              (if ok then "ok (matches plaintext)" else "MISMATCH")
          | exception Mope_error.Error e ->
            incr failures;
            Printf.printf "%-4s FAILED: %s\n%!" name (Mope_error.to_string e)
        done;
        let failovers =
          List.fold_left ( + ) 0
            (List.init shards (fun i ->
                 Mope_obs.Metrics.counter_value
                   (Mope_obs.Metrics.counter "mope_cluster_failover_total"
                      ~labels:[ ("shard", string_of_int i) ] ())))
        in
        Printf.printf "reads served by replicas after failover: %d\n" failovers;
        if replicas > 0 then
          List.iteri
            (fun shard lags ->
              Printf.printf "shard %d replica lag: %s byte(s)\n" shard
                (String.concat ", " (List.map string_of_int lags)))
            (List.init shards (fun i -> Topology.replica_lag topo ~shard:i));
        if supervise then
          List.iter
            (fun i ->
              let labels = [ ("shard", string_of_int i) ] in
              Printf.printf "shard %d: promotions %d, fencing epoch %d\n" i
                (Mope_obs.Metrics.counter_value
                   (Mope_obs.Metrics.counter "mope_cluster_promotions_total"
                      ~labels ()))
                (Mope_obs.Metrics.gauge_value
                   (Mope_obs.Metrics.gauge "mope_cluster_epoch" ~labels ())))
            (List.init shards (fun i -> i));
        if !failures > 0 then begin
          Printf.eprintf "%d query(ies) failed or diverged\n" !failures;
          exit 1
        end)
  in
  let doc =
    "Launch a loopback sharded cluster — $(b,K) primaries each holding one \
     ciphertext slice, $(b,R) WAL-shipping replicas per shard — and run \
     scatter-gather TPC-H queries through it, checking every answer \
     against the plaintext baseline. With $(b,--supervise), a failover \
     supervisor health-checks every leg and auto-promotes a replica under \
     a new fencing epoch when a primary dies; $(b,--writes) storms the \
     killed shard with retryable writes and audits that every \
     acknowledged write survives exactly once."
  in
  Cmd.v (Cmd.info "cluster" ~doc)
    Term.(const run $ shards_arg $ replicas_arg $ sf_arg $ seed_arg $ rho_arg
          $ queries_arg $ kill_arg $ batch_arg $ supervise_arg $ writes_arg
          $ chaos_arg)

(* ------------------------------------------------------------------ *)
(* stats: scrape a running proxy *)

let stats_cmd =
  let port_arg =
    let doc = "Port the proxy listens on." in
    Arg.(value & opt int 7070 & info [ "port"; "p" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "Proxy address." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let json_arg =
    let doc = "Print the JSON rendering instead of Prometheus text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let traces_arg =
    let doc = "Also print the server's recent request traces (span trees)." in
    Arg.(value & flag & info [ "traces" ] ~doc)
  in
  let run host port json traces =
    let open Mope_net in
    match Client.with_client ~host ~port Client.stats with
    | s ->
      print_string (if json then s.Wire.metrics_json else s.Wire.metrics_text);
      if traces then begin
        if s.Wire.traces = [] then print_endline "(no traces recorded)"
        else
          List.iter
            (fun d -> print_string (Mope_obs.Trace.render d))
            s.Wire.traces
      end
    | exception Mope_error.Error e ->
      Printf.eprintf "%s\n" (Mope_error.to_string e);
      exit 1
  in
  let doc =
    "Scrape a running proxy's metrics (and optionally its recent traces) \
     over the Stats wire op."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run $ host_arg $ port_arg $ json_arg $ traces_arg)

(* ------------------------------------------------------------------ *)
(* rotate: drive an online key rotation on a multi-tenant proxy *)

let rotate_cmd =
  let port_arg =
    let doc = "Port the multi-tenant proxy listens on." in
    Arg.(value & opt int 7070 & info [ "port"; "p" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "Proxy address." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let tenant_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TENANT" ~doc:"Tenant id to rotate.")
  in
  let secret_arg =
    let doc = "The tenant's session-handshake secret (as in the tenants file)." in
    Arg.(required & opt (some string) None & info [ "secret" ] ~docv:"SECRET" ~doc)
  in
  let status_arg =
    let doc = "Only poll the rotation state; do not start one." in
    Arg.(value & flag & info [ "status" ] ~doc)
  in
  let no_wait_arg =
    let doc = "Return after starting instead of polling until cutover." in
    Arg.(value & flag & info [ "no-wait" ] ~doc)
  in
  let run host port tenant secret status no_wait =
    let open Mope_net in
    let show (st : Client.rotation_status) =
      Printf.printf "%s: %s, key generation %d" tenant st.Client.state
        st.Client.generation;
      if st.Client.state = "rotating" then
        Printf.printf " -> %d (%d/%d rows moved)" (st.Client.generation + 1)
          st.Client.rows_moved st.Client.rows_total;
      print_newline ()
    in
    match
      Client.with_client ~host ~port (fun c ->
          (* Authenticated session first: rotation is a tenant-scoped op. *)
          ignore (Client.open_session c ~tenant ~secret ());
          if status then show (Client.rotate c ~status_only:true ~tenant ())
          else begin
            show (Client.rotate c ~tenant ());
            if not no_wait then begin
              let rec poll () =
                let st = Client.rotate c ~status_only:true ~tenant () in
                show st;
                if st.Client.state = "rotating" then begin
                  Unix.sleepf 0.1;
                  poll ()
                end
              in
              poll ()
            end
          end)
    with
    | () -> ()
    | exception Mope_error.Error e ->
      Printf.eprintf "%s\n" (Mope_error.to_string e);
      exit 1
  in
  let doc =
    "Start (or poll, with $(b,--status)) an online key rotation for one \
     tenant of a $(b,serve --tenants) proxy. The tenant keeps serving \
     throughout: rows move to the new key in bounded chunks and queries \
     read both generations until the atomic cutover."
  in
  Cmd.v (Cmd.info "rotate" ~doc)
    Term.(const run $ host_arg $ port_arg $ tenant_arg $ secret_arg
          $ status_arg $ no_wait_arg)

let () =
  let doc = "Modular order-preserving encryption (SIGMOD'15 reproduction)." in
  let info = Cmd.info "mope" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ encrypt_cmd; decrypt_cmd; ranges_cmd; schedule_cmd; demo_cmd;
            attack_cmd; sql_cmd; serve_cmd; cluster_cmd; stats_cmd; save_cmd;
            load_cmd; rotate_cmd ]))
