open Mope_system
module Server = Mope_net.Server
module Mope = Mope_ope.Mope

type node = {
  store : Store.t;
  server : Server.t;
  node_port : int;
  mutable killed : bool;
}

type rep = { rep_node : node; rep : Replica.t; rep_wal : string }

type shard_nodes = {
  primary : node;
  primary_wal : string;
  replicas : rep list;
  mutable zombie : node option;
}

type t = {
  topo_map : Shard_map.t;
  shard_nodes : shard_nodes array;
  coord : Coordinator.t;
  topo_wrap : (Mope_net.Transport.t -> Mope_net.Transport.t) option;
  mutable down : bool;
}

let server_config ?wrap port =
  { Server.default_config with Server.port; wrap }

let start_node ?wrap store =
  let server =
    Server.start ~config:(server_config ?wrap 0) ~handler:(Store.handler store) ()
  in
  { store; server; node_port = Server.port server; killed = false }

let launch ~enc ~shards ~replicas ~wal_dir ?(wal_sync = false) ?wrap
    ?(seed = 0xC10C5EEDL) () =
  if shards < 1 then invalid_arg "Topology.launch: shards < 1";
  if replicas < 0 then invalid_arg "Topology.launch: replicas < 0";
  let topo_map =
    Shard_map.create ~shards ~range:(Mope.range (Encrypted_db.mope enc))
  in
  (* Primaries first: stamp each store with its shard's fencing epoch
     (logging the epoch mark before any data, so replicas adopt it from
     replay alone), then load each slice through Store.apply so every
     statement lands in the shard's WAL — the log the replicas replay. *)
  let statements =
    Encrypted_db.shard_statements enc ~shards
      ~shard_of:(Shard_map.shard_of topo_map)
  in
  let primary_wal i = Filename.concat wal_dir (Printf.sprintf "shard-%d.wal" i) in
  let primaries =
    Array.mapi
      (fun i stmts ->
        let store = Store.create ~wal_path:(primary_wal i) ~wal_sync () in
        Store.set_epoch store (Shard_map.epoch topo_map i);
        List.iter (fun sql -> ignore (Store.apply store ~sql)) stmts;
        start_node ?wrap store)
      statements
  in
  let shard_nodes =
    Array.mapi
      (fun i primary ->
        let reps =
          List.init replicas (fun r ->
              let rep_wal =
                Filename.concat wal_dir
                  (Printf.sprintf "shard-%d-replica-%d.wal" i r)
              in
              let replica =
                Replica.create ~shard:i ~port:primary.node_port ?wrap
                  ~seed:(Int64.add seed (Int64.of_int ((i * 31) + r + 1)))
                  ~wal_path:rep_wal ()
              in
              ignore (Replica.sync replica);
              { rep_node = start_node ?wrap (Replica.store replica);
                rep = replica;
                rep_wal })
            (* The replica's store is served like any primary: the
               coordinator's failover just dials another port. *)
        in
        { primary; primary_wal = primary_wal i; replicas = reps; zombie = None })
      primaries
  in
  let coord =
    Coordinator.create ~map:topo_map
      ~shards:
        (Array.to_list
           (Array.map
              (fun s ->
                { Coordinator.primary =
                    { Coordinator.host = "127.0.0.1"; port = s.primary.node_port };
                  replicas =
                    List.map
                      (fun r ->
                        { Coordinator.host = "127.0.0.1";
                          port = r.rep_node.node_port })
                      s.replicas })
              shard_nodes))
      ~seed:(Int64.add seed 0x7777L) ?wrap ()
  in
  { topo_map; shard_nodes; coord; topo_wrap = wrap; down = false }

let coordinator t = t.coord

let fetch_many t = Coordinator.fetch_many t.coord

let map t = t.topo_map

let shards t = Array.length t.shard_nodes

let check_shard t shard =
  if shard < 0 || shard >= Array.length t.shard_nodes then
    invalid_arg "Topology: bad shard index"

let primary_port t ~shard =
  check_shard t shard;
  t.shard_nodes.(shard).primary.node_port

let primary_wal_path t ~shard =
  check_shard t shard;
  t.shard_nodes.(shard).primary_wal

let replicas_of t ~shard =
  check_shard t shard;
  List.map (fun r -> r.rep) t.shard_nodes.(shard).replicas

let replica_port t ~shard ~index =
  check_shard t shard;
  match List.nth_opt t.shard_nodes.(shard).replicas index with
  | Some r -> r.rep_node.node_port
  | None -> invalid_arg "Topology.replica_port: bad replica index"

let sync_replicas t =
  Array.fold_left
    (fun acc s ->
      List.fold_left (fun acc r -> acc + Replica.sync r.rep) acc s.replicas)
    0 t.shard_nodes

let replica_lag t ~shard =
  check_shard t shard;
  List.map (fun r -> Replica.lag_bytes r.rep) t.shard_nodes.(shard).replicas

let supervisor t ?config ?seed ?wrap ?map_path () =
  Supervisor.create ?config ?seed ?wrap ?map_path ~map:t.topo_map
    ~coordinator:t.coord
    ~targets:
      (Array.to_list
         (Array.map
            (fun s ->
              { Supervisor.port = s.primary.node_port;
                wal_path = s.primary_wal;
                replica = None }
              :: List.map
                   (fun r ->
                     { Supervisor.port = r.rep_node.node_port;
                       wal_path = r.rep_wal;
                       replica = Some r.rep })
                   s.replicas)
            t.shard_nodes))
    ()

let kill_node n =
  if not n.killed then begin
    n.killed <- true;
    Server.shutdown n.server;
    Store.close n.store
  end

let kill_primary t ~shard =
  check_shard t shard;
  kill_node t.shard_nodes.(shard).primary

let revive_primary t ~shard =
  check_shard t shard;
  let s = t.shard_nodes.(shard) in
  if not s.primary.killed then
    invalid_arg "Topology.revive_primary: primary is not killed";
  (match s.zombie with Some z -> kill_node z | None -> ());
  (* The zombie recovers from its own WAL — fencing epoch, dedup table and
     slice all replayed — and rebinds its old port (SO_REUSEADDR), exactly
     like a restarted process rejoining the cluster with stale state. The
     supervisor's next probe of the deposed leg will reach it and fence
     it. *)
  let store = Store.recover ~wal_path:s.primary_wal () in
  let server =
    Server.start
      ~config:(server_config ?wrap:t.topo_wrap s.primary.node_port)
      ~handler:(Store.handler store) ()
  in
  let node =
    { store; server; node_port = Server.port server; killed = false }
  in
  s.zombie <- Some node;
  node.node_port

let zombie_port t ~shard =
  check_shard t shard;
  Option.map (fun z -> z.node_port) t.shard_nodes.(shard).zombie

let shutdown t =
  if not t.down then begin
    t.down <- true;
    Coordinator.close t.coord;
    Array.iter
      (fun s ->
        List.iter
          (fun r ->
            (try Replica.close r.rep with Mope_error.Error _ -> ());
            kill_node r.rep_node)
          s.replicas;
        kill_node s.primary;
        match s.zombie with Some z -> kill_node z | None -> ())
      t.shard_nodes
  end
