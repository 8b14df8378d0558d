open Mope_core
open Mope_db
open Mope_workload

type t = {
  plain : Database.t;
  sizes : Tpch.sizes;
  key : string;
  mutable encrypted : ((int option * bool) * Encrypted_db.t) list;
      (* cache by (rho, ope_cache) *)
}

let load ?(sf = 0.01) ?(seed = 7L) () =
  let plain = Database.create () in
  let sizes = Tpch.load plain ~sf ~seed in
  { plain; sizes; key = "testbed-master-key"; encrypted = [] }

let of_plain ?(key = "testbed-master-key") plain =
  let rows name =
    match Database.table plain name with
    | Some t -> Table.length t
    | None -> invalid_arg (Printf.sprintf "Testbed.of_plain: missing table %s" name)
  in
  let sizes =
    { Tpch.lineitems = rows "lineitem"; orders = rows "orders"; parts = rows "part" }
  in
  { plain; sizes; key; encrypted = [] }

let plain t = t.plain

let sizes t = t.sizes

let run_plain t instance = Database.query t.plain instance.Tpch_queries.sql

let fingerprint (r : Exec.result) =
  List.map (fun row -> Array.to_list (Array.map Value.to_string row)) r.Exec.rows

let padded_domain ~rho =
  let m = Tpch.date_domain in
  match rho with
  | None -> m
  | Some rho ->
    if rho <= 0 then invalid_arg "Testbed.padded_domain: rho";
    ((m + rho - 1) / rho) * rho

let specs =
  [ { Encrypted_db.table = "lineitem";
      encrypted_columns =
        [ ("l_shipdate", Encrypted_db.Mope_date);
          ("l_orderkey", Encrypted_db.Det_int);
          ("l_partkey", Encrypted_db.Det_int) ];
      index_columns = [ "l_shipdate" ] };
    { Encrypted_db.table = "orders";
      encrypted_columns =
        [ ("o_orderdate", Encrypted_db.Mope_date);
          ("o_orderkey", Encrypted_db.Det_int) ];
      index_columns = [ "o_orderdate"; "o_orderkey" ] };
    { Encrypted_db.table = "part";
      encrypted_columns = [ ("p_partkey", Encrypted_db.Det_int) ];
      index_columns = [ "p_partkey" ] } ]

let encrypted_for ?(ope_cache = true) t ~rho =
  match List.assoc_opt (rho, ope_cache) t.encrypted with
  | Some enc -> enc
  | None ->
    let enc =
      Encrypted_db.create ~key:t.key ~ope_cache ~window_lo:Tpch.window_lo
        ~date_domain:(padded_domain ~rho) ~plain:t.plain ~specs ()
    in
    t.encrypted <- ((rho, ope_cache), enc) :: t.encrypted;
    enc

let proxy_over enc ~template ~rho ?batch_size ?caching ?fetch_many
    ?(seed = 99L) () =
  let m = Encrypted_db.date_domain enc in
  let q = Tpch_queries.start_distribution ~domain:m template in
  let mode =
    match rho with
    | None -> Scheduler.Uniform
    | Some rho -> Scheduler.Periodic rho
  in
  let scheduler =
    Scheduler.create ~m ~k:(Tpch_queries.fixed_length template) ~mode ~q
  in
  Proxy.create ~enc ~scheduler ?batch_size ?caching ?fetch_many ~seed ()

let proxy t ~template ~rho ?batch_size ?caching ?ope_cache ?fetch_many
    ?(seed = 99L) () =
  proxy_over (encrypted_for ?ope_cache t ~rho) ~template ~rho ?batch_size
    ?caching ?fetch_many ~seed ()

let run_encrypted proxy instance =
  Proxy.execute proxy ~sql:instance.Tpch_queries.sql
    ~date_column:(Tpch_queries.date_column instance.Tpch_queries.template)
    ~date_lo:instance.Tpch_queries.date_lo ~date_hi:instance.Tpch_queries.date_hi
