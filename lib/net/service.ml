open Mope_system
module Metrics = Mope_obs.Metrics
module Trace = Mope_obs.Trace

(* One proxy per date column behind a checkout flag. The pooled server
   runs the handler on many workers at once; a worker checks the column's
   proxy out, executes with no lock held, and checks it back in — so the
   pool mutex guards only the flag, never a query execution, and workers
   wanting a busy column park on the pool's condition variable. *)
type pool = {
  lock : Mutex.t;
  returned : Condition.t;
  proxy : Proxy.t;
  mutable busy : bool;
}

type t = { pools : (string * pool) list }

let create ~proxies () =
  let columns = List.map fst proxies in
  if columns = [] then invalid_arg "Service.create: no proxies";
  if List.length (List.sort_uniq String.compare columns) <> List.length columns
  then invalid_arg "Service.create: duplicate date column";
  { pools =
      List.map
        (fun (column, proxy) ->
          ( column,
            { lock = Mutex.create (); returned = Condition.create (); proxy;
              busy = false } ))
        proxies }

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let checkout pool =
  locked pool.lock (fun () ->
      while pool.busy do
        Condition.wait pool.returned pool.lock
      done;
      pool.busy <- true)

let checkin pool =
  locked pool.lock (fun () ->
      pool.busy <- false;
      Condition.signal pool.returned)

let using t ~date_column f =
  match List.assoc_opt date_column t.pools with
  | None -> None
  | Some pool ->
    checkout pool;
    Some
      (Fun.protect
         ~finally:(fun () -> checkin pool)
         (fun () -> Trace.with_span "exec" (fun () -> f pool.proxy)))

let error ?query code message =
  Wire.Error { code; message; query; retry_after = None }

let answer ~sql ~date_column run =
  match run () with
  | Some result -> Wire.Rows result
  | None ->
    error Wire.Unsupported ~query:sql ("no proxy serves date column " ^ date_column)
  | exception e -> error Wire.Exec_failed ~query:sql (Mope_error.describe_exn e)

let query t ~sql ~date_column ~date_lo ~date_hi =
  answer ~sql ~date_column (fun () ->
      using t ~date_column (fun proxy ->
          Proxy.execute proxy ~sql ~date_column ~date_lo ~date_hi))

let stats () =
  Wire.Stats
    { Wire.metrics_text = Metrics.render_prometheus ();
      metrics_json = Metrics.render_json ();
      traces = Trace.recent () }

let handler t (_header : Wire.header) = function
  | Wire.Ping -> Wire.Pong
  | Wire.Get_stats -> stats ()
  | Wire.Query { sql; date_column; date_lo; date_hi } ->
    query t ~sql ~date_column ~date_lo ~date_hi
  | Wire.Fetch { sql; _ } | Wire.Apply { sql; _ } ->
    (* Store ops are served by cluster shard stores (Mope_cluster.Store),
       not by the query frontend. *)
    error Wire.Unsupported ~query:sql "store operation sent to a query frontend"
  | Wire.Wal_since _ | Wire.Fence _ ->
    error Wire.Unsupported "cluster control operation sent to a query frontend"
  | Wire.Open_session _ | Wire.Authenticate _ | Wire.Rotate _ ->
    (* Sessions exist only behind the multi-tenant front door
       (Mope_tenant.Tenant_service), which ends in this handler too. *)
    error Wire.Unsupported "tenant operation sent to a single-tenant service"
