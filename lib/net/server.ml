module Metrics = Mope_obs.Metrics
module Trace = Mope_obs.Trace

(* Registered at module init; all no-ops until Metrics.set_enabled true. *)
let m_requests =
  Metrics.counter ~help:"Requests decoded (admitted or shed)"
    "mope_server_requests_total" ()

let m_errors =
  Metrics.counter ~help:"Requests answered with a Wire.Error or Unsupported_version"
    "mope_server_errors_total" ()

let m_shed =
  Metrics.counter ~help:"Requests shed by admission control"
    "mope_server_shed_total" ()

let m_connections =
  Metrics.counter ~help:"Connections accepted" "mope_server_connections_total"
    ()

let m_in_flight =
  Metrics.gauge ~help:"Requests currently inside the handler"
    "mope_server_in_flight" ()

let m_latency =
  Metrics.histogram
    ~help:"Request latency from decode start to response write completion"
    "mope_server_request_seconds" ()

type config = {
  host : string;
  port : int;
  backlog : int;
  max_connections : int;
  max_in_flight : int;
  read_timeout : float;
  write_timeout : float;
  wrap : (Transport.t -> Transport.t) option;
}

let default_config =
  { host = "127.0.0.1";
    port = 0;
    backlog = 16;
    max_connections = 64;
    max_in_flight = 32;
    read_timeout = 30.0;
    write_timeout = 30.0;
    wrap = None }

type stats = {
  mutable connections_accepted : int;
  mutable requests : int;
  mutable errors : int;
  mutable shed : int;
  mutable total_latency : float;
  mutable max_latency : float;
  mutable admitted : int;
  mutable admitted_latency : float;
}

(* One queued response: everything the connection's writer needs to frame
   it, and what the bookkeeping needs once it is on the wire. *)
type out_item = {
  o_req_id : int;  (* echoed v8 request id (0 = unassigned) *)
  o_started : float;  (* decode start, for the latency metric *)
  o_admitted : bool;  (* false for shed / codec-error answers *)
  o_response : Wire.response;
}

(* Per-connection state shared by its reader thread, its writer thread and
   the worker pool. The writer is the response sequencer: it is the only
   thread that ever writes to [io], so concurrently completing requests
   cannot interleave frames; it exits — and closes the socket — once the
   reader is done, no admitted request is still executing ([executing])
   and the queue is drained. The socket is reached only through [io], so
   nothing touches its descriptor number once it is closed. *)
type conn = {
  io : Transport.t;
  c_lock : Mutex.t;
  c_state : Condition.t;
  out : out_item Queue.t;
  mutable executing : int;  (* admitted requests not yet queued on [out] *)
  mutable reader_done : bool;
  mutable write_failed : bool;
}

(* One admitted request travelling from a connection reader to the worker
   pool. *)
type job = {
  j_conn : conn;
  j_header : Wire.header;
  j_request : Wire.request;
  j_started : float;  (* frame read complete = decode start *)
  j_decoded : float;
}

type t = {
  config : config;
  handler : Wire.header -> Wire.request -> Wire.response;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stats : stats;
  lock : Mutex.t;
  state_changed : Condition.t;  (* job queued, conn drained, or stopping *)
  jobs : job Queue.t;  (* admitted requests awaiting a pool worker *)
  mutable active : conn list;  (* live connections *)
  mutable readers : Thread.t list;
  mutable writers : Thread.t list;
  mutable pool : Thread.t list;  (* the shared worker pool *)
  mutable in_flight : int;  (* admitted requests not yet handled *)
  mutable stopping : bool;
  mutable accept_thread : Thread.t option;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let locked_conn c f =
  Mutex.lock c.c_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.c_lock) f

let port t = t.bound_port

let active_connections t = locked t (fun () -> List.length t.active)

let stats t =
  locked t (fun () ->
      { connections_accepted = t.stats.connections_accepted;
        requests = t.stats.requests;
        errors = t.stats.errors;
        shed = t.stats.shed;
        total_latency = t.stats.total_latency;
        max_latency = t.stats.max_latency;
        admitted = t.stats.admitted;
        admitted_latency = t.stats.admitted_latency })

let in_flight t = locked t (fun () -> t.in_flight)

(* ------------------------------------------------------------------ *)
(* Bookkeeping *)

let set_timeouts config fd =
  if config.read_timeout > 0.0 then
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO config.read_timeout;
  if config.write_timeout > 0.0 then
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO config.write_timeout

(* Counters are recorded before the response frame goes out (so an
   in-process caller that just received its answer already sees the
   request counted), the latency after the write completes — the metric
   is "decode start to response write completion", and serialization +
   socket write is the part pipelining changes most. *)
let record_counts t ~is_error =
  Metrics.inc m_requests;
  if is_error then Metrics.inc m_errors;
  locked t (fun () ->
      t.stats.requests <- t.stats.requests + 1;
      if is_error then t.stats.errors <- t.stats.errors + 1)

let record_latency t ~started ~admitted =
  let elapsed = Unix.gettimeofday () -. started in
  Metrics.observe m_latency elapsed;
  locked t (fun () ->
      t.stats.total_latency <- t.stats.total_latency +. elapsed;
      if elapsed > t.stats.max_latency then t.stats.max_latency <- elapsed;
      if admitted then begin
        t.stats.admitted <- t.stats.admitted + 1;
        t.stats.admitted_latency <- t.stats.admitted_latency +. elapsed
      end)

(* Admission control: reserve an in-flight slot, or shed with a structured
   [Overloaded] answer carrying a retry-after hint. *)
let try_admit t =
  locked t (fun () ->
      if t.config.max_in_flight > 0 && t.in_flight >= t.config.max_in_flight
      then false
      else begin
        t.in_flight <- t.in_flight + 1;
        Metrics.gauge_add m_in_flight 1;
        true
      end)

let release t =
  Metrics.gauge_add m_in_flight (-1);
  locked t (fun () -> t.in_flight <- t.in_flight - 1)

(* The retry-after hint is twice the observed mean latency of *admitted*
   requests — long enough for a slot to drain in the common case. Shed
   answers themselves complete in microseconds, so folding them into the
   mean (as the pre-v8 server did via the all-requests mean) would drag
   the hint toward its floor under sustained overload and synchronize the
   retry stampede the hint exists to spread out. *)
let shed_response t =
  Metrics.inc m_shed;
  locked t (fun () ->
      t.stats.shed <- t.stats.shed + 1;
      let avg =
        if t.stats.admitted = 0 then 0.025
        else t.stats.admitted_latency /. float_of_int t.stats.admitted
      in
      Wire.Error
        { code = Wire.Overloaded;
          message =
            Printf.sprintf "server at capacity (%d requests in flight)"
              t.in_flight;
          query = None;
          retry_after = Some (Float.max 0.01 (2.0 *. avg)) })

(* ------------------------------------------------------------------ *)
(* Per-connection reader: read + decode frames, shed or enqueue *)

let enqueue_out conn item =
  locked_conn conn (fun () ->
      if item.o_admitted then conn.executing <- conn.executing - 1;
      Queue.push item conn.out;
      Condition.broadcast conn.c_state)

let reader_loop t conn =
  let bad_frame msg =
    Wire.Error
      { code = Wire.Bad_frame; message = msg; query = None; retry_after = None }
  in
  let answer ?(req_id = 0) ~started response =
    enqueue_out conn
      { o_req_id = req_id; o_started = started; o_admitted = false;
        o_response = response }
  in
  let rec loop () =
    match Wire.read_frame_t conn.io with
    | exception End_of_file -> ()
    | exception Wire.Protocol_error msg ->
      (* The length prefix itself was bad: answer, then drop the link. *)
      answer ~started:(Unix.gettimeofday ()) (bad_frame msg)
    | payload ->
      let started = Unix.gettimeofday () in
      (match Wire.decode_request payload with
      | exception Wire.Protocol_error msg ->
        (* Framing held but the payload is garbage; the next frame boundary
           is still trustworthy, so keep the connection. The answer carries
           request id 0 — the server cannot know which request it was. *)
        answer ~started (bad_frame msg);
        loop ()
      | exception Wire.Version_mismatch _ ->
        (* A peer speaking another protocol version: answer with the one
           version-independent message and drop the link — every further
           frame would mismatch the same way. *)
        answer ~started
          (Wire.Unsupported_version { server_version = Wire.version })
      | header, request ->
        let decoded = Unix.gettimeofday () in
        if try_admit t then begin
          locked_conn conn (fun () -> conn.executing <- conn.executing + 1);
          locked t (fun () ->
              Queue.push
                { j_conn = conn; j_header = header; j_request = request;
                  j_started = started; j_decoded = decoded }
                t.jobs;
              Condition.broadcast t.state_changed)
        end
        else
          answer ~req_id:header.Wire.req_id ~started (shed_response t);
        loop ())
  in
  (try loop () with
  | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT | ECONNRESET | EPIPE | EBADF), _, _) ->
    (* Read timeout, peer drop, chaos-injected disconnect, or shutdown
       under our feet. *)
    ()
  | Wire.Protocol_error _ | End_of_file -> ());
  locked_conn conn (fun () ->
      conn.reader_done <- true;
      Condition.broadcast conn.c_state);
  let self = Thread.id (Thread.self ()) in
  locked t (fun () ->
      t.readers <- List.filter (fun th -> Thread.id th <> self) t.readers)

(* ------------------------------------------------------------------ *)
(* Per-connection writer: the response sequencer *)

let writer_loop t conn =
  let next () =
    locked_conn conn (fun () ->
        while
          Queue.is_empty conn.out
          && not (conn.reader_done && conn.executing = 0)
        do
          Condition.wait conn.c_state conn.c_lock
        done;
        if Queue.is_empty conn.out then None else Some (Queue.pop conn.out))
  in
  let rec drain () =
    match next () with
    | None -> ()
    | Some item ->
      let is_error =
        match item.o_response with
        | Wire.Error _ | Wire.Unsupported_version _ -> true
        | _ -> false
      in
      record_counts t ~is_error;
      let failed = locked_conn conn (fun () -> conn.write_failed) in
      (if not failed then
         try
           Wire.write_frame_t conn.io
             (Wire.encode_response ~req_id:item.o_req_id item.o_response)
         with
         | Unix.Unix_error _ | Sys_error _ ->
           (* The peer is gone (or chaos cut the link): stop writing, and
              kick the reader out of its blocking read so the connection
              tears down instead of idling until the read timeout. *)
           locked_conn conn (fun () -> conn.write_failed <- true);
           conn.io.Transport.shutdown ());
      record_latency t ~started:item.o_started ~admitted:item.o_admitted;
      drain ()
  in
  drain ();
  conn.io.Transport.close ();
  let self = Thread.id (Thread.self ()) in
  locked t (fun () ->
      t.active <- List.filter (fun c -> c != conn) t.active;
      t.writers <- List.filter (fun th -> Thread.id th <> self) t.writers;
      Condition.broadcast t.state_changed)

(* ------------------------------------------------------------------ *)
(* The shared worker pool *)

let pool_worker t =
  let next () =
    locked t (fun () ->
        while Queue.is_empty t.jobs && not t.stopping do
          Condition.wait t.state_changed t.lock
        done;
        (* Drain queued work even when stopping: each queued job holds an
           [executing] count its connection writer is waiting on. *)
        if Queue.is_empty t.jobs then None else Some (Queue.pop t.jobs))
  in
  let rec go () =
    match next () with
    | None -> ()
    | Some job ->
      (* The span tree for this request roots here: decode is recorded
         retroactively (it ran on the reader thread, before the trace id
         was known), dispatch wraps the handler, and everything the
         handler touches — service, exec, OPE, storage — hangs off
         dispatch via the ambient context. *)
      let response =
        Trace.run ~id:job.j_header.Wire.trace_id (fun () ->
            Trace.record_span "decode"
              ~dur_us:((job.j_decoded -. job.j_started) *. 1e6);
            Trace.with_span "dispatch" (fun () ->
                try t.handler job.j_header job.j_request with
                | Mope_error.Error e ->
                  Wire.Error
                    { code = Wire.Exec_failed; message = e.Mope_error.msg;
                      query = e.Mope_error.query; retry_after = None }
                | exn ->
                  Wire.Error
                    { code = Wire.Internal;
                      message = Mope_error.describe_exn exn;
                      query = None; retry_after = None }))
      in
      release t;
      enqueue_out job.j_conn
        { o_req_id = job.j_header.Wire.req_id; o_started = job.j_started;
          o_admitted = true; o_response = response };
      go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Accept loop with backpressure *)

let accept_loop t =
  let rec go () =
    (* Backpressure: hold accepting while at the connection cap, so new
       clients queue in the kernel backlog instead of spawning threads. *)
    let stop =
      locked t (fun () ->
          while
            List.length t.active >= t.config.max_connections && not t.stopping
          do
            Condition.wait t.state_changed t.lock
          done;
          t.stopping)
    in
    if not stop then
      match Unix.accept ~cloexec:true t.listen_fd with
      | exception Unix.Unix_error ((EBADF | EINVAL), _, _) ->
        () (* listener closed by shutdown *)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        go () (* listener poll timeout: recheck the stop flag *)
      | exception Unix.Unix_error (_, _, _) -> go ()
      | fd, _peer ->
        set_timeouts t.config fd;
        (* Pipelined responses go out as a train of small frames; without
           this, Nagle holds each one for the peer's delayed ACK and a
           depth-8 window serves slower than lockstep. *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        Metrics.inc m_connections;
        let io =
          let base = Transport.of_fd fd in
          match t.config.wrap with None -> base | Some wrap -> wrap base
        in
        let conn =
          { io;
            c_lock = Mutex.create ();
            c_state = Condition.create ();
            out = Queue.create ();
            executing = 0;
            reader_done = false;
            write_failed = false }
        in
        let reader = Thread.create (reader_loop t) conn in
        let writer = Thread.create (writer_loop t) conn in
        locked t (fun () ->
            t.stats.connections_accepted <- t.stats.connections_accepted + 1;
            t.active <- conn :: t.active;
            t.readers <- reader :: t.readers;
            t.writers <- writer :: t.writers);
        go ()
  in
  go ()

(* ------------------------------------------------------------------ *)

let pool_size config = if config.max_in_flight > 0 then config.max_in_flight else 32

let start ?(config = default_config) ~handler () =
  (* Without this, a client disconnecting mid-response kills the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr =
    try Unix.inet_addr_of_string config.host
    with Failure _ ->
      Mope_error.failwithf "Server.start: invalid bind address %s" config.host
  in
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     (* accept(2) honours SO_RCVTIMEO, so the accept thread wakes up
        periodically to notice a shutdown even if closing the listener
        fails to interrupt it. *)
     Unix.setsockopt_float listen_fd Unix.SO_RCVTIMEO 0.2;
     Unix.bind listen_fd (Unix.ADDR_INET (addr, config.port));
     Unix.listen listen_fd config.backlog
   with Unix.Unix_error _ as e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     Mope_error.failwithf ~cause:e "Server.start: cannot listen on %s:%d"
       config.host config.port);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let t =
    { config; handler; listen_fd; bound_port;
      stats =
        { connections_accepted = 0; requests = 0; errors = 0; shed = 0;
          total_latency = 0.0; max_latency = 0.0;
          admitted = 0; admitted_latency = 0.0 };
      lock = Mutex.create ();
      state_changed = Condition.create ();
      jobs = Queue.create ();
      active = [];
      readers = [];
      writers = [];
      pool = [];
      in_flight = 0;
      stopping = false;
      accept_thread = None }
  in
  t.pool <- List.init (pool_size config) (fun _ -> Thread.create pool_worker t);
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let shutdown t =
  let already =
    locked t (fun () ->
        let was = t.stopping in
        t.stopping <- true;
        Condition.broadcast t.state_changed;
        was)
  in
  if not already then begin
    (* Unblock the accept thread: shutdown(2) pops it out of accept(2) on
       Linux; the listener's SO_RCVTIMEO poll is the portable fallback. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* Unblock connection readers parked in read(2) (and writers wedged
       in write(2) against a stalled peer), then join in dependency
       order: readers stop producing jobs, the pool drains what remains,
       writers flush and close the sockets. *)
    let live = locked t (fun () -> t.active) in
    List.iter (fun conn -> conn.io.Transport.shutdown ()) live;
    let readers = locked t (fun () -> t.readers) in
    List.iter Thread.join readers;
    locked t (fun () -> Condition.broadcast t.state_changed);
    let pool = locked t (fun () -> t.pool) in
    List.iter Thread.join pool;
    let writers = locked t (fun () -> t.writers) in
    List.iter Thread.join writers;
    locked t (fun () ->
        t.readers <- [];
        t.writers <- [];
        t.pool <- [])
  end
