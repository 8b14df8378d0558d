(* Attribution of one served request's trace to the layers the benchmark
   reports.

   Spans are attributed by interval containment, not by list order or the
   recorded depth alone: a span's parent is the innermost enclosing span of
   smaller depth. This matters for the server's [decode] span, which is
   recorded after the fact and starts before the [request] root would have,
   and it lets the same span name count against different layers by where
   it ran: [plan_cache] and [storage_scan] under [server_fetch] are the
   untrusted server's work, under [local_eval] they are the proxy's scratch
   database re-evaluating the client statement. *)

module Trace = Mope_obs.Trace

type bucket =
  | Server_side  (** [request] root and [decode]: inside server.overhead *)
  | Service_wait
  | Proxy_plan
  | Proxy_segments
  | Proxy_decrypt
  | Db_fetch
  | Db_scan
  | Db_plan_cache
  | Eval_local
  | Unknown

(* The span-timed layers, in report order, with their metric names. *)
let span_layers =
  [ (Service_wait, "service.wait_ms");
    (Proxy_plan, "proxy.plan_ms");
    (Proxy_segments, "proxy.segments_ms");
    (Proxy_decrypt, "proxy.decrypt_ms");
    (Db_fetch, "db.fetch_ms");
    (Db_scan, "db.scan_ms");
    (Db_plan_cache, "db.plan_cache_ms");
    (Eval_local, "eval.local_ms") ]

let index = function
  | Server_side -> 0
  | Service_wait -> 1
  | Proxy_plan -> 2
  | Proxy_segments -> 3
  | Proxy_decrypt -> 4
  | Db_fetch -> 5
  | Db_scan -> 6
  | Db_plan_cache -> 7
  | Eval_local -> 8
  | Unknown -> 9

type t = {
  self_us : float array;  (** summed self time per bucket, by [index] *)
  mutable hgd_segments : int;  (** OPE tree-node draws inside segment spans *)
  mutable hgd_decrypt : int;  (** ... and inside decrypt spans *)
  mutable root_us : float;  (** summed [request] root durations *)
  mutable traces : int;
}

let create () =
  { self_us = Array.make 10 0.0; hgd_segments = 0; hgd_decrypt = 0; root_us = 0.0;
    traces = 0 }

let per_trace_ms t us = if t.traces = 0 then 0.0 else us /. 1000.0 /. float_of_int t.traces

let self_ms t b = per_trace_ms t t.self_us.(index b)

(* Mean root span: the server's time from frame decode to handler return. *)
let root_ms t = per_trace_ms t t.root_us

let unknown_ms t = self_ms t Unknown

let bucket_of name ~under_fetch ~under_eval =
  match name with
  | "request" | "decode" -> Server_side
  | "dispatch" -> Service_wait
  | "exec" -> Proxy_plan
  | "ope_segments" | "segment_cache" -> Proxy_segments
  | "ope_decrypt" -> Proxy_decrypt
  | "server_fetch" -> Db_fetch
  | "local_eval" -> Eval_local
  | "storage_scan" | "plan_cache" when under_eval -> Eval_local
  | "storage_scan" when under_fetch -> Db_scan
  | "plan_cache" when under_fetch -> Db_plan_cache
  | name when String.starts_with ~prefix:"tenant:" name -> Service_wait
  | _ -> Unknown

(* Clock slack for containment: span bounds come from separate
   [gettimeofday] reads rounded to microseconds. *)
let eps_us = 1.0

type frame = {
  span : Trace.span;
  bucket : bucket;
  mutable child_us : float;
  under_fetch : bool;
  under_eval : bool;
}

let contains f (s : Trace.span) =
  f.span.Trace.depth < s.Trace.depth
  && s.Trace.start_us >= f.span.Trace.start_us -. eps_us
  && s.Trace.start_us +. s.Trace.dur_us
     <= f.span.Trace.start_us +. f.span.Trace.dur_us +. eps_us

let is_dropped (s : Trace.span) = String.equal s.Trace.name "dropped_spans"

(* A trace that overflowed its span cap: its self times would be short. *)
let overflowed (d : Trace.dump) = List.exists is_dropped d.Trace.spans

(* Pre-order: by start, a parent before a child opened in the same clock
   tick, and of two siblings starting in the same tick the one that ends
   first. The tracer's own order leaves that last tie open, and [decode]
   (recorded after the fact, often 0 us long) can tie with [dispatch]. *)
let preorder (a : Trace.span) (b : Trace.span) =
  match Float.compare a.Trace.start_us b.Trace.start_us with
  | 0 ->
    (match Int.compare a.Trace.depth b.Trace.depth with
    | 0 -> Float.compare a.Trace.dur_us b.Trace.dur_us
    | n -> n)
  | n -> n

(* Add one complete trace. Raises [Failure] on an [overflowed] one. *)
let add t (d : Trace.dump) =
  if overflowed d then failwith (Printf.sprintf "trace %s dropped spans" d.Trace.id);
  let close f =
    let i = index f.bucket in
    t.self_us.(i) <- t.self_us.(i) +. (f.span.Trace.dur_us -. f.child_us)
  in
  let stack = ref [] in
  List.iter
    (fun (s : Trace.span) ->
      let rec unwind () =
        match !stack with
        | f :: rest when not (contains f s) ->
          close f;
          stack := rest;
          unwind ()
        | _ -> ()
      in
      unwind ();
      if s.Trace.depth = 0 then t.root_us <- t.root_us +. s.Trace.dur_us;
      let under_fetch, under_eval =
        match !stack with
        | [] -> (false, false)
        | f :: _ ->
          f.child_us <- f.child_us +. s.Trace.dur_us;
          ( f.under_fetch || String.equal f.span.Trace.name "server_fetch",
            f.under_eval || String.equal f.span.Trace.name "local_eval" )
      in
      let bucket = bucket_of s.Trace.name ~under_fetch ~under_eval in
      let draws = Option.value ~default:0 (List.assoc_opt "hgd_draws" s.Trace.items) in
      (match bucket with
      | Proxy_segments -> t.hgd_segments <- t.hgd_segments + draws
      | Proxy_decrypt -> t.hgd_decrypt <- t.hgd_decrypt + draws
      | _ -> ());
      stack := { span = s; bucket; child_us = 0.0; under_fetch; under_eval } :: !stack)
    (List.stable_sort preorder d.Trace.spans);
  List.iter close !stack;
  t.traces <- t.traces + 1
