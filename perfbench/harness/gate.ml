open Mope_workload

type t = {
  instances : Tpch_queries.instance array;
  expected : string array;  (** plaintext fingerprint per instance *)
}

exception Wrong_answer of string

(* Canonical bytes of a result: column names, then every row's values in
   order. Two results are the same answer iff their fingerprints are equal. *)
let fingerprint (r : Mope_db.Exec.result) =
  let buf = Buffer.create 256 in
  List.iter
    (fun c ->
      Buffer.add_string buf c;
      Buffer.add_char buf '\x1f')
    r.Mope_db.Exec.columns;
  List.iter
    (fun row ->
      Buffer.add_char buf '\x1e';
      Array.iter
        (fun v ->
          Buffer.add_string buf (Mope_db.Value.to_string v);
          Buffer.add_char buf '\x1f')
        row)
    r.Mope_db.Exec.rows;
  Buffer.contents buf

(* [per_template] instances of each template, drawn in template order from
   one generator, so a seed names the pool exactly. The pool is stratified
   over each template's start domain: the i-th instance of a template starts
   on the template's i-th possible start day (cycling), and its other
   parameters are a random draw with that start. Every start is then
   equally represented whatever the seed, as in the uniform start
   distribution the proxies are built for, so a run's cost mix does not
   hinge on which years or quarters a small random pool happened to hit. *)
let pool ~seed ~per_template templates =
  let rng = Mope_stats.Rng.create seed in
  let rec draw template start =
    let inst = Tpch_queries.random_instance rng template in
    if Int.equal (Tpch.day_to_plain inst.Tpch_queries.date_lo) start then inst
    else draw template start
  in
  Array.of_list
    (List.concat_map
       (fun template ->
         let starts = Array.of_list (Tpch_queries.start_domain template) in
         List.init per_template (fun i -> draw template starts.(i mod Array.length starts)))
       templates)

let create ~plain instances =
  { instances; expected = Array.map (fun i -> fingerprint (plain i)) instances }

let size t = Array.length t.instances

let instance t i = t.instances.(i)

let check t i result =
  if not (String.equal (fingerprint result) t.expected.(i)) then
    raise
      (Wrong_answer
         (Printf.sprintf "served result differs from plaintext for %s"
            t.instances.(i).Tpch_queries.sql))
