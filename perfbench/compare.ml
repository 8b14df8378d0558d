(* Compare suite reports (the files `suite.exe --out` writes).

     compare.exe [--bench BENCHMARK.json] A.json... -- B.json...
       Per workload and metric: each side's median and quartiles, the
       number of pairs (A_i, B_i) that B wins, and a verdict. B is
       "better" when it wins at least nine tenths of the pairs and the
       medians differ by more than A's interquartile distance; "worse"
       when its median is worse than A's by more than the metric's bound;
       "unresolved" when either side's spread exceeds the bound and not
       every B run beats every A run; otherwise "within bound". Per-layer
       metrics carry no bound and get only the win-rule verdict. Exits 1
       if any end-to-end metric is worse.

     compare.exe [--bench BENCHMARK.json] FILE...
       Median and quartiles of one set, as JSON (a baseline).

     compare.exe --check [--bench BENCHMARK.json] FILE...
       Check each run's result object against BENCHMARK.json: exactly the
       keys correct/attempted/failed/metrics, a passing gate, and every
       metric of the reported set with its unit and a finite value. *)

open Perfbench_harness

type metric = { name : string; unit : string; lower : bool; bound : float option }

type bench = { workloads : string list; e2e : metric list; layers : metric list }

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read path =
  try Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Sys_error msg -> die "%s" msg
  | Json.Parse_error msg -> die "%s: %s" path msg

let field path k j =
  match Json.member k j with Some v -> v | None -> die "%s: missing %S" path k

let str path k j =
  match Json.to_str (field path k j) with Some s -> s | None -> die "%s: %S not a string" path k

let load_bench path =
  let j = read path in
  let metrics key =
    List.map
      (fun m ->
        { name = str path "name" m;
          unit = str path "unit" m;
          lower = String.equal (str path "better" m) "lower";
          bound = Option.bind (Json.member "bound" m) Json.to_num })
      (Json.to_list (field path key j))
  in
  { workloads = List.map (str path "name") (Json.to_list (field path "workloads" j));
    e2e = metrics "end_to_end";
    layers = metrics "per_layer" }

(* (workload, trace, result) for every run in the given report files. *)
let runs paths =
  List.concat_map
    (fun path ->
      List.map
        (fun r -> (str path "workload" r, str path "trace" r, field path "result" r))
        (Json.to_list (field path "runs" (read path))))
    paths

let value result name =
  Option.bind (Json.member "metrics" result) (fun m ->
      Option.bind (Json.member name m) (fun v -> Option.bind (Json.member "value" v) Json.to_num))

(* ------------------------------------------------------------------ *)

let check bench paths =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let rs = runs paths in
  List.iter
    (fun (w, trace, result) ->
      if not (List.mem w bench.workloads) then err "%s: workload not in BENCHMARK.json" w;
      (match result with
      | Json.Obj kvs ->
        let keys = List.sort String.compare (List.map fst kvs) in
        if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
          err "%s: result keys are %s" w (String.concat "," keys)
      | _ -> err "%s: result is not an object" w);
      (match Json.member "correct" result with
      | Some (Json.Bool true) -> ()
      | _ -> err "%s: gate failed" w);
      (match Option.bind (Json.member "failed" result) Json.to_num with
      | Some 0.0 -> ()
      | _ -> err "%s: failed operations" w);
      (match Option.bind (Json.member "attempted" result) Json.to_num with
      | Some a when a >= 1.0 && Float.is_integer a -> ()
      | _ -> err "%s: attempted must be a whole number >= 1" w);
      let expected =
        match trace with
        | "0" -> bench.e2e
        | "1" -> bench.layers
        | _ -> bench.e2e @ bench.layers
      in
      let present =
        match Json.member "metrics" result with Some (Json.Obj kvs) -> kvs | _ -> []
      in
      if List.length present <> List.length expected then
        err "%s: %d metrics reported, %d expected" w (List.length present)
          (List.length expected);
      List.iter
        (fun m ->
          match List.assoc_opt m.name present with
          | None -> err "%s: metric %s missing" w m.name
          | Some v ->
            (match Option.bind (Json.member "unit" v) Json.to_str with
            | Some u when String.equal u m.unit -> ()
            | _ -> err "%s: metric %s has the wrong unit" w m.name);
            (match Option.bind (Json.member "value" v) Json.to_num with
            | Some x when Float.is_finite x -> ()
            | _ -> err "%s: metric %s has no finite value" w m.name))
        expected)
    rs;
  List.iter
    (fun w ->
      if not (List.exists (fun (w', _, _) -> String.equal w w') rs) then
        err "%s: no run in the given files" w)
    bench.workloads;
  match List.rev !errors with
  | [] -> Printf.printf "check ok: %d runs\n" (List.length rs)
  | es ->
    List.iter prerr_endline es;
    exit 1

(* ------------------------------------------------------------------ *)

let values rs w m =
  Array.of_list
    (List.filter_map
       (fun (w', _, r) -> if String.equal w w' then value r m.name else None)
       rs)

let quartiles xs =
  if Array.length xs = 1 then (xs.(0), xs.(0), xs.(0)) else Sample.quartiles xs

let workloads_of bench rs =
  List.filter (fun w -> List.exists (fun (w', _, _) -> String.equal w w') rs) bench.workloads

let summary bench paths =
  let rs = runs paths in
  let per_workload w =
    ( w,
      Json.Obj
        (List.filter_map
           (fun m ->
             let xs = values rs w m in
             if Array.length xs = 0 then None
             else
               let q1, med, q3 = quartiles xs in
               Some
                 ( m.name,
                   Json.Obj
                     [ ("median", Json.Num med); ("q1", Json.Num q1); ("q3", Json.Num q3);
                       ("runs", Json.Num (float_of_int (Array.length xs))) ] ))
           (bench.e2e @ bench.layers)) )
  in
  print_endline (Json.to_string (Json.Obj (List.map per_workload (workloads_of bench rs))))

let compare bench a_paths b_paths =
  let ra = runs a_paths and rb = runs b_paths in
  let regressed = ref false in
  Printf.printf "%-11s %-30s %24s %24s %8s %6s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "wins" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let xa = values ra w m and xb = values rb w m in
          if Array.length xa > 0 && Array.length xb > 0 then begin
            let q1a, meda, q3a = quartiles xa and q1b, medb, q3b = quartiles xb in
            let better x y = if m.lower then x < y else x > y in
            let pairs = min (Array.length xa) (Array.length xb) in
            let wins = ref 0 in
            for i = 0 to pairs - 1 do
              if better xb.(i) xa.(i) then incr wins
            done;
            let worse_by =
              Sample.ratio (if m.lower then medb -. meda else meda -. medb) (Float.abs meda)
            in
            let every_b_better =
              Array.for_all (fun b -> Array.for_all (fun a -> better b a) xa) xb
            in
            let won =
              10 * !wins >= 9 * pairs && Float.abs (medb -. meda) > q3a -. q1a
            in
            let verdict =
              match m.bound with
              | None -> if won then "better" else "-"
              | Some bound ->
                if won && worse_by < 0.0 then "better"
                else if
                  Float.max (Sample.spread xa) (Sample.spread xb) > bound
                  && not every_b_better
                then "unresolved"
                else if worse_by > bound then begin
                  regressed := true;
                  "worse"
                end
                else "within bound"
            in
            let cell med q1 q3 = Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3 in
            Printf.printf "%-11s %-30s %24s %24s %+7.1f%% %3d/%-2d  %s\n" w m.name
              (cell meda q1a q3a) (cell medb q1b q3b)
              (100.0 *. Sample.ratio (medb -. meda) (Float.abs meda))
              !wins pairs verdict
          end)
        (bench.e2e @ bench.layers))
    (workloads_of bench (ra @ rb));
  if !regressed then exit 1

let () =
  let bench = ref "BENCHMARK.json" and check_mode = ref false in
  let a = ref [] and b = ref [] and after_sep = ref false in
  let rec parse = function
    | [] -> ()
    | "--bench" :: path :: rest ->
      bench := path;
      parse rest
    | "--check" :: rest ->
      check_mode := true;
      parse rest
    | "--" :: rest ->
      after_sep := true;
      parse rest
    | path :: rest ->
      if !after_sep then b := path :: !b else a := path :: !a;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let bench = load_bench !bench and a = List.rev !a and b = List.rev !b in
  if a = [] then die "usage: compare.exe [--check] [--bench FILE] A.json... [-- B.json...]";
  if !check_mode then check bench (a @ b)
  else if !after_sep then compare bench a b
  else summary bench a
