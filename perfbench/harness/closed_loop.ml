type stop =
  | Deadline of float  (** absolute [Unix.gettimeofday] time *)
  | Count of int  (** operations per connection *)

type outcome = {
  latencies_ms : float array;  (** successful operations, completion order *)
  attempted : int;
  failed : int;
  errors : string list;  (** distinct failure messages, at most [max_errors] *)
  wall_s : float;
}

let max_errors = 8

let describe = function
  | Gate.Wrong_answer msg -> "wrong answer: " ^ msg
  | e -> Mope_error.describe_exn e

(* Consecutive runs as one: samples in run order, wall times summed. *)
let concat outcomes =
  let errors =
    List.fold_left
      (fun acc (o : outcome) ->
        List.fold_left
          (fun acc e ->
            if List.length acc < max_errors && not (List.mem e acc) then acc @ [ e ] else acc)
          acc o.errors)
      [] outcomes
  in
  { latencies_ms = Array.concat (List.map (fun o -> o.latencies_ms) outcomes);
    attempted = List.fold_left (fun acc o -> acc + o.attempted) 0 outcomes;
    failed = List.fold_left (fun acc o -> acc + o.failed) 0 outcomes;
    errors;
    wall_s = List.fold_left (fun acc o -> acc +. o.wall_s) 0.0 outcomes }

(* One thread per connection, each issuing its next operation only after
   the previous one returned. [op ~conn ~iter] performs one operation and
   returns its latency in ms; any exception it raises is a failed
   operation, counted and recorded, and never ends the thread early. *)
let run ~conns ~stop op =
  let lock = Mutex.create () in
  let latencies = ref [] and attempted = ref 0 and failed = ref 0 in
  let errors = ref [] in
  let record outcome =
    Mutex.protect lock (fun () ->
        incr attempted;
        match outcome with
        | Ok ms -> latencies := ms :: !latencies
        | Error msg ->
          incr failed;
          if List.length !errors < max_errors && not (List.mem msg !errors) then
            errors := msg :: !errors)
  in
  let worker conn () =
    let more iter =
      match stop with
      | Deadline t -> Unix.gettimeofday () < t
      | Count n -> iter < n
    in
    let rec go iter =
      if more iter then begin
        record (try Ok (op ~conn ~iter) with e -> Error (describe e));
        go (iter + 1)
      end
    in
    go 0
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init conns (fun c -> Thread.create (worker c) ()) in
  List.iter Thread.join threads;
  { latencies_ms = Array.of_list (List.rev !latencies);
    attempted = !attempted;
    failed = !failed;
    errors = List.rev !errors;
    wall_s = Unix.gettimeofday () -. t0 }
