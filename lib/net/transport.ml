type t = {
  read : bytes -> int -> int -> int;
  write : bytes -> int -> int -> int;
  shutdown : unit -> unit;
  close : unit -> unit;
}

let of_fd fd =
  (* After the first close the descriptor number may already belong to a
     newer connection: neither shutdown nor a second close may touch it.
     The lock makes the "still open?" check and the call one step. *)
  let lock = Mutex.create () and closed = ref false in
  let if_open f =
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () -> if not !closed then try f () with Unix.Unix_error _ -> ())
  in
  { read = (fun buf pos len -> Unix.read fd buf pos len);
    write = (fun buf pos len -> Unix.write fd buf pos len);
    shutdown = (fun () -> if_open (fun () -> Unix.shutdown fd Unix.SHUTDOWN_ALL));
    close =
      (fun () ->
        if_open (fun () ->
            closed := true;
            Unix.close fd)) }

let of_strings chunks =
  let remaining = ref chunks in
  let rec read buf pos len =
    match !remaining with
    | [] -> 0
    | "" :: rest ->
      remaining := rest;
      read buf pos len
    | chunk :: rest ->
      let n = Int.min len (String.length chunk) in
      Bytes.blit_string chunk 0 buf pos n;
      remaining :=
        (if n = String.length chunk then rest
         else String.sub chunk n (String.length chunk - n) :: rest);
      n
  in
  { read;
    write = (fun _ _ len -> len);
    shutdown = (fun () -> ());
    close = (fun () -> remaining := []) }
