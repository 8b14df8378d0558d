open Mope_stats

type config = {
  partial_io : float;
  delay : float;
  max_delay : float;
  disconnect : float;
  corrupt : float;
}

let none =
  { partial_io = 0.0; delay = 0.0; max_delay = 0.0; disconnect = 0.0;
    corrupt = 0.0 }

let slow = { none with partial_io = 0.5; delay = 0.25; max_delay = 0.002 }

let hostile = { slow with disconnect = 0.02; corrupt = 0.02 }

let wrap ?(config = hostile) ~seed (io : Transport.t) =
  let rng = Rng.create seed in
  let dead = ref false in
  let hit p = p > 0.0 && Rng.float rng < p in
  let reset op =
    raise (Unix.Unix_error (Unix.ECONNRESET, op, "chaos injected disconnect"))
  in
  let pre op =
    if !dead then reset op;
    if hit config.delay then
      Thread.delay (Rng.float rng *. config.max_delay);
    if hit config.disconnect then begin
      dead := true;
      io.Transport.close ();
      reset op
    end
  in
  let chunk len =
    if len > 1 && hit config.partial_io then 1 + Rng.int rng len else len
  in
  (* Flip one random bit of [buf.[pos .. pos+len-1]] (len > 0). *)
  let flip_bit buf pos len =
    let i = pos + Rng.int rng len in
    let mask = 1 lsl Rng.int rng 8 in
    Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor mask))
  in
  let read buf pos len =
    pre "read";
    let n = io.Transport.read buf pos (chunk len) in
    if n > 0 && hit config.corrupt then flip_bit buf pos n;
    n
  in
  let write buf pos len =
    pre "write";
    let n = chunk len in
    if n > 0 && hit config.corrupt then begin
      (* Corrupt a copy: the caller may retry the same buffer. *)
      let copy = Bytes.sub buf pos n in
      flip_bit copy 0 n;
      io.Transport.write copy 0 n
    end
    else io.Transport.write buf pos n
  in
  { Transport.read; write;
    shutdown = io.Transport.shutdown;
    close =
      (fun () ->
        dead := true;
        io.Transport.close ()) }
