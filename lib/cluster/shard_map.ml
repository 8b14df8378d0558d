open Mope_db

type t = { bounds : int array; epochs : int array; range : int }

exception Corrupt of string

let create ~shards ~range =
  if shards < 1 then invalid_arg "Shard_map.create: shards < 1";
  if range < shards then invalid_arg "Shard_map.create: range < shards";
  (* Equal-width slices; the remainder spreads one extra ciphertext over
     the first [range mod shards] slices so widths differ by at most 1. *)
  let width = range / shards and extra = range mod shards in
  let bounds = Array.make shards 0 in
  for i = 1 to shards - 1 do
    bounds.(i) <- (i * width) + Int.min i extra
  done;
  { bounds; epochs = Array.make shards 1; range }

let of_bounds ~bounds ~range =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Shard_map.of_bounds: empty";
  if bounds.(0) <> 0 then invalid_arg "Shard_map.of_bounds: bounds.(0) <> 0";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Shard_map.of_bounds: bounds not strictly increasing"
  done;
  if bounds.(n - 1) >= range then
    invalid_arg "Shard_map.of_bounds: last bound >= range";
  { bounds = Array.copy bounds; epochs = Array.make n 1; range }

let epoch t i =
  if i < 0 || i >= Array.length t.epochs then
    invalid_arg "Shard_map.epoch: bad shard";
  t.epochs.(i)

let set_epoch t i e =
  if i < 0 || i >= Array.length t.epochs then
    invalid_arg "Shard_map.set_epoch: bad shard";
  if e < t.epochs.(i) then
    invalid_arg "Shard_map.set_epoch: epochs only move forward";
  t.epochs.(i) <- e

let epochs t = Array.copy t.epochs

let shards t = Array.length t.bounds

let range t = t.range

let bounds t = Array.copy t.bounds

let shard_of t c =
  if c < 0 || c >= t.range then invalid_arg "Shard_map.shard_of: out of range";
  (* Largest i with bounds.(i) <= c. *)
  let lo = ref 0 and hi = ref (Array.length t.bounds - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.bounds.(mid) <= c then lo := mid else hi := mid - 1
  done;
  !lo

let slice t i =
  let n = Array.length t.bounds in
  if i < 0 || i >= n then invalid_arg "Shard_map.slice: bad shard";
  let hi = if i = n - 1 then t.range - 1 else t.bounds.(i + 1) - 1 in
  (t.bounds.(i), hi)

let route t segments =
  let n = Array.length t.bounds in
  let out = Array.make n [] in
  List.iter
    (fun (lo, hi) ->
      if lo < 0 || hi >= t.range || hi < lo then
        invalid_arg "Shard_map.route: segment outside the ciphertext space";
      (* Clip the segment against every slice it straddles. *)
      let first = shard_of t lo and last = shard_of t hi in
      for i = first to last do
        let slice_lo, slice_hi = slice t i in
        let a = Int.max lo slice_lo and b = Int.min hi slice_hi in
        if a <= b then out.(i) <- (a, b) :: out.(i)
      done)
    segments;
  Array.map List.rev out

(* ------------------------------------------------------------------ *)
(* Persistence: magic, then the body as one {!Codec} record (u32 length,
   u32 CRC-32, body); body = u64 range, u64 shard count, u64 per bound,
   then (v2) u64 per fencing epoch. v1 files (no epochs) still load —
   every epoch defaults to 1, the launch epoch. *)

let magic = "MOPESHRD\x02\n"
let magic_prefix = "MOPESHRD"

let save t ~path =
  let body = Buffer.create 64 in
  Codec.put_int body t.range;
  Codec.put_int body (Array.length t.bounds);
  Array.iter (Codec.put_int body) t.bounds;
  Array.iter (Codec.put_int body) t.epochs;
  Codec.replace_file ~path (magic ^ Codec.record (Buffer.contents body))

let corrupt msg = Corrupt msg

let load ~path =
  let data =
    try Codec.read_file path with Sys_error msg -> raise (Corrupt msg)
  in
  let mlen = String.length magic in
  if String.length data < mlen + 8
     || not
          (String.equal
             (String.sub data 0 (String.length magic_prefix))
             magic_prefix)
     || data.[mlen - 1] <> '\n'
  then raise (Corrupt "bad shard-map header");
  let file_version = Char.code data.[mlen - 2] in
  if file_version < 1 then raise (Corrupt "bad shard-map header");
  if file_version > 2 then
    raise
      (Corrupt
         (Printf.sprintf "shard map written by a future version (%d)"
            file_version));
  let total = String.length data in
  let body =
    match Codec.read_record data ~pos:mlen ~max_len:total with
    | Some body when Int.equal (mlen + 8 + String.length body) total -> body
    | _ -> raise (Corrupt "shard-map body length or checksum mismatch")
  in
  let cur = Codec.cursor corrupt body in
  let range = Codec.get_nat cur in
  let n = Codec.get_nat cur in
  if n < 1 || n > String.length body / 8 then
    raise (Corrupt "implausible shard count");
  (* Explicit loop: Array.init's evaluation order is unspecified. *)
  let bounds = Array.make n 0 in
  for i = 0 to n - 1 do
    bounds.(i) <- Codec.get_nat cur
  done;
  let epochs =
    if file_version < 2 then None
    else begin
      let e = Array.make n 0 in
      for i = 0 to n - 1 do
        e.(i) <- Codec.get_nat cur;
        if e.(i) < 1 then raise (Corrupt "shard-map epoch below 1")
      done;
      Some e
    end
  in
  if Codec.remaining cur <> 0 then raise (Corrupt "trailing bytes in shard map");
  match of_bounds ~bounds ~range with
  | t ->
    (match epochs with
    | None -> ()
    | Some e -> Array.blit e 0 t.epochs 0 n);
    t
  | exception Invalid_argument msg -> raise (Corrupt msg)
