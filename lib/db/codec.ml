(* ------------------------------------------------------------------ *)
(* Encoders *)

let put_int64 = Buffer.add_int64_be

let put_int buf v = Buffer.add_int64_be buf (Int64.of_int v)

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let put_value buf = function
  | Value.Null -> Buffer.add_char buf '\x00'
  | Value.Bool b ->
    Buffer.add_char buf '\x01';
    Buffer.add_char buf (if b then '\x01' else '\x00')
  | Value.Int i ->
    Buffer.add_char buf '\x02';
    put_int buf i
  | Value.Float f ->
    Buffer.add_char buf '\x03';
    put_int64 buf (Int64.bits_of_float f)
  | Value.Str s ->
    Buffer.add_char buf '\x04';
    put_string buf s
  | Value.Date d ->
    Buffer.add_char buf '\x05';
    put_int buf d

(* ------------------------------------------------------------------ *)
(* Decoders over a cursor *)

type cursor = { data : string; mutable pos : int; fail : string -> exn }

let cursor fail ?(pos = 0) data = { data; pos; fail }

let fail cur reason = raise (cur.fail reason)

let pos cur = cur.pos

let remaining cur = String.length cur.data - cur.pos

(* Overflow-safe: [cur.pos + n] could wrap for a hostile 62-bit length. *)
let need cur n = if n < 0 || n > remaining cur then fail cur "truncated input"

let get_byte cur =
  need cur 1;
  let b = String.get_uint8 cur.data cur.pos in
  cur.pos <- cur.pos + 1;
  b

let get_int64 cur =
  need cur 8;
  let v = String.get_int64_be cur.data cur.pos in
  cur.pos <- cur.pos + 8;
  v

let get_int cur =
  let v = get_int64 cur in
  let i = Int64.to_int v in
  if not (Int64.equal (Int64.of_int i) v) then fail cur "integer out of range";
  i

let get_nat cur =
  let v = get_int cur in
  if v < 0 then fail cur "negative size";
  v

let u32_at data at = Int32.to_int (String.get_int32_be data at) land 0xFFFF_FFFF

let get_u32 cur =
  need cur 4;
  let v = u32_at cur.data cur.pos in
  cur.pos <- cur.pos + 4;
  v

let get_string cur =
  let len = get_nat cur in
  need cur len;
  let s = String.sub cur.data cur.pos len in
  cur.pos <- cur.pos + len;
  s

let get_value cur =
  match get_byte cur with
  | 0 -> Value.Null
  | 1 -> Value.Bool (get_byte cur = 1)
  | 2 -> Value.Int (get_int cur)
  | 3 -> Value.Float (Int64.float_of_bits (get_int64 cur))
  | 4 -> Value.Str (get_string cur)
  | 5 -> Value.Date (get_int cur)
  | n -> fail cur (Printf.sprintf "unknown value tag %d" n)

(* ------------------------------------------------------------------ *)
(* Checksummed records *)

let record payload =
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.set_int32_be b 4 (Crc32.digest payload);
  Bytes.blit_string payload 0 b 8 len;
  Bytes.unsafe_to_string b

let read_record data ~pos ~max_len =
  let avail = String.length data - pos - 8 in
  if avail < 0 then None
  else
    let len = u32_at data pos in
    if len <= 0 || len > max_len || len > avail then None
    else if
      not
        (Int32.equal
           (Crc32.sub data ~pos:(pos + 8) ~len)
           (String.get_int32_be data (pos + 4)))
    then None
    else Some (String.sub data (pos + 8) len)

(* ------------------------------------------------------------------ *)
(* Files *)

let write_all write s =
  let bytes = Bytes.unsafe_of_string s in
  let rec go pos len =
    if len > 0 then
      match write bytes pos len with
      | n -> go (pos + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos len
  in
  go 0 (String.length s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ O_RDONLY; O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let replace_file ~path data =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  (try
     write_all (Unix.write fd) data;
     (* fsync before rename: otherwise the rename can reach the disk before
        the data does, and a crash leaves a truncated file at [path]. *)
     Unix.fsync fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.close fd;
  Sys.rename tmp path;
  fsync_dir path
