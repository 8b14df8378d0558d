open Mope_crypto
open Mope_system

type config = {
  cfg_id : string;
  cfg_secret : string;
}

let valid_id s =
  let n = String.length s in
  n > 0
  && n <= Mope_net.Wire.max_tenant_id
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' | '-' -> true | _ -> false)
       s

let parse_tenants content =
  let configs =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then None
        else
          match String.index_opt line ':' with
          | None ->
            invalid_arg
              (Printf.sprintf "Registry.parse_tenants: malformed line %S" line)
          | Some i ->
            let id = String.sub line 0 i in
            let secret =
              String.sub line (i + 1) (String.length line - i - 1)
            in
            if not (valid_id id) then
              invalid_arg
                (Printf.sprintf "Registry.parse_tenants: bad tenant id %S" id);
            if secret = "" then
              invalid_arg
                (Printf.sprintf "Registry.parse_tenants: empty secret for %S" id);
            Some { cfg_id = id; cfg_secret = secret })
      (String.split_on_char '\n' content)
  in
  let ids = List.map (fun c -> c.cfg_id) configs in
  if List.length (List.sort_uniq String.compare ids) <> List.length ids then
    invalid_arg "Registry.parse_tenants: duplicate tenant id";
  configs

let load_tenants_file path = parse_tenants (Mope_db.Codec.read_file path)

type generation = {
  enc : Encrypted_db.t;
  proxies : (string * Proxy.t) list;
  service : Mope_net.Service.t;
}

type tenant = {
  id : string;
  auth_secret : string;
  lock : Mutex.t;
  inflight : int Atomic.t;
  mutable generation : int;
  mutable current : generation;
  mutable move : (Key_rotation.move * generation) option;
}

type t = {
  master_key : string;
  make_enc : key:string -> Encrypted_db.t;
  make_proxies : Encrypted_db.t -> (string * Proxy.t) list;
  tenants : (string, tenant) Hashtbl.t;
  order : string list;
}

(* Per-tenant, per-generation data key. Length-prefixed DRBG parts make the
   derivation unambiguous; a fresh generation yields an unrelated key and
   hence an unrelated secret offset. *)
let generation_key t ~id ~generation =
  Drbg.bytes
    (Drbg.derive ~key:t.master_key
       ~parts:[ "tenant-key"; id; string_of_int generation ])
    32

let build_generation t enc =
  let proxies = t.make_proxies enc in
  { enc; proxies; service = Mope_net.Service.create ~proxies () }

let create ~master_key ~make_enc ~make_proxies ~configs () =
  if configs = [] then invalid_arg "Registry.create: no tenants";
  let ids = List.map (fun c -> c.cfg_id) configs in
  if List.length (List.sort_uniq String.compare ids) <> List.length ids then
    invalid_arg "Registry.create: duplicate tenant id";
  List.iter
    (fun id ->
      if not (valid_id id) then
        invalid_arg (Printf.sprintf "Registry.create: bad tenant id %S" id))
    ids;
  let t =
    { master_key; make_enc; make_proxies;
      tenants = Hashtbl.create (List.length configs);
      order = ids }
  in
  List.iter
    (fun cfg ->
      let enc = make_enc ~key:(generation_key t ~id:cfg.cfg_id ~generation:0) in
      Hashtbl.replace t.tenants cfg.cfg_id
        { id = cfg.cfg_id;
          auth_secret = cfg.cfg_secret;
          lock = Mutex.create ();
          inflight = Atomic.make 0;
          generation = 0;
          current = build_generation t enc;
          move = None })
    configs;
  t

let find t id = Hashtbl.find_opt t.tenants id

let ids t = t.order

let locked tenant f =
  Mutex.lock tenant.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock tenant.lock) f
