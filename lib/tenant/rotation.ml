open Mope_system
module Metrics = Mope_obs.Metrics

type status = {
  state : string;
  generation : int;
  rows_moved : int;
  rows_total : int;
}

let status_locked (tenant : Registry.tenant) =
  match tenant.Registry.move with
  | None ->
    { state = "serving"; generation = tenant.Registry.generation;
      rows_moved = 0; rows_total = 0 }
  | Some (mv, _) ->
    let rows_moved, rows_total = Key_rotation.move_progress mv in
    { state = "rotating"; generation = tenant.Registry.generation;
      rows_moved; rows_total }

let status tenant = Registry.locked tenant (fun () -> status_locked tenant)

let rotations_started tenant_id =
  Metrics.counter "mope_tenant_rotations_started_total"
    ~help:"Online key rotations begun" ~labels:[ ("tenant", tenant_id) ] ()

let rotations_completed tenant_id =
  Metrics.counter "mope_tenant_rotations_completed_total"
    ~help:"Online key rotations cut over" ~labels:[ ("tenant", tenant_id) ] ()

let start reg (tenant : Registry.tenant) =
  Registry.locked tenant (fun () ->
      (match tenant.Registry.move with
      | Some _ -> ()  (* already rotating: report, don't restart *)
      | None ->
        let new_key =
          Registry.generation_key reg ~id:tenant.Registry.id
            ~generation:(tenant.Registry.generation + 1)
        in
        let mv =
          Key_rotation.start_move ~enc:tenant.Registry.current.Registry.enc
            ~new_key
        in
        let incoming =
          Registry.build_generation reg (Key_rotation.move_target mv)
        in
        tenant.Registry.move <- Some (mv, incoming);
        Metrics.inc (rotations_started tenant.Registry.id));
      status_locked tenant)

(* One chunk, and the atomic cutover once the move is drained. Runs under
   the tenant lock, so readers never observe a half-moved chunk or a
   half-installed generation. *)
let step _reg (tenant : Registry.tenant) ~chunk_rows =
  Registry.locked tenant (fun () ->
      match tenant.Registry.move with
      | None -> true
      | Some (mv, incoming) ->
        let moved = Key_rotation.move_chunk mv ~max_rows:chunk_rows in
        if moved = 0 || Key_rotation.move_done mv then begin
          tenant.Registry.current <- incoming;
          tenant.Registry.generation <- tenant.Registry.generation + 1;
          tenant.Registry.move <- None;
          Metrics.inc (rotations_completed tenant.Registry.id);
          true
        end
        else false)

let drive reg tenant ~chunk_rows ~should_stop =
  let rec loop () =
    if should_stop () then ()  (* killed: move state stays resumable *)
    else if step reg tenant ~chunk_rows then ()
    else begin
      Thread.yield ();
      loop ()
    end
  in
  loop ()

let worker reg tenant ?(chunk_rows = 64) ?(should_stop = fun () -> false) () =
  if chunk_rows < 1 then invalid_arg "Rotation.worker: chunk_rows";
  Thread.create (fun () -> drive reg tenant ~chunk_rows ~should_stop) ()
