open Tytan_core
module Crypto = Tytan_crypto
module Cycles = Tytan_machine.Cycles

type kind = Rebuild | Retain

type entry = {
  expected_mac : bytes;
  nonce : bytes;
  mutable sealed_root : bytes option;
}

type batch = { epoch : int; root : bytes; size : int }

type delta_entry = {
  serial : string;
  before : Task_id.t option;
  after : Task_id.t option;
}

type delta = { at_epoch : int; new_root : bytes; changed : delta_entry list }

(* One verification shard: everything a worker domain touches while
   checking reports for its device range.  Shards share nothing mutable
   with each other — per-shard key/MAC-state/measurement caches, a
   per-shard admission queue drained sequentially between slices, and a
   per-shard cycle clock merged into the main clock by commutative sum.
   That is the whole determinism argument at this layer: a device is
   pinned to one shard, so every mutation it causes is ordered by that
   shard's program order, and cross-shard effects (admission order,
   cycle totals) are applied only from sequential code. *)
type shard = {
  sclock : Cycles.t;
  mutable absorbed : int;  (* sclock cycles already merged into clock *)
  keys : (string, bytes) Hashtbl.t;
  mac_states : (string, Crypto.Hmac.state) Hashtbl.t;
  cache : (string, entry) Hashtbl.t;
  mutable queue : (string * Attestation.report) list;  (* newest first *)
  mutable hits : int;
  mutable misses : int;
  mutable key_derivations : int;
}

(* Epoch-persistent leaf store for [Retain]: one Merkle.Inc slot per
   device ever verified, overwritten only when its measurement changes
   and tombstoned when it goes silent — so a steady-state epoch commits
   O(changed · log n) hashes instead of rebuilding O(n). *)
type retain_state = {
  slots : (string, int) Hashtbl.t;  (* serial -> leaf index *)
  inc : Crypto.Merkle.Inc.t;
  mutable slot_serials : string array;
  mutable slot_ids : Task_id.t option array;  (* None = tombstoned *)
  mutable slot_epochs : int array;  (* last epoch seen alive *)
  mutable slot_count : int;
  mutable pending_delta : delta_entry list;  (* newest first *)
  mutable deltas : delta list;  (* newest first *)
  mutable last_sealed_epoch : int;
}

type t = {
  ka_of : serial:string -> bytes;
  clock : Cycles.t;
  kind : kind;
  shards : shard array;
  sequential : bool;  (* single shard: admit inline *)
  retain : retain_state option;
  current_roots : (string, unit) Hashtbl.t;
  mutable epoch : int;
  mutable pending : (string * bytes) list;  (* newest first; Rebuild *)
  mutable pending_count : int;
  mutable batches : batch list;  (* newest first *)
  mutable last_tree : (Crypto.Merkle.t * bytes array) option;
  mutable seal_hook : (epoch:int -> root:bytes -> leaves:int -> unit) option;
}

let make_shard clock =
  {
    sclock = clock;
    absorbed = 0;
    keys = Hashtbl.create 64;
    mac_states = Hashtbl.create 64;
    cache = Hashtbl.create 64;
    queue = [];
    hits = 0;
    misses = 0;
    key_derivations = 0;
  }

let create ~ka_of ~clock ?(kind = Rebuild) ?(shards = 1) () =
  if shards <= 0 then invalid_arg "Aggregator.create: shards";
  let sequential = shards = 1 in
  let shards =
    (* A lone shard charges the main clock directly (the legacy
       behavior, bit-exact); true shards get private clocks merged by
       [drain]. *)
    Array.init shards (fun _ ->
        make_shard (if sequential then clock else Cycles.create ()))
  in
  {
    ka_of;
    clock;
    kind;
    shards;
    sequential;
    retain =
      (match kind with
      | Rebuild -> None
      | Retain ->
          Some
            {
              slots = Hashtbl.create 64;
              inc = Crypto.Merkle.Inc.create ();
              slot_serials = [||];
              slot_ids = [||];
              slot_epochs = [||];
              slot_count = 0;
              pending_delta = [];
              deltas = [];
              last_sealed_epoch = -1;
            });
    current_roots = Hashtbl.create 8;
    epoch = 0;
    pending = [];
    pending_count = 0;
    batches = [];
    last_tree = None;
    seal_hook = None;
  }

let on_seal t f = t.seal_hook <- Some f

let epoch t = t.epoch

let record_seal t ~root ~size =
  Hashtbl.replace t.current_roots (Bytes.to_string root) ();
  t.batches <- { epoch = t.epoch; root; size } :: t.batches;
  match t.seal_hook with
  | Some f -> f ~epoch:t.epoch ~root ~leaves:size
  | None -> ()

let mark_sealed t serial root =
  Array.iter
    (fun sh ->
      match Hashtbl.find_opt sh.cache serial with
      | Some e -> e.sealed_root <- Some root
      | None -> ())
    t.shards

let seal_rebuild t =
  if t.pending_count > 0 then begin
    let leaves =
      Array.of_list (List.rev_map (fun (_, leaf) -> leaf) t.pending)
    in
    let serials = List.rev_map fst t.pending in
    let tree =
      Cost_model.charge_hashing t.clock (fun () -> Crypto.Merkle.build leaves)
    in
    let root = Crypto.Merkle.root tree in
    List.iter (fun serial -> mark_sealed t serial root) serials;
    t.last_tree <- Some (tree, leaves);
    record_seal t ~root ~size:t.pending_count;
    t.pending <- [];
    t.pending_count <- 0
  end

(* Length-prefixed serial, then a liveness tag and the measured
   identity.  The prefix removes serial/identity framing ambiguity; the
   0x00 tombstone is a distinct, un-forgeable payload shape. *)
let retain_leaf ~serial id_opt =
  let s = Bytes.of_string serial in
  let hdr = Bytes.create 2 in
  Bytes.set_uint16_be hdr 0 (Bytes.length s);
  match id_opt with
  | Some id ->
      Bytes.concat Bytes.empty
        [ hdr; s; Bytes.make 1 '\x01'; Task_id.to_bytes id ]
  | None -> Bytes.concat Bytes.empty [ hdr; s; Bytes.make 1 '\x00' ]

let same_id a b =
  match (a, b) with
  | Some x, Some y -> Task_id.equal x y
  | None, None -> true
  | _ -> false

let grow_slots rs n =
  if n > Array.length rs.slot_serials then begin
    let cap = max 8 (max n (2 * Array.length rs.slot_serials)) in
    let serials = Array.make cap "" in
    let ids = Array.make cap None in
    let epochs = Array.make cap (-1) in
    Array.blit rs.slot_serials 0 serials 0 rs.slot_count;
    Array.blit rs.slot_ids 0 ids 0 rs.slot_count;
    Array.blit rs.slot_epochs 0 epochs 0 rs.slot_count;
    rs.slot_serials <- serials;
    rs.slot_ids <- ids;
    rs.slot_epochs <- epochs
  end

let admit_retain t rs ~serial ~(id : Task_id.t) =
  match Hashtbl.find_opt rs.slots serial with
  | None ->
      Cost_model.charge_hashing t.clock (fun () ->
          let idx =
            Crypto.Merkle.Inc.append rs.inc (retain_leaf ~serial (Some id))
          in
          grow_slots rs (idx + 1);
          rs.slot_serials.(idx) <- serial;
          rs.slot_ids.(idx) <- Some id;
          rs.slot_epochs.(idx) <- t.epoch;
          rs.slot_count <- idx + 1;
          Hashtbl.replace rs.slots serial idx);
      rs.pending_delta <-
        { serial; before = None; after = Some id } :: rs.pending_delta
  | Some idx ->
      rs.slot_epochs.(idx) <- t.epoch;
      let before = rs.slot_ids.(idx) in
      if not (same_id before (Some id)) then begin
        Cost_model.charge_hashing t.clock (fun () ->
            Crypto.Merkle.Inc.set rs.inc idx (retain_leaf ~serial (Some id)));
        rs.slot_ids.(idx) <- Some id;
        rs.pending_delta <-
          { serial; before; after = Some id } :: rs.pending_delta
      end

let seal_retain t rs =
  if rs.slot_count > 0 then begin
    (* Devices that did not check in (verified or carried) this epoch
       drop out of the sealed set: their slots become tombstones, so a
       stale proof of their membership no longer verifies. *)
    for idx = 0 to rs.slot_count - 1 do
      if rs.slot_epochs.(idx) <> t.epoch && rs.slot_ids.(idx) <> None then begin
        let serial = rs.slot_serials.(idx) in
        rs.pending_delta <-
          { serial; before = rs.slot_ids.(idx); after = None }
          :: rs.pending_delta;
        rs.slot_ids.(idx) <- None;
        Cost_model.charge_hashing t.clock (fun () ->
            Crypto.Merkle.Inc.set rs.inc idx (retain_leaf ~serial None))
      end
    done;
    if not (rs.pending_delta = [] && rs.last_sealed_epoch = t.epoch) then begin
      let root =
        Cost_model.charge_hashing t.clock (fun () ->
            Crypto.Merkle.Inc.commit rs.inc)
      in
      (* Everything verified this epoch is (still) a live leaf of the
         committed tree; re-stamp the whole epoch cache with the new
         root so queries check against it. *)
      Array.iter
        (fun sh ->
          Hashtbl.iter (fun _ e -> e.sealed_root <- Some root) sh.cache)
        t.shards;
      let changed = List.rev rs.pending_delta in
      rs.deltas <-
        { at_epoch = t.epoch; new_root = root; changed } :: rs.deltas;
      rs.pending_delta <- [];
      rs.last_sealed_epoch <- t.epoch;
      record_seal t ~root ~size:(List.length changed)
    end
  end

let flush t =
  match t.retain with
  | None -> seal_rebuild t
  | Some rs -> seal_retain t rs

let begin_epoch t ~epoch =
  flush t;
  Array.iter (fun sh -> Hashtbl.reset sh.cache) t.shards;
  Hashtbl.reset t.current_roots;
  t.epoch <- epoch

let key_of t sh serial =
  match Hashtbl.find_opt sh.keys serial with
  | Some ka -> ka
  | None ->
      let ka = Cost_model.charge_hashing sh.sclock (fun () -> t.ka_of ~serial) in
      sh.key_derivations <- sh.key_derivations + 1;
      Hashtbl.replace sh.keys serial ka;
      ka

(* The per-device HMAC key schedule is computed once per campaign per
   shard; after that an expected-MAC miss costs only the two message
   compressions. *)
let mac_state_of t sh serial =
  match Hashtbl.find_opt sh.mac_states serial with
  | Some st -> st
  | None ->
      let ka = key_of t sh serial in
      let st =
        Cost_model.charge_hashing sh.sclock (fun () ->
            Crypto.Hmac.prepare ~key:ka)
      in
      Hashtbl.replace sh.mac_states serial st;
      st

let leaf_payload ~serial ~(report : Attestation.report) =
  Bytes.concat Bytes.empty
    [
      Bytes.of_string serial;
      Task_id.to_bytes report.id;
      report.nonce;
      report.mac;
    ]

(* [Rebuild] seals eagerly once this many genuine reports are pending. *)
let batch_limit = 256

let admit_rebuild t ~serial report =
  t.pending <- (serial, leaf_payload ~serial ~report) :: t.pending;
  t.pending_count <- t.pending_count + 1;
  if t.pending_count >= batch_limit then seal_rebuild t

let admit_now t ~serial (report : Attestation.report) =
  match t.retain with
  | None -> admit_rebuild t ~serial report
  | Some rs -> admit_retain t rs ~serial ~id:report.id

let check_report ?(shard = 0) t ~serial ~expected ~nonce
    (report : Attestation.report) =
  let sh = t.shards.(shard) in
  Cycles.charge sh.sclock Cost_model.swarm_cache_lookup;
  if
    (not (Task_id.equal report.id expected))
    || not (Crypto.Constant_time.equal report.nonce nonce)
  then false
  else
    match Hashtbl.find_opt sh.cache serial with
    | Some e when Crypto.Constant_time.equal e.nonce nonce ->
        sh.hits <- sh.hits + 1;
        Crypto.Constant_time.equal e.expected_mac report.mac
    | _ ->
        sh.misses <- sh.misses + 1;
        let st = mac_state_of t sh serial in
        let expected_mac =
          Cost_model.charge_hashing sh.sclock (fun () ->
              Attestation.expected_mac_with st ~id:expected ~nonce)
        in
        let genuine = Crypto.Constant_time.equal expected_mac report.mac in
        if genuine then begin
          (* Only verified measurements enter the cache: a forged report
             must never seed the fast path. *)
          Hashtbl.replace sh.cache serial
            { expected_mac; nonce; sealed_root = None };
          if t.sequential then admit_now t ~serial report
          else sh.queue <- (serial, report) :: sh.queue
        end;
        genuine

(* Sequential sync point after a parallel slice: apply queued
   admissions in shard order (= device order, since the engine pins
   contiguous device ranges to shards) and merge shard clocks into the
   main clock.  With one shard every queue is empty and the clock is
   already the main clock — a no-op. *)
let drain t =
  if not t.sequential then begin
    Array.iter
      (fun sh ->
        let queued = List.rev sh.queue in
        sh.queue <- [];
        List.iter (fun (serial, report) -> admit_now t ~serial report) queued;
        let now = Cycles.now sh.sclock in
        let unmerged = now - sh.absorbed in
        if unmerged > 0 then begin
          Cycles.charge t.clock unmerged;
          sh.absorbed <- now
        end)
      t.shards
  end

let query ?(shard = 0) t ~serial ~epoch =
  Cycles.charge t.clock Cost_model.swarm_cache_lookup;
  epoch = t.epoch
  &&
  match Hashtbl.find_opt t.shards.(shard).cache serial with
  | Some { sealed_root = Some root; _ } ->
      Cycles.charge t.clock Cost_model.swarm_root_check;
      let ok = Hashtbl.mem t.current_roots (Bytes.to_string root) in
      if ok then begin
        (* Serving the cached measurement — the O(1) fast path the
           scalar verifier pays a full KDF + HMAC for. *)
        t.shards.(0).hits <- t.shards.(0).hits + 1
      end;
      ok
  | Some { sealed_root = None; _ } | None -> false

let carry t ~serial =
  match t.retain with
  | None -> false
  | Some rs -> (
      match Hashtbl.find_opt rs.slots serial with
      | Some idx when rs.slot_ids.(idx) <> None ->
          rs.slot_epochs.(idx) <- t.epoch;
          true
      | _ -> false)

let carried_healthy t ~serial =
  Cycles.charge t.clock Cost_model.swarm_cache_lookup;
  match t.retain with
  | None -> false
  | Some rs -> (
      match Hashtbl.find_opt rs.slots serial with
      | Some idx when rs.slot_ids.(idx) <> None && rs.slot_epochs.(idx) = t.epoch
        ->
          Cycles.charge t.clock Cost_model.swarm_root_check;
          t.shards.(0).hits <- t.shards.(0).hits + 1;
          true
      | _ -> false)

let membership_proof t ~serial =
  match t.retain with
  | None -> None
  | Some rs -> (
      match Hashtbl.find_opt rs.slots serial with
      | Some idx -> (
          match rs.slot_ids.(idx) with
          | Some id ->
              let payload = retain_leaf ~serial (Some id) in
              Some (payload, Crypto.Merkle.Inc.proof rs.inc idx)
          | None -> None)
      | None -> None)

let epoch_deltas t =
  match t.retain with None -> [] | Some rs -> List.rev rs.deltas

let live_leaves t =
  match t.retain with
  | None -> 0
  | Some rs ->
      let n = ref 0 in
      for idx = 0 to rs.slot_count - 1 do
        if rs.slot_ids.(idx) <> None then incr n
      done;
      !n

let batches t =
  List.rev_map (fun (b : batch) -> (b.epoch, Bytes.copy b.root, b.size)) t.batches

let last_tree t = t.last_tree

let sum_shards t f = Array.fold_left (fun acc sh -> acc + f sh) 0 t.shards
let cache_hits t = sum_shards t (fun sh -> sh.hits)
let cache_misses t = sum_shards t (fun sh -> sh.misses)
let key_derivations t = sum_shards t (fun sh -> sh.key_derivations)

let counters t =
  List.filter
    (fun (_, n) -> n > 0)
    [
      ("swarm.batches_sealed", List.length t.batches);
      ("swarm.cache_hits", cache_hits t);
      ("swarm.cache_misses", cache_misses t);
    ]
