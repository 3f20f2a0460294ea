open Tytan_core
module Crypto = Tytan_crypto
module Cycles = Tytan_machine.Cycles
module Memory = Tytan_machine.Memory
module Devices = Tytan_machine.Devices
module Telf = Tytan_telf.Telf
module Protocol = Tytan_netsim.Protocol

(* One in-flight image transfer.  The buffer is committed to nothing:
   until the digest, vet and identity gates all pass, the staged bytes
   are just bytes. *)
type transfer = {
  seq : int;
  id : Task_id.t;
  version : int;
  size : int;
  digest : bytes;
  buf : bytes;
  mutable have : int;  (* cumulative in-order bytes received *)
}

type t = {
  serial : string;
  ka : bytes;
  clock : Cycles.t;
  counter : Devices.Monotonic_counter.t;
  persist : (bytes -> unit) option;
  mutable loaded : Task_id.t;
  mutable transfer : transfer option;
  mutable concluded : (int * Protocol.message) option;
      (* the terminal ack of the last finished transfer, replayed for
         retransmissions that arrive after the transfer state is gone —
         a lost final ack must not strand the sender *)
  mutable crash_armed : bool;
  mutable crashed : bool;
  mutable activations : int;
  mutable rollback_refusals : int;
  mutable auth_refusals : int;
  mutable vet_refusals : int;
  mutable digest_refusals : int;
  mutable malformed : int;
  mutable chunks_received : int;
  mutable staged_bytes : int;
  mutable update_cycles : int;  (* device cycles burnt in OTA handling *)
  mutable last_refusal_cycles : int;
}

let create ~serial ~ka ~clock ~counter ~loaded ?persist () =
  {
    serial;
    ka;
    clock;
    counter;
    persist;
    loaded;
    transfer = None;
    concluded = None;
    crash_armed = false;
    crashed = false;
    activations = 0;
    rollback_refusals = 0;
    auth_refusals = 0;
    vet_refusals = 0;
    digest_refusals = 0;
    malformed = 0;
    chunks_received = 0;
    staged_bytes = 0;
    update_cycles = 0;
    last_refusal_cycles = 0;
  }

let serial t = t.serial
let loaded t = t.loaded
let counter t = t.counter
let counter_value t = Devices.Monotonic_counter.value t.counter
let activations t = t.activations
let rollback_refusals t = t.rollback_refusals
let vet_refusals t = t.vet_refusals
let auth_refusals t = t.auth_refusals
let digest_refusals t = t.digest_refusals
let staged_bytes t = t.staged_bytes
let chunks_received t = t.chunks_received
let malformed t = t.malformed
let update_cycles t = t.update_cycles
let last_refusal_cycles t = t.last_refusal_cycles
let crashed t = t.crashed
let arm_crash t = t.crash_armed <- true

let clear_crash t =
  t.crash_armed <- false;
  t.crashed <- false

(* The downgrade attacker's first move, made honest: an MMIO write to
   the counter's value register.  The hardware refuses and counts it —
   the value never moves, which is the whole point of the part. *)
let attempt_counter_reset t =
  let d = Devices.Monotonic_counter.device t.counter in
  d.Memory.write32 ~offset:0 0

let reset_attempts t = Devices.Monotonic_counter.reset_attempts t.counter

let charged t f = Cost_model.charge_hashing t.clock f

let persist_counter t =
  match t.persist with
  | Some save -> save (Devices.Monotonic_counter.save t.counter)
  | None -> ()

let max_image = 1 lsl 20

let replayed t seq =
  match t.concluded with
  | Some (s, ack) when s = seq -> Some ack
  | _ -> None

let on_offer t ~seq ~id ~version ~size ~digest ~mac =
  match replayed t seq with
  | Some ack -> ack  (* retransmitted offer of a finished transfer *)
  | None ->
  Cycles.charge t.clock Cost_model.ota_offer_check;
  let genuine =
    charged t (fun () ->
        Attestation.verify_update_mac ~ka:t.ka ~id ~version ~size ~digest
          ~tag:mac)
  in
  if (not genuine) || size = 0 || size > max_image then begin
    t.auth_refusals <- t.auth_refusals + 1;
    Protocol.UpdateAck { seq; status = Protocol.Ota_refused_auth; arg = 0 }
  end
  else begin
    Cycles.charge t.clock Cost_model.counter_read;
    let current = Devices.Monotonic_counter.value t.counter in
    if not (Gate.version_ok ~counter:current ~version) then begin
      (* A rollback: the authenticated version does not beat the
         counter.  Nothing is staged; the offer dies at the door. *)
      t.rollback_refusals <- t.rollback_refusals + 1;
      Protocol.UpdateAck
        { seq; status = Protocol.Ota_refused_rollback; arg = current }
    end
    else begin
      (match t.transfer with
      | Some tr when tr.seq = seq -> ()  (* retransmitted offer *)
      | _ ->
          t.transfer <-
            Some
              { seq; id; version; size; digest; buf = Bytes.create size; have = 0 });
      let have = match t.transfer with Some tr -> tr.have | None -> 0 in
      Protocol.UpdateAck { seq; status = Protocol.Ota_ready; arg = have }
    end
  end

let conclude t (tr : transfer) ack =
  t.concluded <- Some (tr.seq, ack);
  ack

(* The decode, identity and vet verdict of staged bytes depend on the
   bytes alone, and a rollout wave stages one payload on every device:
   each domain keeps its last analysis, keyed by a copy of the exact
   bytes.  Never key on a digest: a SHA-1 collision must not hand one
   image another's verdict.  The verdict stays lazy, so an identity
   mismatch never runs the vet.  What the device pays stays in
   [finalize]. *)
type analysis =
  | Undecodable
  | Decoded of { id : Task_id.t; verdict : Gate.verdict Lazy.t }

let last_analysis : (bytes * analysis) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let analyse buf =
  match Domain.DLS.get last_analysis with
  | Some (seen, a) when Bytes.equal seen buf -> a
  | _ ->
      let a =
        match Telf.decode buf with
        | Error _ -> Undecodable
        | Ok telf ->
            Decoded
              {
                id = Task_id.of_image telf.Telf.image;
                verdict = lazy (Gate.vet telf);
              }
      in
      Domain.DLS.set last_analysis (Some (Bytes.copy buf, a));
      a

let finalize t (tr : transfer) =
  t.transfer <- None;
  let actual = charged t (fun () -> Crypto.Sha1.digest tr.buf) in
  if not (Crypto.Constant_time.equal actual tr.digest) then begin
    t.digest_refusals <- t.digest_refusals + 1;
    conclude t tr
      (Protocol.UpdateAck
         { seq = tr.seq; status = Protocol.Ota_refused_digest; arg = 0 })
  end
  else
    match analyse tr.buf with
    | Undecodable ->
        t.digest_refusals <- t.digest_refusals + 1;
        conclude t tr
          (Protocol.UpdateAck
             { seq = tr.seq; status = Protocol.Ota_refused_digest; arg = 0 })
    | Decoded { id; verdict } ->
        if not (Task_id.equal id tr.id) then begin
          (* The digest was genuine but the image inside is not the one
             the authority signed for — authenticated-identity mismatch. *)
          t.auth_refusals <- t.auth_refusals + 1;
          conclude t tr
            (Protocol.UpdateAck
               { seq = tr.seq; status = Protocol.Ota_refused_auth; arg = 0 })
        end
        else
          let verdict = Lazy.force verdict in
          Cycles.charge t.clock verdict.Gate.vet_cycles;
          if not verdict.Gate.accepted then begin
            t.vet_refusals <- t.vet_refusals + 1;
            conclude t tr
              (Protocol.UpdateAck
                 { seq = tr.seq; status = Protocol.Ota_refused_vet; arg = 0 })
          end
          else if t.crash_armed then begin
            (* Power lost inside the swap window: the staged image is
               abandoned before the counter advances, and the device
               reboots into the incumbent version.  The reboot report is
               the last frame it sends this wave — [crashed] keeps it
               silent until the rollout engine re-admits it. *)
            t.crash_armed <- false;
            t.crashed <- true;
            conclude t tr
              (Protocol.UpdateAck
                 { seq = tr.seq; status = Protocol.Ota_refused_crash; arg = 0 })
          end
          else begin
            Cycles.charge t.clock Cost_model.update_swap_base;
            let value =
              Devices.Monotonic_counter.advance_to t.counter tr.version
            in
            persist_counter t;
            t.loaded <- tr.id;
            t.activations <- t.activations + 1;
            conclude t tr
              (Protocol.UpdateAck
                 { seq = tr.seq; status = Protocol.Ota_applied; arg = value })
          end

let on_chunk t ~seq ~offset ~data =
  match t.transfer with
  | None -> replayed t seq
  | Some tr when tr.seq <> seq -> replayed t seq
  | Some tr ->
      Cycles.charge t.clock Cost_model.ota_chunk_base;
      t.chunks_received <- t.chunks_received + 1;
      let len = Bytes.length data in
      if offset = tr.have && offset + len <= tr.size then begin
        Bytes.blit data 0 tr.buf offset len;
        tr.have <- tr.have + len;
        t.staged_bytes <- t.staged_bytes + len;
        if tr.have = tr.size then Some (finalize t tr)
        else
          Some
            (Protocol.UpdateAck
               { seq; status = Protocol.Ota_need; arg = tr.have })
      end
      else
        (* Go-back-N: anything but the next in-order chunk (a duplicate,
           a hole, an overrun) is discarded and the cumulative ack tells
           the sender where to resume. *)
        Some
          (Protocol.UpdateAck { seq; status = Protocol.Ota_need; arg = tr.have })

let on_frame t frame =
  if t.crashed then []
  else begin
    let start = Cycles.now t.clock in
    let reply =
      match Protocol.decode frame with
      | Error _ ->
          (* Defensive decode: a truncated or corrupted frame dies here,
             unanswered — retransmission is the sender's problem. *)
          t.malformed <- t.malformed + 1;
          []
      | Ok (Protocol.UpdateOffer { seq; id; version; size; digest; mac }) ->
          let before = Cycles.now t.clock in
          let ack = on_offer t ~seq ~id ~version ~size ~digest ~mac in
          (match ack with
          | Protocol.UpdateAck { status = Protocol.Ota_refused_rollback; _ } ->
              t.last_refusal_cycles <- Cycles.now t.clock - before
          | _ -> ());
          [ ack ]
      | Ok (Protocol.UpdateChunk { seq; offset; data }) ->
          Option.to_list (on_chunk t ~seq ~offset ~data)
      | Ok msg ->
          (* Attestation, for whatever is loaded.  Freshly swapped and
             quiescent, the device's honest control-flow answer is the
             empty log anchored at its identity's genesis digest. *)
          Option.to_list
            (Protocol.answer ~clock:t.clock ~ka:t.ka ~loaded:t.loaded
               ~genesis:(lazy (Attestation.cf_genesis ~id:t.loaded))
               msg)
    in
    t.update_cycles <- t.update_cycles + (Cycles.now t.clock - start);
    reply
  end
