open Tytan_core
module Crypto = Tytan_crypto

(* One device's derived keys, with what each derivation step billed.
   Kp's bytes are not kept: no caller of the table needs them. *)
type keys = {
  ka : bytes;
  kp_bill : Cost_model.hashing;
  ka_bill : Cost_model.hashing;
}

type t = {
  master : Crypto.Hmac.state;  (* the master's key pads, absorbed once *)
  pads_bill : Cost_model.hashing;  (* what absorbing them billed *)
  mutable manifest : (string * Task_id.t) list;
  keys : (string, keys) Hashtbl.t;
  lock : Mutex.t;  (* guards [keys] *)
}

let create ~master =
  let mark = Cost_model.hashing_mark () in
  let master = Crypto.Hmac.prepare ~key:master in
  {
    master;
    pads_bill = Cost_model.hashing_since mark;
    manifest = [];
    keys = Hashtbl.create 64;
    lock = Mutex.create ();
  }

let of_seed ~name seed =
  create
    ~master:
      (Bytes.of_string
         (Printf.sprintf "%s-master-%08x" name (seed land 0xFFFF_FFFF)))

(* Each Kp bills what a one-shot HMAC under the master does: the pads'
   compressions are replayed, the message's performed. *)
let platform_key t ~serial =
  Cost_model.replay_hashing t.pads_bill;
  Crypto.Hmac.mac_with t.master (Bytes.of_string ("device/" ^ serial))

(* Both keys, freshly derived and billed to the calling domain as it
   hashes. *)
let derive t serial =
  let mark = Cost_model.hashing_mark () in
  let platform_key = platform_key t ~serial in
  let kp_bill = Cost_model.hashing_since mark in
  let mark = Cost_model.hashing_mark () in
  let ka = Attestation.derive_ka ~platform_key in
  { ka; kp_bill; ka_bill = Cost_model.hashing_since mark }

(* Who asks decides what a hit bills: the manufacturer nothing, the
   device's boot the Ka step, a verifier both steps.  A miss derives
   under the lock, so concurrent misses on one serial derive it once;
   it bills what it hashes, and a device's miss is refused.  The fill
   is one lookup and one insert, and allocates only the entry. *)
type asker = Manufacturer | Device | Verifier

let lookup t serial asker =
  Mutex.lock t.lock;
  match Hashtbl.find t.keys serial with
  | k ->
      Mutex.unlock t.lock;
      (match asker with
      | Manufacturer -> ()
      | Device -> Cost_model.replay_hashing k.ka_bill
      | Verifier ->
          Cost_model.replay_hashing k.kp_bill;
          Cost_model.replay_hashing k.ka_bill);
      k.ka
  | exception Not_found when asker = Device ->
      Mutex.unlock t.lock;
      invalid_arg ("Registry.device_key: no keys recorded for " ^ serial)
  | exception Not_found -> (
      match derive t serial with
      | k ->
          Hashtbl.add t.keys serial k;
          Mutex.unlock t.lock;
          k.ka
      | exception e ->
          Mutex.unlock t.lock;
          raise e)

let provision t ~serial = ignore (lookup t serial Manufacturer)
let device_key t ~serial = lookup t serial Device
let attestation_key t ~serial = lookup t serial Verifier
let set_manifest t entries = t.manifest <- entries
let manifest t = t.manifest
