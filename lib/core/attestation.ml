open Tytan_machine
module Crypto = Tytan_crypto

type report = {
  id : Task_id.t;
  nonce : bytes;
  mac : bytes;
}

type cf_edge = {
  src : Word.t;
  dst : Word.t;
  kind : Cpu.branch_kind;
}

let cf_edge_size = 9

let cf_edge_to_bytes e =
  let b = Bytes.create cf_edge_size in
  Bytes.set_int32_le b 0 (Int32.of_int e.src);
  Bytes.set_int32_le b 4 (Int32.of_int e.dst);
  Bytes.set b 8 (Char.chr (Cpu.branch_kind_code e.kind));
  b

let cf_edge_of_bytes b ~pos =
  if pos < 0 || pos + cf_edge_size > Bytes.length b then None
  else
    match Cpu.branch_kind_of_code (Char.code (Bytes.get b (pos + 8))) with
    | None -> None
    | Some kind ->
        let word off =
          Int32.to_int (Bytes.get_int32_le b (pos + off)) land Word.max_value
        in
        Some { src = word 0; dst = word 4; kind }

(* The hash chain: the genesis digest binds the log to the task identity,
   and every appended edge extends it.  29 bytes per step — exactly one
   SHA-1 compression, which is what Cost_model.cfa_log_event amortises. *)
let cf_genesis ~id = Crypto.Sha1.digest (Task_id.to_bytes id)
let cf_extend digest edge = Crypto.Sha1.digest (Bytes.cat digest (cf_edge_to_bytes edge))

type cfa_report = {
  id : Task_id.t;
  nonce : bytes;
  cf_digest : bytes;
  base_digest : bytes;
  edge_count : int;
  edges : cf_edge array;
  mac : bytes;
}

type t = {
  cpu : Cpu.t;
  code_eip : Word.t;
  kp_addr : Word.t;
  rtm : Rtm.t;
  mutable reports : int;
}

let create cpu ~code_eip ~kp_addr ~rtm =
  { cpu; code_eip; kp_addr; rtm; reports = 0 }

let code_eip t = t.code_eip

let read_platform_key t =
  Cpu.with_firmware t.cpu ~eip:t.code_eip (fun () ->
      Cpu.load_bytes t.cpu t.kp_addr Crypto.Sha1.digest_size)

(* Charge cycles for the compressions a crypto operation really
   performed. *)
let charged t f = Cost_model.charge_hashing (Cpu.clock t.cpu) f

let local_attest t id = Rtm.find t.rtm id <> None

let report_payload ~id ~nonce = Bytes.cat nonce (Task_id.to_bytes id)

let attest_with_key t ~key ~id ~nonce =
  match Rtm.find t.rtm id with
  | None -> None
  | Some _ ->
      let mac = charged t (fun () -> Crypto.Hmac.mac ~key (report_payload ~id ~nonce)) in
      t.reports <- t.reports + 1;
      Some { id; nonce; mac }

let derive_ka ~platform_key =
  Crypto.Kdf.derive ~platform_key ~purpose:"remote-attestation"

let derive_provider_ka ~platform_key ~provider =
  Crypto.Kdf.derive_provider_key ~platform_key ~provider

let remote_attest t ~id ~nonce =
  let key = charged t (fun () -> derive_ka ~platform_key:(read_platform_key t)) in
  attest_with_key t ~key ~id ~nonce

let remote_attest_for_provider t ~provider ~id ~nonce =
  let key =
    charged t (fun () ->
        derive_provider_ka ~platform_key:(read_platform_key t) ~provider)
  in
  attest_with_key t ~key ~id ~nonce

(* nonce | id_t | cf_digest | edge_count | base_digest: everything the
   verifier's replay depends on is under the MAC, so a tampered edge list
   either breaks the chain (digest mismatch) or breaks the MAC. *)
let cfa_payload ~id ~nonce ~cf_digest ~base_digest ~edge_count =
  let count = Bytes.create 4 in
  Bytes.set_int32_be count 0 (Int32.of_int edge_count);
  Bytes.concat Bytes.empty
    [ nonce; Task_id.to_bytes id; cf_digest; count; base_digest ]

let cfa_attest t ~id ~nonce ~cf_digest ~base_digest ~edge_count ~edges =
  match Rtm.find t.rtm id with
  | None -> None
  | Some _ ->
      let key = charged t (fun () -> derive_ka ~platform_key:(read_platform_key t)) in
      let mac =
        charged t (fun () ->
            Crypto.Hmac.mac ~key
              (cfa_payload ~id ~nonce ~cf_digest ~base_digest ~edge_count))
      in
      t.reports <- t.reports + 1;
      Some { id; nonce; cf_digest; base_digest; edge_count; edges; mac }

let verify_cfa ~ka (r : cfa_report) ~expected ~nonce =
  Task_id.equal r.id expected
  && Crypto.Constant_time.equal r.nonce nonce
  && Crypto.Hmac.verify ~key:ka
       (cfa_payload ~id:r.id ~nonce:r.nonce ~cf_digest:r.cf_digest
          ~base_digest:r.base_digest ~edge_count:r.edge_count)
       ~tag:r.mac

let expected_mac ~ka ~id ~nonce = Crypto.Hmac.mac ~key:ka (report_payload ~id ~nonce)

(* Verifier-side fast path: a fleet host checks many reports under the
   same Ka, so it precomputes the HMAC key schedule once per device and
   pays only the message compressions per report. *)
type mac_state = Crypto.Hmac.state

let expected_mac_with state ~id ~nonce =
  Crypto.Hmac.mac_with state (report_payload ~id ~nonce)

(* "TYOTA1" | version | size | id_t | image digest: the target version
   is under the MAC, so an attacker cannot take a genuinely signed old
   image and re-offer it under a fresher version number — the downgrade
   check compares the authenticated version, not a transport field. *)
let update_payload ~id ~version ~size ~digest =
  let fixed = Bytes.create 8 in
  Bytes.set_int32_be fixed 0 (Int32.of_int version);
  Bytes.set_int32_be fixed 4 (Int32.of_int size);
  Bytes.concat Bytes.empty
    [ Bytes.of_string "TYOTA1"; fixed; Task_id.to_bytes id; digest ]

let update_mac ~ka ~id ~version ~size ~digest =
  Crypto.Hmac.mac ~key:ka (update_payload ~id ~version ~size ~digest)

let verify_update_mac ~ka ~id ~version ~size ~digest ~tag =
  Crypto.Hmac.verify ~key:ka (update_payload ~id ~version ~size ~digest) ~tag

let expected_cfa_mac ~ka ~id ~nonce ~cf_digest ~base_digest ~edge_count =
  Crypto.Hmac.mac ~key:ka
    (cfa_payload ~id ~nonce ~cf_digest ~base_digest ~edge_count)

let verify ~ka (report : report) ~expected ~nonce =
  Task_id.equal report.id expected
  && Crypto.Constant_time.equal report.nonce nonce
  && Crypto.Hmac.verify ~key:ka
       (report_payload ~id:report.id ~nonce:report.nonce)
       ~tag:report.mac

let reports_issued t = t.reports
