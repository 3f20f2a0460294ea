open Tytan_core
module Crypto = Tytan_crypto

type t = {
  master : bytes;
  mutable manifest : (string * Task_id.t) list;
}

let create ~master = { master; manifest = [] }

let of_seed ~name seed =
  create
    ~master:
      (Bytes.of_string
         (Printf.sprintf "%s-master-%08x" name (seed land 0xFFFF_FFFF)))

let platform_key t ~serial =
  Crypto.Hmac.mac_string ~key:t.master ("device/" ^ serial)

let attestation_key t ~serial =
  Attestation.derive_ka ~platform_key:(platform_key t ~serial)

let set_manifest t entries = t.manifest <- entries
let manifest t = t.manifest
