open Tytan_machine
module Crypto = Tytan_crypto

type t = {
  cpu : Cpu.t;
  code_eip : Word.t;
  kp_addr : Word.t;
  store : (int, Crypto.Keystream.sealed) Hashtbl.t;
  mutable nonce_counter : int;
  mutable seals : int;
  mutable unseal_failures : int;
}

let create cpu ~code_eip ~kp_addr =
  {
    cpu;
    code_eip;
    kp_addr;
    store = Hashtbl.create 16;
    nonce_counter = 0;
    seals = 0;
    unseal_failures = 0;
  }

let code_eip t = t.code_eip

let charged t f = Cost_model.charge_hashing (Cpu.clock t.cpu) f

let task_key t ~owner =
  let platform_key =
    Cpu.with_firmware t.cpu ~eip:t.code_eip (fun () ->
        Cpu.load_bytes t.cpu t.kp_addr Crypto.Sha1.digest_size)
  in
  Crypto.Kdf.derive_task_key ~platform_key ~task_id:(Task_id.to_bytes owner)

let fresh_nonce t =
  let nonce = Bytes.create 8 in
  t.nonce_counter <- t.nonce_counter + 1;
  Bytes.set_int64_be nonce 0 (Int64.of_int t.nonce_counter);
  nonce

let seal t ~owner ~slot payload =
  charged t (fun () ->
      let key = task_key t ~owner in
      let sealed = Crypto.Keystream.seal ~key ~nonce:(fresh_nonce t) payload in
      Hashtbl.replace t.store slot sealed;
      t.seals <- t.seals + 1)

let unseal t ~owner ~slot =
  charged t (fun () ->
      match Hashtbl.find_opt t.store slot with
      | None ->
          t.unseal_failures <- t.unseal_failures + 1;
          None
      | Some sealed -> (
          let key = task_key t ~owner in
          match Crypto.Keystream.open_sealed ~key sealed with
          | Some plaintext -> Some plaintext
          | None ->
              t.unseal_failures <- t.unseal_failures + 1;
              None))

let payload_bytes = 24 (* six words *)

let words_to_bytes words =
  let b = Bytes.create payload_bytes in
  for i = 0 to 5 do
    Bytes.set_int32_le b (4 * i) (Int32.of_int words.(i))
  done;
  b

let bytes_to_words b =
  Array.init 6 (fun i ->
      Int32.to_int (Bytes.get_int32_le b (4 * i)) land Word.max_value)

let ipc_handler t ~sender ~message =
  let op = message.(0) and slot = message.(1) in
  let reply status words =
    let out = Array.make Ipc.message_words 0 in
    out.(0) <- status;
    Array.blit words 0 out 1 (min 6 (Array.length words));
    Some out
  in
  match op with
  | 1 ->
      seal t ~owner:sender ~slot (words_to_bytes (Array.sub message 2 6));
      reply 0 [||]
  | 2 -> (
      match unseal t ~owner:sender ~slot with
      | Some plaintext -> reply 0 (bytes_to_words plaintext)
      | None -> reply 1 [||])
  | _ -> reply 2 [||]

let slots_used t = Hashtbl.length t.store
let seals t = t.seals
let unseal_failures t = t.unseal_failures

let export t =
  Hashtbl.fold
    (fun slot sealed acc -> (slot, Crypto.Keystream.encode sealed) :: acc)
    t.store []
  |> List.sort compare

let import t blobs =
  (* Validate everything before touching the store. *)
  let decoded =
    List.map
      (fun (slot, blob) -> (slot, Crypto.Keystream.decode blob))
      blobs
  in
  if List.exists (fun (_, d) -> d = None) decoded then
    Error "corrupt NVM image"
  else begin
    List.iter
      (fun (slot, d) -> Hashtbl.replace t.store slot (Option.get d))
      decoded;
    Ok ()
  end
