open Tytan_core

type ack_status =
  | Ota_ready
  | Ota_need
  | Ota_applied
  | Ota_refused_auth
  | Ota_refused_rollback
  | Ota_refused_digest
  | Ota_refused_vet
  | Ota_refused_crash

let ack_status_code = function
  | Ota_ready -> 0
  | Ota_need -> 1
  | Ota_applied -> 2
  | Ota_refused_auth -> 3
  | Ota_refused_rollback -> 4
  | Ota_refused_digest -> 5
  | Ota_refused_vet -> 6
  | Ota_refused_crash -> 7

let ack_status_of_code = function
  | 0 -> Some Ota_ready
  | 1 -> Some Ota_need
  | 2 -> Some Ota_applied
  | 3 -> Some Ota_refused_auth
  | 4 -> Some Ota_refused_rollback
  | 5 -> Some Ota_refused_digest
  | 6 -> Some Ota_refused_vet
  | 7 -> Some Ota_refused_crash
  | _ -> None

let ack_status_label = function
  | Ota_ready -> "ready"
  | Ota_need -> "need"
  | Ota_applied -> "applied"
  | Ota_refused_auth -> "refused-auth"
  | Ota_refused_rollback -> "refused-rollback"
  | Ota_refused_digest -> "refused-digest"
  | Ota_refused_vet -> "refused-vet"
  | Ota_refused_crash -> "refused-crash"

type message =
  | Challenge of { seq : int; id : Task_id.t; nonce : bytes }
  | Response of { seq : int; report : Attestation.report }
  | Refusal of { seq : int }
  | CfaChallenge of { seq : int; id : Task_id.t; nonce : bytes }
  | CfaResponse of { seq : int; report : Attestation.cfa_report }
  | UpdateOffer of {
      seq : int;
      id : Task_id.t;
      version : int;
      size : int;
      digest : bytes;
      mac : bytes;
    }
  | UpdateChunk of { seq : int; offset : int; data : bytes }
  | UpdateAck of { seq : int; status : ack_status; arg : int }

let mac_size = Tytan_crypto.Sha1.digest_size
let max_edges = 0xFFFF
let max_chunk = 0xFFFF

let add_seq b seq =
  let seq_bytes = Bytes.create 4 in
  Bytes.set_int32_be seq_bytes 0 (Int32.of_int seq);
  Buffer.add_bytes b seq_bytes

let add_challenge b ~tag ~seq ~id ~nonce =
  Buffer.add_char b tag;
  add_seq b seq;
  Buffer.add_bytes b (Task_id.to_bytes id);
  Buffer.add_char b (Char.chr (Bytes.length nonce land 0xFF));
  Buffer.add_bytes b nonce

let encode = function
  | Challenge { seq; id; nonce } ->
      let b = Buffer.create 32 in
      add_challenge b ~tag:'C' ~seq ~id ~nonce;
      Buffer.to_bytes b
  | CfaChallenge { seq; id; nonce } ->
      let b = Buffer.create 32 in
      add_challenge b ~tag:'F' ~seq ~id ~nonce;
      Buffer.to_bytes b
  | Response { seq; report } ->
      let b = Buffer.create 64 in
      Buffer.add_char b 'R';
      add_seq b seq;
      Buffer.add_bytes b (Task_id.to_bytes report.Attestation.id);
      Buffer.add_char b (Char.chr (Bytes.length report.Attestation.nonce land 0xFF));
      Buffer.add_bytes b report.Attestation.nonce;
      Buffer.add_bytes b report.Attestation.mac;
      Buffer.to_bytes b
  | CfaResponse { seq; report } ->
      let edges = report.Attestation.edges in
      if Array.length edges > max_edges then
        invalid_arg "Protocol.encode: too many edges for one CfaResponse";
      let b = Buffer.create (96 + (Array.length edges * Attestation.cf_edge_size)) in
      Buffer.add_char b 'G';
      add_seq b seq;
      Buffer.add_bytes b (Task_id.to_bytes report.Attestation.id);
      Buffer.add_char b (Char.chr (Bytes.length report.Attestation.nonce land 0xFF));
      Buffer.add_bytes b report.Attestation.nonce;
      Buffer.add_bytes b report.Attestation.cf_digest;
      Buffer.add_bytes b report.Attestation.base_digest;
      let count = Bytes.create 4 in
      Bytes.set_int32_be count 0 (Int32.of_int report.Attestation.edge_count);
      Buffer.add_bytes b count;
      let n = Bytes.create 2 in
      Bytes.set_uint16_be n 0 (Array.length edges);
      Buffer.add_bytes b n;
      Array.iter (fun e -> Buffer.add_bytes b (Attestation.cf_edge_to_bytes e)) edges;
      Buffer.add_bytes b report.Attestation.mac;
      Buffer.to_bytes b
  | Refusal { seq } ->
      let b = Bytes.create 5 in
      Bytes.set b 0 'X';
      Bytes.set_int32_be b 1 (Int32.of_int seq);
      b
  | UpdateOffer { seq; id; version; size; digest; mac } ->
      if Bytes.length digest <> mac_size then
        invalid_arg "Protocol.encode: offer digest must be 20 bytes";
      if Bytes.length mac <> mac_size then
        invalid_arg "Protocol.encode: offer mac must be 20 bytes";
      let b = Buffer.create 64 in
      Buffer.add_char b 'U';
      add_seq b seq;
      Buffer.add_bytes b (Task_id.to_bytes id);
      let fixed = Bytes.create 8 in
      Bytes.set_int32_be fixed 0 (Int32.of_int version);
      Bytes.set_int32_be fixed 4 (Int32.of_int size);
      Buffer.add_bytes b fixed;
      Buffer.add_bytes b digest;
      Buffer.add_bytes b mac;
      Buffer.to_bytes b
  | UpdateChunk { seq; offset; data } ->
      if Bytes.length data = 0 || Bytes.length data > max_chunk then
        invalid_arg "Protocol.encode: chunk data must be 1..65535 bytes";
      let b = Buffer.create (16 + Bytes.length data) in
      Buffer.add_char b 'D';
      add_seq b seq;
      let head = Bytes.create 6 in
      Bytes.set_int32_be head 0 (Int32.of_int offset);
      Bytes.set_uint16_be head 4 (Bytes.length data);
      Buffer.add_bytes b head;
      Buffer.add_bytes b data;
      Buffer.to_bytes b
  | UpdateAck { seq; status; arg } ->
      let b = Bytes.create 10 in
      Bytes.set b 0 'K';
      Bytes.set_int32_be b 1 (Int32.of_int seq);
      Bytes.set b 5 (Char.chr (ack_status_code status));
      Bytes.set_int32_be b 6 (Int32.of_int arg);
      b

let unknown_tag_prefix = "unknown frame tag"
let is_unknown_tag e =
  String.length e >= String.length unknown_tag_prefix
  && String.sub e 0 (String.length unknown_tag_prefix) = unknown_tag_prefix

let decode b =
  let len = Bytes.length b in
  let seq_of () = Int32.to_int (Bytes.get_int32_be b 1) in
  let challenge_of () =
    if len < 14 then Error "truncated challenge"
    else
      let nonce_len = Char.code (Bytes.get b 13) in
      if len <> 14 + nonce_len then Error "bad challenge length"
      else
        Ok
          ( seq_of (),
            Task_id.of_bytes (Bytes.sub b 5 8),
            Bytes.sub b 14 nonce_len )
  in
  if len < 5 then Error "frame too short"
  else
    match Bytes.get b 0 with
    | 'X' -> if len = 5 then Ok (Refusal { seq = seq_of () }) else Error "bad refusal"
    | 'C' ->
        Result.map
          (fun (seq, id, nonce) -> Challenge { seq; id; nonce })
          (challenge_of ())
    | 'F' ->
        Result.map
          (fun (seq, id, nonce) -> CfaChallenge { seq; id; nonce })
          (challenge_of ())
    | 'R' ->
        if len < 14 + mac_size then Error "truncated response"
        else
          let nonce_len = Char.code (Bytes.get b 13) in
          if len <> 14 + nonce_len + mac_size then Error "bad response length"
          else
            Ok
              (Response
                 {
                   seq = seq_of ();
                   report =
                     {
                       Attestation.id = Task_id.of_bytes (Bytes.sub b 5 8);
                       nonce = Bytes.sub b 14 nonce_len;
                       mac = Bytes.sub b (14 + nonce_len) mac_size;
                     };
                 })
    | 'G' ->
        (* 'G' | seq(4) | id(8) | nonce_len(1) | nonce | cf_digest(20) |
           base_digest(20) | edge_count(4) | n_edges(2) | edges(9 each) |
           mac(20) *)
        let fixed_tail = (2 * mac_size) + 4 + 2 + mac_size in
        if len < 14 + fixed_tail then Error "truncated cfa response"
        else
          let nonce_len = Char.code (Bytes.get b 13) in
          let pos = 14 + nonce_len in
          if len < pos + fixed_tail then Error "bad cfa response length"
          else
            let n_edges = Bytes.get_uint16_be b (pos + 44) in
            if len <> pos + fixed_tail + (n_edges * Attestation.cf_edge_size)
            then Error "bad cfa response length"
            else
              let raw =
                Array.init n_edges (fun i ->
                    Attestation.cf_edge_of_bytes b
                      ~pos:(pos + 46 + (i * Attestation.cf_edge_size)))
              in
              if Array.exists Option.is_none raw then
                Error "bad edge kind in cfa response"
              else
                Ok
                  (CfaResponse
                     {
                       seq = seq_of ();
                       report =
                         {
                           Attestation.id = Task_id.of_bytes (Bytes.sub b 5 8);
                           nonce = Bytes.sub b 14 nonce_len;
                           cf_digest = Bytes.sub b pos mac_size;
                           base_digest = Bytes.sub b (pos + 20) mac_size;
                           edge_count =
                             Int32.to_int (Bytes.get_int32_be b (pos + 40))
                             land Tytan_machine.Word.max_value;
                           edges = Array.map Option.get raw;
                           mac =
                             Bytes.sub b
                               (pos + 46 + (n_edges * Attestation.cf_edge_size))
                               mac_size;
                         };
                     })
    | 'U' ->
        (* 'U' | seq(4) | id(8) | version(4) | size(4) | digest(20) | mac(20) *)
        if len <> 5 + 8 + 8 + (2 * mac_size) then Error "bad offer length"
        else
          let version = Int32.to_int (Bytes.get_int32_be b 13) in
          let size = Int32.to_int (Bytes.get_int32_be b 17) in
          if version < 0 || size < 0 then Error "bad offer fields"
          else
            Ok
              (UpdateOffer
                 {
                   seq = seq_of ();
                   id = Task_id.of_bytes (Bytes.sub b 5 8);
                   version;
                   size;
                   digest = Bytes.sub b 21 mac_size;
                   mac = Bytes.sub b (21 + mac_size) mac_size;
                 })
    | 'D' ->
        (* 'D' | seq(4) | offset(4) | len(2) | data *)
        if len < 11 then Error "truncated chunk"
        else
          let offset = Int32.to_int (Bytes.get_int32_be b 5) in
          let data_len = Bytes.get_uint16_be b 9 in
          if offset < 0 then Error "bad chunk offset"
          else if data_len = 0 || len <> 11 + data_len then
            Error "bad chunk length"
          else
            Ok
              (UpdateChunk
                 { seq = seq_of (); offset; data = Bytes.sub b 11 data_len })
    | 'K' ->
        (* 'K' | seq(4) | status(1) | arg(4) *)
        if len <> 10 then Error "bad ack length"
        else (
          match ack_status_of_code (Char.code (Bytes.get b 5)) with
          | None -> Error "bad ack status"
          | Some status ->
              let arg = Int32.to_int (Bytes.get_int32_be b 6) in
              if arg < 0 then Error "bad ack arg"
              else Ok (UpdateAck { seq = seq_of (); status; arg }))
    | c -> Error (Printf.sprintf "%s 0x%02X" unknown_tag_prefix (Char.code c))

let answer ~clock ~ka ~loaded ?genesis msg =
  match msg with
  | Challenge { seq; id; nonce } ->
      if Task_id.equal id loaded then
        let mac =
          Cost_model.charge_hashing clock (fun () ->
              Attestation.expected_mac ~ka ~id ~nonce)
        in
        Some (Response { seq; report = { Attestation.id; nonce; mac } })
      else Some (Refusal { seq })
  | CfaChallenge { seq; id; nonce } -> (
      match genesis with
      | None -> None
      | Some genesis when Task_id.equal id loaded ->
          (* A quiescent device's honest answer is the empty log,
             anchored at the genesis digest — forced here, outside the
             charge. *)
          let genesis = Lazy.force genesis in
          let mac =
            Cost_model.charge_hashing clock (fun () ->
                Attestation.expected_cfa_mac ~ka ~id ~nonce ~cf_digest:genesis
                  ~base_digest:genesis ~edge_count:0)
          in
          Some
            (CfaResponse
               {
                 seq;
                 report =
                   {
                     Attestation.id;
                     nonce;
                     cf_digest = genesis;
                     base_digest = genesis;
                     edge_count = 0;
                     edges = [||];
                     mac;
                   };
               })
      | Some _ -> Some (Refusal { seq }))
  | Response _ | Refusal _ | CfaResponse _ | UpdateOffer _ | UpdateChunk _
  | UpdateAck _ ->
      None
