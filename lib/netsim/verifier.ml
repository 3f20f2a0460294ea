open Tytan_core
module Crypto = Tytan_crypto

type outcome =
  | Pending
  | Attested
  | Refused
  | Gave_up
  | Cfa_rejected

type backoff = {
  base_slices : int;
  cap_slices : int;
  jitter_slices : int;
}

let default_backoff = { base_slices = 4; cap_slices = 64; jitter_slices = 3 }

type t = {
  ka : bytes;
  expected : Task_id.t;
  timeout_slices : int;
  backoff : backoff option;
  max_attempts : int;
  refusals_to_settle : int;
  cfa : (Attestation.cfa_report -> (unit, string) result) option;
  check : (nonce:bytes -> Attestation.report -> bool) option;
  nonce : bytes;
  seq : int;
  mutable outcome : outcome;
  mutable attempts : int;
  mutable next_send : int;
  mutable rejected : int;
  mutable ignored : int;
  mutable refusals : int;
  mutable cfa_failure : string option;
  mutable jitter_rng : int;
}

(* One verifier instance = one challenge (nonce, seq); retransmissions
   reuse both so duplicated responses stay valid exactly once each. *)
let counter = ref 0

(* A named session derives its whole identity — nonce, sequence, jitter
   stream — from the session label alone, never from the process-global
   counter.  Two consequences: replaying a campaign inside one process
   yields bit-identical wire traffic (the counter would remember the
   first run), and a flaky prover's session cannot shift an honest
   prover's sequence space, so its refusals never land on honest
   sessions. *)
let session_material session =
  let d = Crypto.Sha1.digest_string ("verifier-session/" ^ session) in
  let word off =
    (Char.code (Bytes.get d off) lsl 24)
    lor (Char.code (Bytes.get d (off + 1)) lsl 16)
    lor (Char.code (Bytes.get d (off + 2)) lsl 8)
    lor Char.code (Bytes.get d (off + 3))
  in
  let nonce = Bytes.sub d 0 12 in
  (nonce, word 12 land 0x3FFF_FFFF, word 16 land 0x3FFF_FFFF)

let create ~ka ~expected ?(timeout_slices = 8) ?backoff ?(max_attempts = 10)
    ?(refusals_to_settle = 1) ?cfa ?check ?session () =
  (match backoff with
  | Some b ->
      if b.base_slices <= 0 || b.cap_slices < b.base_slices || b.jitter_slices < 0
      then invalid_arg "Verifier.create: malformed backoff"
  | None -> ());
  if refusals_to_settle <= 0 then
    invalid_arg "Verifier.create: refusals_to_settle must be positive";
  let nonce, seq, jitter_seed =
    match session with
    | Some s -> session_material s
    | None ->
        incr counter;
        ( Bytes.of_string (Printf.sprintf "vnonce-%06d" !counter),
          !counter,
          (* Seeded from the session's stable parameters (not the global
             counter), so identical sessions replay identical
             schedules. *)
          0x2A2A lxor Hashtbl.hash (Task_id.to_hex expected, timeout_slices) )
  in
  {
    ka;
    expected;
    timeout_slices;
    backoff;
    max_attempts;
    refusals_to_settle;
    cfa;
    check;
    nonce;
    seq;
    outcome = Pending;
    attempts = 0;
    next_send = 0;
    rejected = 0;
    ignored = 0;
    refusals = 0;
    cfa_failure = None;
    jitter_rng = jitter_seed;
  }

let next_jitter t bound =
  if bound <= 0 then 0
  else begin
    t.jitter_rng <- Link.Prng.step t.jitter_rng;
    Link.Prng.below t.jitter_rng (bound + 1)
  end

(* Wait after the [n]th transmission (n = 1 for the initial send). *)
let wait_slices t ~attempt =
  match t.backoff with
  | None -> t.timeout_slices
  | Some b ->
      let doubled = b.base_slices lsl min 20 (attempt - 1) in
      min b.cap_slices doubled + next_jitter t b.jitter_slices

let poll t ~at =
  if t.outcome <> Pending || at < t.next_send then None
  else if t.attempts >= t.max_attempts then begin
    t.outcome <- Gave_up;
    None
  end
  else begin
    t.attempts <- t.attempts + 1;
    t.next_send <- at + wait_slices t ~attempt:t.attempts;
    let challenge =
      match t.cfa with
      | None -> Protocol.Challenge { seq = t.seq; id = t.expected; nonce = t.nonce }
      | Some _ ->
          Protocol.CfaChallenge { seq = t.seq; id = t.expected; nonce = t.nonce }
    in
    Some (Protocol.encode challenge)
  end

let next_wake t = if t.outcome = Pending then t.next_send else max_int

let settle_cap b = 16 + (10 * (b.cap_slices + b.jitter_slices))

let conclude t ~cap =
  let at = ref (2 * cap) in
  while t.outcome = Pending do
    ignore (poll t ~at:!at);
    at := !at + cap
  done

let quiescent ~genesis (r : Attestation.cfa_report) =
  if
    r.Attestation.edge_count = 0
    && Bytes.equal r.Attestation.cf_digest genesis
    && Bytes.equal r.Attestation.base_digest genesis
  then Ok ()
  else Error "non-empty control-flow log from a quiescent device"

let on_frame t frame =
  if t.outcome = Pending then
    match Protocol.decode frame with
    | Error e ->
        (* A frame from a future protocol revision is not a hostile
           peer: skip it without counting it against the session. *)
        if Protocol.is_unknown_tag e then t.ignored <- t.ignored + 1
        else t.rejected <- t.rejected + 1
    | Ok (Protocol.Challenge _) | Ok (Protocol.CfaChallenge _) ->
        t.rejected <- t.rejected + 1
    | Ok
        ( Protocol.UpdateOffer _ | Protocol.UpdateChunk _
        | Protocol.UpdateAck _ ) ->
        (* OTA traffic shares the wire but not this state machine: an
           attestation session treats it like a frame from another
           conversation, not a hostile peer. *)
        t.ignored <- t.ignored + 1
    | Ok (Protocol.Refusal { seq }) ->
        if seq = t.seq then begin
          t.refusals <- t.refusals + 1;
          if t.refusals >= t.refusals_to_settle then t.outcome <- Refused
        end
        else t.rejected <- t.rejected + 1
    | Ok (Protocol.Response { seq; report }) -> (
        match t.cfa with
        | Some _ ->
            (* This session demanded a control-flow report; a plain
               static report does not answer it. *)
            t.rejected <- t.rejected + 1
        | None ->
            let genuine =
              seq = t.seq
              &&
              match t.check with
              | Some check -> check ~nonce:t.nonce report
              | None ->
                  Attestation.verify ~ka:t.ka report ~expected:t.expected
                    ~nonce:t.nonce
            in
            if genuine then t.outcome <- Attested
            else t.rejected <- t.rejected + 1)
    | Ok (Protocol.CfaResponse { seq; report }) -> (
        match t.cfa with
        | None -> t.rejected <- t.rejected + 1
        | Some replay ->
            if
              seq = t.seq
              && Attestation.verify_cfa ~ka:t.ka report ~expected:t.expected
                   ~nonce:t.nonce
            then (
              (* Authentic report from the genuine platform: the replay
                 verdict is definitive either way.  An illegal path is a
                 settled compromise, not a frame to retry. *)
              match replay report with
              | Ok () -> t.outcome <- Attested
              | Error reason ->
                  t.cfa_failure <- Some reason;
                  t.outcome <- Cfa_rejected)
            else t.rejected <- t.rejected + 1)

let outcome t = t.outcome
let nonce t = Bytes.copy t.nonce
let seq t = t.seq
let refusals t = t.refusals
let attempts t = t.attempts
let rejected_frames t = t.rejected
let ignored_frames t = t.ignored
let cfa_failure t = t.cfa_failure
