(** Wire format of the remote-attestation protocol.

    {v
      challenge     : 'C' | seq(4) | id(8) | nonce_len(1) | nonce
      response      : 'R' | seq(4) | id(8) | nonce_len(1) | nonce | mac(20)
      refusal       : 'X' | seq(4)                (no such task loaded)
      cfa challenge : 'F' | seq(4) | id(8) | nonce_len(1) | nonce
      cfa response  : 'G' | seq(4) | id(8) | nonce_len(1) | nonce
                          | cf_digest(20) | base_digest(20)
                          | edge_count(4) | n_edges(2) | edges(9·n)
                          | mac(20)
    v}

    The sequence number pairs retransmitted challenges with their
    responses; freshness comes from the nonce, authenticity from the
    MAC.  Each edge is src(4,LE) | dst(4,LE) | kind(1)
    ({!Tytan_machine.Cpu.branch_kind_code}).

    {2 Over-the-air update frames}

    {v
      update offer  : 'U' | seq(4) | id(8) | version(4) | size(4)
                          | digest(20) | mac(20)
      update chunk  : 'D' | seq(4) | offset(4) | len(2) | data
      update ack    : 'K' | seq(4) | status(1) | arg(4)
    v}

    The offer's [mac] is {!Tytan_core.Attestation.update_mac} under the
    device's Ka — version, size, identity and image digest are all
    authenticated.  Chunks carry raw image bytes (go-back-N: the device
    acks the next offset it needs and discards anything else).  The ack
    [status] byte says how the transfer is going ({!ack_status}); [arg]
    is the next offset needed ([Ota_need]), the counter value
    ([Ota_applied], [Ota_refused_rollback]) or zero. *)

open Tytan_core

type ack_status =
  | Ota_ready  (** offer accepted; send chunks from offset 0 *)
  | Ota_need  (** cumulative progress: [arg] = next byte offset needed *)
  | Ota_applied  (** image activated; [arg] = new counter value *)
  | Ota_refused_auth  (** offer MAC did not verify under Ka *)
  | Ota_refused_rollback
      (** [version <= counter]; [arg] = the counter the offer lost to *)
  | Ota_refused_digest  (** assembled image hash ≠ authenticated digest *)
  | Ota_refused_vet  (** the six-check tycheck vet refused the image *)
  | Ota_refused_crash  (** device crashed mid-swap; image not activated *)

val ack_status_label : ack_status -> string
(** Stable label for counters and reports (["ready"], ["refused-vet"]…) *)

type message =
  | Challenge of { seq : int; id : Task_id.t; nonce : bytes }
  | Response of { seq : int; report : Attestation.report }
  | Refusal of { seq : int }
  | CfaChallenge of { seq : int; id : Task_id.t; nonce : bytes }
  | CfaResponse of { seq : int; report : Attestation.cfa_report }
  | UpdateOffer of {
      seq : int;
      id : Task_id.t;  (** identity the image must measure to *)
      version : int;  (** monotonic target version, bound into [mac] *)
      size : int;  (** encoded TELF size in bytes *)
      digest : bytes;  (** SHA-1 of the encoded TELF *)
      mac : bytes;  (** {!Tytan_core.Attestation.update_mac} under Ka *)
    }
  | UpdateChunk of { seq : int; offset : int; data : bytes }
  | UpdateAck of { seq : int; status : ack_status; arg : int }

val max_chunk : int
(** Most data bytes one UpdateChunk can carry (65 535; the len field is
    16 bits).  {!encode} raises [Invalid_argument] beyond it (or on an
    empty chunk). *)

val max_edges : int
(** Most edges one CfaResponse can carry (65 535; the n_edges field is
    16 bits).  {!encode} raises [Invalid_argument] beyond it. *)

val encode : message -> bytes

val decode : bytes -> (message, string) result
(** Malformed frames (truncated, bad lengths, bad edge kinds) are
    errors — the device agent drops them.  An unrecognized leading byte
    yields a {e distinguishable} error ({!is_unknown_tag}), so agents
    can skip frames from a newer protocol revision without treating the
    peer as malformed. *)

val is_unknown_tag : string -> bool
(** Does this [decode] error mean "valid-looking frame, unknown tag"? *)

(** {2 The honest device} *)

val answer :
  clock:Tytan_machine.Cycles.t ->
  ka:bytes ->
  loaded:Task_id.t ->
  ?genesis:bytes Lazy.t ->
  message ->
  message option
(** What an honest, quiescent device running [loaded] under [ka] replies
    to [msg].  A {!Challenge} for [loaded] gets a {!Response} whose MAC
    ({!Tytan_core.Attestation.expected_mac}) is charged to [clock] by
    compression count; a challenge for any other identity gets a
    {!Refusal}.  A device with a control-flow monitor passes [genesis],
    the {!Tytan_core.Attestation.cf_genesis} digest of [loaded]: a
    {!CfaChallenge} for [loaded] then gets a {!CfaResponse} carrying the
    empty log anchored at it (only the MAC is charged; [genesis] is
    forced outside the charge, and only here), one for any other identity
    a {!Refusal}.  Without [genesis] a {!CfaChallenge} goes unanswered,
    and so does every message that is not a challenge.  Silence, stalls,
    late replies and crashes are the caller's to model. *)
